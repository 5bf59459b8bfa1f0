"""vecsim benchmark: end-to-end run cost per workload, and self time per module.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 40 --trace 0

Run from the root of a vecsim checkout. The workload scenario is generated
from --seed (see workloads.py). Each measured run is a fresh process
(child.py) doing what ``vecsim run`` does; runs repeat until --seconds is
spent and the medians are reported. Full runs go through ``vecsim.cli.main``
itself; every run's three output files must be byte-equal.

Times are corrected for the host's speed: each run also times a fixed
reference loop between slots (child.reference), and its set-up time is
scaled by REF_NOMINAL_S / the run's mean chunk time. So is the rest of the
run, on the workloads in workloads.HOST_CORRECTED. The uncorrected medians are
printed too and kept in result.json.

--trace 0 reports the end-to-end metrics: wall_s, setup_s,
us_per_vehicle_slot and peak_rss_mb. --trace 1 alternates traced and
untraced runs and reports the per-layer metrics. The last stdout line is
one JSON object; the full record, with every run, the output digest and
the machine context, goes to .perfbench/<workload>-s<seed>-t<trace>/result.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import workloads
from child import REF_SETUP_CHUNKS

HERE = Path(__file__).resolve().parent

OUTPUT_FILES = ("packets.csv", "decisions.csv", "summary.json")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PHASES = ("MOBILITY", "UPLINK", "RELAY_DECODE", "PREDICTION", "DOWNLINK", "CONTROL_PLANE", "EDGE_COMPUTE", "CIPHER")
# Workloads whose capacities are sized so that every control checkpoint is feasible.
FEASIBLE_CONTROL = ("crowd", "long_road")
RUN_LIMIT_S = 170.0
# Host times are scaled to a host on which one reference chunk (child.reference) takes this long.
REF_NOMINAL_S = 300e-6
TIME_UNITS = ("s", "ms", "us")
SETUP_PROBES = 2
# Metric units by name suffix, first match wins.
UNITS = (
    ("_ms_p50", "ms"), ("_ms_p99", "ms"), ("ms_per_checkpoint", "ms"), ("us_per_vehicle_slot", "us"),
    ("us_per_update", "us"), ("us_per_call", "us"), ("_mb", "MB"), ("_s", "s"), (".s", "s"),
    ("_ratio", "ratio"), ("_fraction", "ratio"), ("calls", "count"), ("draws", "count"), ("substreams", "count"),
)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """One spawned process and what it left behind."""

    def __init__(self, kind: str, out_dir: Path):
        self.kind = kind
        self.out_dir = out_dir
        self.errors: list[str] = []
        self.digest: str | None = None
        # Host times as measured; the reference chunks' own time is left out of wall_s.
        self.wall_s = self.setup_s = self.loop_s = self.us_per_vehicle_slot = self.peak_rss_mb = None
        # Mean reference chunk time and the host-speed factors. setup_scale, REF_NOMINAL_S /
        # ref_mean_s, corrects set-up on every workload. scale corrects the rest of the run,
        # and is 1 on workloads not in workloads.HOST_CORRECTED.
        self.ref_mean_s = self.setup_scale = self.scale = None
        self.child: dict | None = None
        self.spans: Path | None = None
        self.summary: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.errors

    def record(self) -> dict:
        keys = ("kind", "errors", "digest", "wall_s", "setup_s", "loop_s", "us_per_vehicle_slot", "peak_rss_mb",
                "ref_mean_s", "setup_scale", "scale")
        return {k: getattr(self, k) for k in keys}


def spawn(cmd: list[str], env: dict, log: Path, limit_s: float) -> tuple[float, float, int, float]:
    """Run cmd to completion; return (spawn time, exit time, exit code, peak RSS in MB)."""
    with log.open("wb") as fh:
        t0 = now()
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(limit_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = now()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, t1, proc.returncode, usage.ru_maxrss / 1024.0


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in OUTPUT_FILES:
        h.update(name.encode() + b"\0" + (out_dir / name).read_bytes())
    return h.hexdigest()


def check_outputs(run: Run, workload: str, vehicles: int, horizon: int) -> None:
    """Output checks; each failure is recorded on the run."""
    missing = [n for n in OUTPUT_FILES if not (run.out_dir / n).is_file()]
    if missing:
        run.errors.append(f"missing output files {missing}")
        return
    expected = vehicles * horizon
    with (run.out_dir / "packets.csv").open(newline="", encoding="utf-8") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    if rows != expected:
        run.errors.append(f"packets.csv has {rows} rows, expected V*H = {expected}")
    try:
        summary = json.loads((run.out_dir / "summary.json").read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        run.errors.append(f"summary.json does not parse: {exc}")
        return
    run.summary = summary
    if "schema_version" not in summary:
        run.errors.append("summary.json has no schema_version")
    emitted = summary.get("packets", {}).get("emitted")
    if emitted != expected:
        run.errors.append(f"summary packets.emitted = {emitted}, expected V*H = {expected}")
    if workload in FEASIBLE_CONTROL:
        bad = [c for c in summary.get("control", {}).get("checkpoints", []) if "infeasible" in c]
        if bad:
            run.errors.append(f"{len(bad)} infeasible control checkpoints, first {bad[0]}")
    run.digest = digest(run.out_dir)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.work = root / ".perfbench" / f"{workload}-s{seed}-t{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        cfg = workloads.scenario(workload, seed, root)
        self.vehicles = len(cfg["vehicles"])
        self.horizon = cfg["horizon"]
        self.scenario = self.work / "scenario.json"
        self.scenario.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_ENV)
        self.runs: list[Run] = []
        self.started = now()

    def _limit(self) -> float:
        return max(5.0, RUN_LIMIT_S - (now() - self.started))

    def run_cli(self) -> None:
        """Run ``python -m vecsim.cli run`` once, with nothing wrapped; measure() compares its files."""
        run = Run("cli", self.work / "cli")
        cmd = [sys.executable, "-m", "vecsim.cli", "run", str(self.scenario),
               "--seed", str(self.seed), "--out", str(run.out_dir)]
        t0, t1, code, rss = spawn(cmd, self.env, self.work / "cli.log", self._limit())
        run.wall_s, run.peak_rss_mb = t1 - t0, rss
        if code != 0:
            run.errors.append(f"vecsim run exited {code}, see {self.work / 'cli.log'}")
        else:
            check_outputs(run, self.workload, self.vehicles, self.horizon)
        self.runs.append(run)

    def run_child(self, mode: str) -> Run:
        """Spawn child.py in `mode` (setup, run or trace) and check what it left."""
        i = len(self.runs)
        run = Run(mode, self.work / f"run{i}")
        result = self.work / f"run{i}.json"
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(self.scenario), str(self.seed), str(run.out_dir),
               str(result)]
        if mode == "trace":
            run.spans = self.work / f"run{i}.spans.jsonl"
            cmd.append(str(run.spans))
        t0, t1, code, rss = spawn(cmd, self.env, self.work / f"run{i}.log", self._limit())
        run.wall_s, run.peak_rss_mb = t1 - t0, rss
        self.runs.append(run)
        if code != 0:
            run.errors.append(f"{mode} run exited {code}, see {self.work / f'run{i}.log'}")
            return run
        child = json.loads(result.read_text(encoding="utf-8"))
        run.child = child
        if not Path(child["vecsim_file"]).resolve().is_relative_to(self.root / "src"):
            run.errors.append(f"imported vecsim from {child['vecsim_file']}, not from this checkout")
        run.setup_s = child["t_loop"] - t0
        run.wall_s -= sum(child["ref_s"])
        run.ref_mean_s = statistics.fmean(child["ref_s"])
        run.setup_scale = REF_NOMINAL_S / run.ref_mean_s
        run.scale = run.setup_scale if self.workload in workloads.HOST_CORRECTED else 1.0
        if mode == "setup":
            return run
        run.loop_s = child["t_finalize"] - child["t_slots"] - sum(child["ref_s"][REF_SETUP_CHUNKS:])
        run.us_per_vehicle_slot = run.loop_s / (self.vehicles * self.horizon) * 1e6
        check_outputs(run, self.workload, self.vehicles, self.horizon)
        return run

    def measure(self, seconds: float) -> None:
        """Measured runs until `seconds` is spent, then the digest check.

        Untraced invocations spawn SETUP_PROBES set-up-only processes before
        each full run, because set-up is short and noisy; traced ones
        alternate traced and untraced runs so that the tracing overhead can
        be measured, after one unwrapped ``vecsim run`` whose files every
        run must match. A failed run ends the measurement.
        """
        deadline = self.started + seconds
        if self.trace:
            self.run_cli()
        modes = ("trace", "run") if self.trace else ("run",)
        probes = 0 if self.trace else SETUP_PROBES
        spent: dict[str, list[float]] = {m: [] for m in modes}     # host time of each round, per mode
        i = 0
        while i < len(modes) or now() + max(spent[modes[i % len(modes)]]) <= deadline:
            mode = modes[i % len(modes)]
            start = now()
            runs = [self.run_child("setup") for _ in range(probes)] + [self.run_child(mode)]
            if not all(r.ok for r in runs):
                break
            spent[mode].append(now() - start)
            i += 1
        reference = next((r.digest for r in self.runs if r.digest), None)
        for run in self.runs:
            if run.digest is not None and run.digest != reference:
                run.errors.append(f"output digest {run.digest[:12]} differs from the first run's {reference[:12]}")
        kept = next((r for r in self.runs if r.digest == reference), None)     # one output set stays for inspection
        for run in self.runs:
            if run.ok and run is not kept:
                shutil.rmtree(run.out_dir, ignore_errors=True)

    def samples(self, kind: str) -> list[Run]:
        return [r for r in self.runs if r.kind == kind and r.ok]

    def end_to_end(self, corrected: bool = True) -> dict[str, float]:
        """Medians over the runs, corrected for host speed unless `corrected` is False."""
        runs = self.samples("run")

        def factors(r: Run) -> tuple[float, float]:
            return (r.setup_scale, r.scale) if corrected else (1.0, 1.0)

        def wall(r: Run) -> float:
            setup, rest = factors(r)
            return r.setup_s * setup + (r.wall_s - r.setup_s) * rest

        out = {
            "wall_s": statistics.median(wall(r) for r in runs),
            "setup_s": statistics.median(r.setup_s * factors(r)[0] for r in runs + self.samples("setup")),
            "us_per_vehicle_slot": statistics.median(r.us_per_vehicle_slot * factors(r)[1] for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        }
        out["failed_fraction"] = sum(not r.ok for r in self.runs) / len(self.runs)
        return out

    def per_layer(self) -> dict[str, float]:
        traced = self.samples("trace")
        per_run = [
            {name: value * (r.scale if unit_of(name) in TIME_UNITS else 1.0) for name, value in layer_metrics(r).items()}
            for r in traced
        ]
        out = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
        untraced = statistics.median(r.us_per_vehicle_slot * r.scale for r in self.samples("run"))
        out["trace.overhead_ratio"] = statistics.median(r.us_per_vehicle_slot * r.scale for r in traced) / untraced
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(run: Run) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its span aggregates."""
    child, summary = run.child, run.summary
    stats = child["stats"]      # span name -> [calls, total s, self s, calls that returned True]

    def get(name: str, field: int) -> float:
        return stats.get(name, (0, 0.0, 0.0, 0))[field]

    def prefixed(prefix: str, field: int) -> float:
        return sum(v[field] for n, v in stats.items() if n.startswith(prefix))

    calls, total, self_s, true_results = 0, 1, 2, 3
    slot_s = sorted(child["slot_s"])
    loop_s = sum(slot_s)
    phase_s = {p: get(f"phase.{p}", total) for p in PHASES}
    checkpoints = len(summary["control"]["checkpoints"])
    m: dict[str, float] = {
        "kernel.slot_ms_p50": percentile(slot_s, 50) * 1e3,
        "kernel.slot_ms_p99": percentile(slot_s, 99) * 1e3,
        "kernel.self_s": loop_s - sum(phase_s.values()),
        "trace.phase_cover_ratio": _ratio(sum(phase_s.values()), loop_s),
        "simulation.construct_s": child["t_loop"] - child["t_build"],
        "config.load_s": child["t_build"] - child["t_load"],
    }
    for p in PHASES:
        m[f"kernel.phase.{p}.s"] = phase_s[p]
        m[f"simulation.{p}.self_s"] = get(f"phase.{p}", self_s)
    m["channel.self_s"] = prefixed("channel.", self_s)
    m["channel.calls"] = prefixed("channel.", calls)
    m["mobility.self_s"] = prefixed("mobility.", self_s)
    m["mobility.draw_from_row.calls"] = get("mobility.draw_from_row", calls)
    m["mobility.transition_matrix_s"] = get("mobility.MarkovJumpModel.transition_matrix", total)
    m["rng.self_s"] = prefixed("rng.", self_s)
    m["rng.draws"] = sum(
        get(f"rng.RngStream.{k}", calls) for k in ("random", "integers", "choice_without_replacement", "bytes")
    )
    m["rng.substreams"] = get("rng.RngStream.substream", calls)
    m["mac.self_s"] = prefixed("mac.", self_s)
    m["mac.select_ctus.self_s"] = get("mac.select_ctus", self_s)
    m["mac.decode_path.calls"] = get("mac.decode_path", calls)
    m["mac.decode_ok_ratio"] = _ratio(get("mac.decode_path", true_results), get("mac.decode_path", calls))
    m["clustering.self_s"] = prefixed("clustering.", self_s)
    m["clustering.allocate_slices.self_s"] = get("clustering.allocate_slices", self_s)
    m["ecorouting.self_s"] = prefixed("ecorouting.", self_s)
    m["edge.self_s"] = prefixed("edge.", self_s)
    updates = get("predictor.update_belief", calls)
    m["predictor.self_s"] = prefixed("predictor.", self_s)
    m["predictor.update_belief.self_s"] = get("predictor.update_belief", self_s)
    m["predictor.predict_association.self_s"] = get("predictor.predict_association", self_s)
    m["predictor.us_per_update"] = _ratio(get("predictor.update_belief", total), updates) * 1e6
    m["predictor.fallback_ratio"] = _ratio(summary["prediction"]["fallbacks"], updates)
    m["control_plane.self_s"] = prefixed("control_plane.", self_s)
    m["control_plane.place_controllers.self_s"] = get("control_plane.place_controllers", self_s)
    m["control_plane.balance_control_traffic.self_s"] = get("control_plane.balance_control_traffic", self_s)
    m["control_plane.sync_s"] = (
        get("control_plane.sync_controllers", total) + get("control_plane.relay_free_controller_graph", total)
    )
    m["control_plane.dijkstra_calls"] = get("networkx.dijkstra_path", calls)
    m["control_plane.dijkstra_s"] = get("networkx.dijkstra_path", total)
    m["control_plane.ms_per_checkpoint"] = _ratio(checkpoint_seconds(run.spans), checkpoints) * 1e3
    m["cipher.self_s"] = prefixed("cipher.", self_s)
    m["cipher.crypt.calls"] = get("cipher.crypt", calls)
    m["cipher.roundtrip_ok_ratio"] = _ratio(summary["cipher"]["roundtrip_ok"], summary["cipher"]["messages"])
    m["metrics.self_s"] = prefixed("metrics.", self_s)
    m["metrics.record_energy.calls"] = get("metrics.MetricsReport.record_energy", calls)
    m["metrics.record_energy.us_per_call"] = _ratio(
        get("metrics.MetricsReport.record_energy", total), get("metrics.MetricsReport.record_energy", calls)
    ) * 1e6
    m["metrics.write_s"] = get("metrics.MetricsReport.write", total)
    m["metrics.aggregates_s"] = get("metrics.MetricsReport.aggregates", total)
    return m


def checkpoint_seconds(spans_path: Path) -> float:
    """Time of the CONTROL_PLANE phase spans that made control-plane calls."""
    seconds, called = 0.0, False
    with spans_path.open(encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            if span["name"] == "phase.CONTROL_PLANE":
                if called:
                    seconds += span["end"] - span["start"]
                called = False
            elif span["parent"] == "phase.CONTROL_PLANE":
                called = True      # children end, and are written, before their parent
    return seconds


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def machine_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "networkx": metadata.version("networkx"),
        "blas_env": BLAS_ENV,
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def bench_one(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Bench]:
    """Measure one workload; return its full record, also written to result.json."""
    context = machine_context()
    bench = Bench(root, workload, seed, trace)
    bench.measure(seconds)
    failed = sum(not r.ok for r in bench.runs)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "context": context,
        "vehicles": bench.vehicles,
        "horizon": bench.horizon,
        "digest": next((r.digest for r in bench.runs if r.digest), None),
        "attempted": len(bench.runs),
        "failed": failed,
        "runs": [r.record() for r in bench.runs],
    }
    for r in bench.runs:
        for err in r.errors:
            print(f"{workload}: {r.kind} run failed: {err}", file=sys.stderr)
    needed = ("trace", "run") if trace else ("run",)
    if any(not bench.samples(kind) for kind in needed):
        record["metrics"] = None
    else:
        record["metrics"] = bench.per_layer() if trace else bench.end_to_end()
        record["host_metrics"] = None if trace else bench.end_to_end(corrected=False)
        record["ref_mean_us"] = statistics.median(r.ref_mean_s for r in bench.runs if r.ok and r.ref_mean_s) * 1e6
    (bench.work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record, bench


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))     # so spawn() stops its child

    root = Path.cwd().resolve()
    if not (root / "src" / "vecsim" / "__init__.py").is_file() or not (root / workloads.SMOKE).is_file():
        print(f"{root} is not a vecsim checkout: src/vecsim and {workloads.SMOKE} are required", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        record, bench = bench_one(root, name, args.seed, args.seconds, bool(args.trace))
        attempted += record["attempted"]
        failed += record["failed"]
        if record["metrics"] is None:
            print(f"{name}: no successful run to measure; see {bench.work}", file=sys.stderr)
            return 1
        ctx = record["context"]
        print(f"{name} seed={args.seed} V={record['vehicles']} H={record['horizon']} "
              f"runs={record['attempted']} failed={record['failed']} digest={record['digest']}")
        print(f"  context: nproc={ctx['nproc']} python={ctx['python']} numpy={ctx['numpy']} "
              f"networkx={ctx['networkx']} blas={ctx['blas_env']} loadavg={ctx['loadavg_start']}")
        scaled = "times below are" if name in workloads.HOST_CORRECTED else "set-up times below are, the rest not,"
        print(f"  reference chunk: {record['ref_mean_us']:.1f} us (median of run means; "
              f"{scaled} scaled to {REF_NOMINAL_S * 1e6:.0f} us)")
        if record["host_metrics"]:
            print("  uncorrected host time: " + ", ".join(
                f"{k} = {v:.6g} {unit_of(k)}" for k, v in record["host_metrics"].items() if unit_of(k) in TIME_UNITS))
        for metric, value in record["metrics"].items():
            print(f"  {metric} = {value:.6g} {unit_of(metric)}")
            if metric != "failed_fraction":     # carried as failed/attempted below
                key = metric if len(names) == 1 else f"{name}.{metric}"
                metrics[key] = {"value": value, "unit": unit_of(metric)}
        print(f"  record: {bench.work / 'result.json'}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS:
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


if __name__ == "__main__":
    sys.exit(main())
