"""Command-line entry point: run, validate, sweep, compare.

Exit codes: 0 success, 2 scenario validation failure, 3 runtime failure.
Failures print a machine-readable JSON object; all output formats carry a
schema_version field. The default output directory comes from $VECSIM_OUT.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from vecsim.config import (
    ConfigError, ScenarioConfig, apply_overrides, load_record, load_scenario, read_json_object, scenario_from_dict,
)
from vecsim.metrics import SCHEMA_VERSION, write_summary
from vecsim.simulation import run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


@dataclass
class SweepAxis:
    name: str
    values: list[object]

    def __post_init__(self):
        if not self.values:
            raise ValueError("values must hold at least one value")


@dataclass
class SweepSpec:
    scenario: str
    seeds: list[int]
    parameter: SweepAxis
    overrides: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("seeds: must hold at least one seed")


@dataclass
class RunRequest:
    """One side of a compare: a scenario file, its seeds and its overrides."""

    scenario: str
    seeds: list[int] = field(default_factory=lambda: [0])
    overrides: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("seeds: must hold at least one seed")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "compare":
            return _cmd_compare(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        _emit_error(EXIT_CONFIG, exc.errors)
        return EXIT_CONFIG
    except Exception as exc:   # anything past validation is a runtime failure
        _emit_error(EXIT_RUNTIME, [f"{type(exc).__name__}: {exc}"])
        return EXIT_RUNTIME
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vecsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and write packets/summary/decisions")
    run.add_argument("scenario", help="scenario JSON file")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--out", default=None, help="output directory (default $VECSIM_OUT or ./out)")
    run.add_argument(
        "--override", action="append", default=[], metavar="K=V",
        help="dotted-path config override, e.g. bandit.enabled=true (repeatable)",
    )

    val = sub.add_parser("validate", help="check a scenario file and report every problem")
    val.add_argument("scenario", help="scenario JSON file")

    sweep = sub.add_parser("sweep", help="run a seed x parameter sweep from a sweep spec")
    sweep.add_argument("spec", help="sweep spec JSON file")
    sweep.add_argument("--out", default=None, help="output directory (default $VECSIM_OUT or ./out)")

    cmp_ = sub.add_parser("compare", help="paired baseline-vs-treatment deltas across seeds")
    cmp_.add_argument("baseline", help="baseline run request JSON")
    cmp_.add_argument("treatment", help="treatment run request JSON")
    cmp_.add_argument("--out", default=None, help="output directory (default $VECSIM_OUT or ./out)")
    return parser


def _out_dir(arg: str | None) -> Path:
    if arg is not None:
        return Path(arg)
    return Path(os.environ.get("VECSIM_OUT", "out"))


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigError([f"override {text!r}: expected K=V"])
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _load_with_overrides(path: str, seed: int | None, overrides: dict[str, object]) -> ScenarioConfig:
    """The parsed scenario, not yet validated: `Simulation` validates each config it runs."""
    data = read_json_object(path)
    return scenario_from_dict(apply_overrides(data, overrides if seed is None else {"seed": seed, **overrides}))


def _emit_error(code: int, errors: list[str]) -> None:
    print(json.dumps(
        {"schema_version": SCHEMA_VERSION, "status": "error", "exit_code": code, "errors": errors},
        sort_keys=True,
    ))


def _cmd_run(args) -> int:
    overrides = dict(_parse_override(o) for o in args.override)
    cfg = _load_with_overrides(args.scenario, args.seed, overrides)
    report = run_scenario(cfg)
    out = _out_dir(args.out)
    files = report.write(out)
    summary = report.aggregates()
    print(json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "status": "ok",
            "files": {k: str(v) for k, v in sorted(files.items())},
            "packets": summary["packets"],
        },
        sort_keys=True,
    ))
    return EXIT_OK


def _cmd_validate(args) -> int:
    load_scenario(args.scenario)    # raises ConfigError with the full problem list
    print(json.dumps({"schema_version": SCHEMA_VERSION, "status": "ok"}, sort_keys=True))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = load_record(args.spec, SweepSpec)
    name, values = spec.parameter.name, spec.parameter.values

    out = _out_dir(args.out)
    by_seed: dict[str, list[dict]] = {}
    for seed in spec.seeds:
        rows = []
        for value in values:
            overrides = {**spec.overrides, name: value}
            cfg = _load_with_overrides(spec.scenario, seed, overrides)
            report = run_scenario(cfg)
            run_dir = out / f"seed-{seed}" / _slug(name, value)
            report.write(run_dir)
            rows.append({"value": value, "summary": report.aggregates()})
        by_seed[str(seed)] = rows
    merged = {
        "schema_version": SCHEMA_VERSION,
        "status": "ok",
        "scenario": spec.scenario,
        "parameter": name,
        "values": values,
        "seeds": spec.seeds,
        "by_seed": by_seed,
    }
    out.mkdir(parents=True, exist_ok=True)
    write_summary(merged, out / "sweep_summary.json")
    print(json.dumps(
        {"schema_version": SCHEMA_VERSION, "status": "ok",
         "files": {"sweep_summary": str(out / "sweep_summary.json")}},
        sort_keys=True,
    ))
    return EXIT_OK


def _slug(name: str, value) -> str:
    text = f"{name}-{value}"
    return "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in text)


def _headline(summary: dict) -> dict:
    packets = summary["packets"]
    horizon = summary["horizon"]
    return {
        "success_rate": packets["success_rate"],
        "latency_p99_s": packets["latency_p99_s"],
        "mean_energy_per_slot_j": summary["energy"]["total_j"] / horizon if horizon else 0.0,
    }


def _cmd_compare(args) -> int:
    base = load_record(args.baseline, RunRequest)
    treat = load_record(args.treatment, RunRequest)
    if Path(base.scenario).resolve() != Path(treat.scenario).resolve() or base.seeds != treat.seeds:
        raise ConfigError(
            ["compare: baseline and treatment must share the scenario file and seed list"]
        )

    metrics = ["success_rate", "latency_p99_s", "mean_energy_per_slot_j"]
    per_seed = []
    for seed in base.seeds:
        base_cfg = _load_with_overrides(base.scenario, seed, base.overrides)
        treat_cfg = _load_with_overrides(treat.scenario, seed, treat.overrides)
        base_sum = _headline(run_scenario(base_cfg).aggregates())
        treat_sum = _headline(run_scenario(treat_cfg).aggregates())
        deltas = {}
        for m in metrics:
            b, t = base_sum[m], treat_sum[m]
            deltas[m] = None if b is None or t is None else t - b
        per_seed.append({"seed": seed, "baseline": base_sum, "treatment": treat_sum, "delta": deltas})

    signs = {}
    for m in metrics:
        pos = sum(1 for row in per_seed if row["delta"][m] is not None and row["delta"][m] > 0)
        neg = sum(1 for row in per_seed if row["delta"][m] is not None and row["delta"][m] < 0)
        zero = sum(1 for row in per_seed if row["delta"][m] == 0)
        signs[m] = {"positive": pos, "negative": neg, "zero": zero}

    table = {
        "schema_version": SCHEMA_VERSION,
        "status": "ok",
        "scenario": base.scenario,
        "seeds": base.seeds,
        "per_seed": per_seed,
        "sign_summary": signs,
    }
    out = _out_dir(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_summary(table, out / "compare.json")
    print(json.dumps(table, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
