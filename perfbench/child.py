"""One benchmark run: a fresh process that does what ``vecsim run`` does.

    python3 perfbench/child.py MODE SCENARIO SEED OUT_DIR RESULT_JSON [SPANS_JSONL]

MODE is one of:

- ``run``: calls ``vecsim.cli.main(["run", SCENARIO, "--seed", SEED, "--out", OUT_DIR])``,
  the very code path of ``vecsim run``;
- ``trace``: does what ``cli._cmd_run`` does step by step (``load_scenario``,
  ``Simulation(cfg)``, the slot loop, ``finalize()``, ``write`` and
  ``aggregates()``) with the tracer installed, writes SPANS_JSONL and adds
  per-span aggregates to the result (see tracer.py);
- ``setup``: loads the scenario, builds the Simulation and stops where the
  first slot would start, so it measures set-up alone.

``SlotEngine.run`` and ``SlotEngine.advance_slot`` are wrapped from outside
to mark where the slot loop starts and ends and to time each slot. Every
mode also times a fixed reference loop in chunks: REF_SETUP_CHUNKS of them
once set-up ends, then, between slots, enough to keep their total at
REF_SHARE of the slot time so far. The parent uses their mean to correct
the run's times for the host's speed (see README.md), and leaves their own
time out of every interval it reports. Timestamps are CLOCK_MONOTONIC,
which the parent shares, so it can measure from the moment it spawned this
process.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

REF_SETUP_CHUNKS = 100
REF_SHARE = 0.1


def reference() -> float:
    """Time one chunk of fixed pure-Python work."""
    start = time.perf_counter()
    total = 0
    for i in range(5000):
        total += i * i
    return time.perf_counter() - start


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def install_hooks(result: dict) -> None:
    """Wrap SlotEngine.run and advance_slot; they record into `result`.

    t_loop is where set-up ends; the set-up reference chunks follow, and
    t_slots is where the first slot starts. t_finalize is where the last
    slot ends. slot_s holds each slot's time, ref_s every chunk's time.
    """
    from vecsim import kernel

    run, advance = kernel.SlotEngine.run, kernel.SlotEngine.advance_slot
    clock = time.perf_counter
    slot_s: list[float] = result.setdefault("slot_s", [])
    ref_s: list[float] = result.setdefault("ref_s", [])
    debt = 0.0      # reference time still owed to keep it at REF_SHARE of slot time

    def timed_run(self):
        result["t_loop"] = now()
        ref_s.extend(reference() for _ in range(REF_SETUP_CHUNKS))
        result["t_slots"] = now()
        try:
            return run(self)
        finally:
            result["t_finalize"] = now()

    def timed_advance(self):
        nonlocal debt
        start = clock()
        out = advance(self)
        slot = clock() - start
        slot_s.append(slot)
        debt += REF_SHARE * slot
        while debt > 0:
            ref_s.append(reference())
            debt -= ref_s[-1]
        return out

    kernel.SlotEngine.run = timed_run
    kernel.SlotEngine.advance_slot = timed_advance


def main(argv: list[str]) -> int:
    mode, scenario, seed, out_dir, result_path = argv[1:6]

    from vecsim import cli, config, simulation

    result: dict = {"vecsim_file": simulation.__file__}
    tracer = None
    if mode == "trace":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    install_hooks(result)

    if mode == "run":
        code = cli.main(["run", scenario, "--seed", seed, "--out", out_dir])
        if code != 0:
            return code
    else:
        result["t_load"] = now()
        cfg = config.load_scenario(scenario)
        result["t_build"] = now()
        sim = simulation.Simulation(cfg)
        if mode == "setup":
            result["t_loop"] = now()
            result["ref_s"] = [reference() for _ in range(REF_SETUP_CHUNKS)]
        else:
            sim.engine.run()
            report = sim.finalize()
            report.write(out_dir)
            report.aggregates()
    if tracer is not None:
        result["stats"] = {
            name: [s.calls, s.total, s.self_time, s.true_results] for name, s in sorted(tracer.stats.items())
        }
        tracer.write_spans(Path(argv[6]))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
