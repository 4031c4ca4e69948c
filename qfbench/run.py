"""QF-RAMAN benchmark: one command, every metric by name and unit.

Run from the repository root::

    python3 qfbench/run.py --workload water_raman --seed 3 --seconds 5 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` is the separate traced run: it wraps each layer's public
calls (``qfbench/ledger.py``) and reports the per-layer metrics.
Either way every timed call's outputs are checked; a call whose check
fails is a failed operation. The last line of standard output is the
JSON result; the lines before it carry the per-call log, the
environment record and, for a traced run, the ledger table.
"""

# qf-file: raw-clock — the benchmark times the program with its own clock

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
#: set-up is repeated and its median reported, so one slow set-up
#: (disk cache, a busy neighbour) does not decide ``setup_s``
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=5.0,
                   help="measure at least this long (at least one call)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cpu_s(before, after) -> float:
    return (after.ru_utime - before.ru_utime) + (after.ru_stime
                                                  - before.ru_stime)


def measure_once(workload, inputs, trace: bool) -> dict:
    """One timed call, its checks and (traced) its layer values."""
    from repro.obs.counters import counters

    from qfbench import metrics

    # every call starts from a collected heap, not from whatever the
    # previous call and its checks left for the collector
    gc.collect()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    snap = counters().snapshot()
    t0 = time.perf_counter()
    outcome, error = None, None
    try:
        outcome = workload.run(inputs)
    except Exception:  # qf: broad-except — a raising call is a failed op
        error = traceback.format_exc().strip().splitlines()[-1]
    t_end = time.perf_counter()
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    # pool workers are joined inside run(), so they are counted here
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    delta = counters().delta_since(snap)
    wall = (outcome.t_done if outcome is not None else t_end) - t0
    op = {"wall_s": wall,
          "cpu_s": _cpu_s(self0, self1) + _cpu_s(kids0, kids1)}
    if outcome is None:
        op["failures"] = [f"call raised: {error}"]
        return op
    try:
        op["failures"] = workload.check(inputs, outcome)
    except Exception:  # qf: broad-except — a raising check is a failed check
        op["failures"] = ["check raised: "
                          + traceback.format_exc().strip().splitlines()[-1]]
    if trace:
        op["layers"] = metrics.layer_values(delta, outcome, wall)
    return op


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and its largest reaped child's."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def print_ledger(name: str, values: dict) -> None:
    from qfbench.metrics import ATTRIBUTION_FLOOR, PER_LAYER

    print(f"# ledger {name}: metric value unit | should move | on")
    for m in PER_LAYER:
        print(f"#   {m.name:<34} {values[m.name]:>14.6g} {m.unit:<6}"
              f"| {m.moves} | {','.join(m.on)}")
    unattributed = values["obs.unattributed_frac"]
    if unattributed > 1.0 - ATTRIBUTION_FLOOR:
        print(f"# FLAG {name}: obs.unattributed_frac={unattributed:.4f} "
              f"> {1.0 - ATTRIBUTION_FLOOR:.2f} of fragment wall is not "
              f"covered by layer self times")


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The shared-memory transport starts the tracker, a process of its
    own that otherwise outlives this one by the moments it takes to
    notice its parent is gone. (Each call joins its pool workers.)
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return run_benchmark(argv)
    finally:
        stop_resource_tracker()


def run_benchmark(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"qfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy  # noqa: F401
    import repro  # noqa: F401

    from qfbench import env, ledger, metrics
    from qfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"qfbench: unknown workload {args.workload!r} "
              f"(have {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    workload = WORKLOADS[args.workload]()
    seed = workload.default_seed if args.seed is None else args.seed
    print(f"# workload={workload.name} seed={seed} "
          f"default_seed={workload.default_seed} seconds={args.seconds:g} "
          f"trace={args.trace}", flush=True)

    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = workload.setup(seed)
        setups.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setups)

    undo = ledger.install() if args.trace else []
    ops = []
    t_measure = time.perf_counter()
    try:
        while not ops or time.perf_counter() - t_measure < args.seconds:
            op = measure_once(workload, inputs, bool(args.trace))
            ops.append(op)
            print(f"# call {len(ops)}: wall {op['wall_s']:.3f} s, cpu "
                  f"{op['cpu_s']:.3f} s, "
                  + ("ok" if not op["failures"]
                     else "FAILED: " + "; ".join(op["failures"])),
                  flush=True)
    finally:
        ledger.uninstall(undo)

    failed = sum(1 for op in ops if op["failures"])
    if args.trace:
        values = metrics.median_by_key([op["layers"] for op in ops
                                        if "layers" in op] or [
            {m.name: 0.0 for m in metrics.PER_LAYER}])
        print_ledger(workload.name, values)
        chosen = metrics.PER_LAYER
    else:
        values = {
            "time_to_spectrum_s": statistics.median(o["wall_s"] for o in ops),
            "cpu_s": statistics.median(o["cpu_s"] for o in ops),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": setup_s,
        }
        chosen = metrics.END_TO_END
    print("# env " + json.dumps(env.environment(ROOT), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m.name: {"value": float(values[m.name]), "unit": m.unit}
                    for m in chosen},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
