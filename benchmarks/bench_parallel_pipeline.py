"""Parallel fragment execution: serial vs process-pool throughput.

Times the same >= 8-fragment workload (a box of rigid water copies —
dedupe is bypassed so every fragment is a genuine QM run) through the
``serial`` and ``process`` executor backends and records wall-clock,
speedup, fragments/s, and worker utilization. Per-fragment responses
must agree to 1e-10 — parallelism may never change the numbers.

The recorded JSON includes the cores the process is actually allowed
to run on (``visible_cores``, from the scheduler affinity mask — a
container can expose fewer cores than ``os.cpu_count`` reports) and a
``verdict`` field: on a single visible core the pool can only add IPC
overhead, so the run is recorded as ``inconclusive_single_core``
instead of pretending the speedup number means anything.

Also records the per-task dispatch payload: the mean bytes of one
pickled ``FragmentTask`` (``pickled_bytes_per_task``), which is what
the process backend ships per submission.

Run standalone:  python benchmarks/bench_parallel_pipeline.py
Under pytest:    pytest benchmarks/bench_parallel_pipeline.py -m slow
"""

import os
import pickle
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from conftest import save_result  # noqa: E402

WORKERS = 4
N_FRAGMENTS = 8
ATOL = 1e-10
SPEEDUP_TARGET = 2.0


def _workload():
    from repro.geometry import water_box
    from repro.pipeline.executor import FragmentTask

    waters = water_box(N_FRAGMENTS, seed=3)
    return [
        FragmentTask(index=k, label=f"water-{k}", geometry=w,
                     compute_raman=False, eri_mode="exact")
        for k, w in enumerate(waters)
    ]


def pickled_bytes_per_task(tasks) -> float:
    """Mean bytes the process backend ships per task."""
    return float(np.mean([len(pickle.dumps(t)) for t in tasks]))


def canonical_comparison(tasks, responses) -> dict:
    """Response-store effectiveness on the rigid-copy workload.

    Stores one representative response, then looks up every fragment:
    all copies are the same water under rigid motions, so the store
    must answer each from the single entry (hit rate 1.0). The per-hit
    wall clock is the full load + validate + rotate path — the cost
    that replaces a QM fragment run."""
    import tempfile

    from repro.pipeline.cache import RunStore

    with tempfile.TemporaryDirectory() as tmp:
        store = RunStore(tmp)
        t0 = time.perf_counter()
        store.store(tasks[0], responses[0])
        store_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        for task in tasks:
            store.load(task)
        load_wall = time.perf_counter() - t0
        stats = store.stats()
    return {
        **stats,
        "store_wall_s": store_wall,
        "load_wall_s": load_wall,
        "rotate_back_ms_per_hit": 1e3 * load_wall / max(stats["hits"], 1),
    }


def run_comparison() -> dict:
    from repro.pipeline.executor import make_executor, visible_cores

    tasks = _workload()
    runs = {}
    for backend in ("serial", "process"):
        with make_executor(backend, max_workers=WORKERS) as ex:
            t0 = time.perf_counter()
            responses, report = ex.run(tasks)
            wall = time.perf_counter() - t0
        runs[backend] = (responses, report, wall)
        print(f"  {report.summary()}")

    ser, ser_report, ser_wall = runs["serial"]
    par, par_report, par_wall = runs["process"]
    max_dev = max(
        float(np.abs(par[k].hessian - ser[k].hessian).max())
        for k in range(len(tasks))
    )
    speedup = ser_wall / par_wall
    cores = visible_cores()
    if cores <= 1:
        verdict = "inconclusive_single_core"
    elif speedup >= SPEEDUP_TARGET:
        verdict = "speedup_ok"
    else:
        verdict = "speedup_below_target"
    payload = {
        "n_fragments": len(tasks),
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "visible_cores": cores,
        "verdict": verdict,
        "speedup_target": SPEEDUP_TARGET,
        "serial_wall_s": ser_wall,
        "process_wall_s": par_wall,
        "speedup": speedup,
        "serial_fragments_per_s": ser_report.fragments_per_s,
        "process_fragments_per_s": par_report.fragments_per_s,
        "process_worker_utilization": par_report.worker_utilization,
        "max_hessian_deviation": max_dev,
        "pickled_bytes_per_task": pickled_bytes_per_task(tasks),
        "canonical_cache": canonical_comparison(tasks, ser),
        "serial_report": ser_report.as_dict(),
        "process_report": par_report.as_dict(),
    }
    print(f"  speedup x{speedup:.2f} on {cores} visible cores "
          f"(of {os.cpu_count()} reported) -> {verdict} "
          f"(max |dH| = {max_dev:.2e})")
    print(f"  payload/task: {payload['pickled_bytes_per_task']:.0f} B "
          f"pickled")
    cc = payload["canonical_cache"]
    print(f"  run store: {cc['hits']}/{cc['hits'] + cc['misses']} "
          f"hits (rate {cc['hit_rate']:.2f}), "
          f"{cc['rotate_back_ms_per_hit']:.1f} ms per hit")
    # canonical artifact name: lowercase bench_*, matching every other
    # benchmark output in benchmarks/output/
    save_result("bench_parallel_pipeline", payload)
    return payload


@pytest.mark.slow
def test_parallel_pipeline_benchmark():
    payload = run_comparison()
    assert payload["max_hessian_deviation"] <= ATOL
    assert payload["serial_fragments_per_s"] > 0
    assert payload["process_fragments_per_s"] > 0
    # the rigid canonical store must collapse the whole rigid-copy
    # workload onto its single stored entry
    assert payload["canonical_cache"]["hit_rate"] == 1.0
    assert payload["canonical_cache"]["writes"] == 1
    # the >= 2x target needs real cores; on a single visible core the
    # pool can only add overhead, so the verdict gates on the hardware
    if payload["visible_cores"] >= WORKERS:
        assert payload["verdict"] == "speedup_ok"
        assert payload["speedup"] >= SPEEDUP_TARGET
    else:
        assert payload["verdict"] in (
            "inconclusive_single_core", "speedup_ok", "speedup_below_target",
        )


if __name__ == "__main__":
    run_comparison()
