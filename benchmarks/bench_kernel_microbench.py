"""Integral kernel micro-benchmark: scalar vs batched dispatch by class.

For each angular-momentum shape class (ss, pp, dd, sp-mixed) this times

* pair-block construction (python loop vs vectorized class grouping),
* the one-electron matrix build (S + T + V) per shell pair,
* the ERI tensor build per shell-pair^2 (small classes only),

under ``QF_KERNELS=scalar`` and ``QF_KERNELS=batched``, asserting the
two modes agree bit-identically on every matrix they build. It also
records the per-task dispatch payload (pickled ``FragmentTask`` vs the
shm wire tuples of :mod:`repro.pipeline.shm`), and times the Hermite
Coulomb kernel ``hermite_coulomb_vec`` for total orders L = 1..7: the
exact recursion-row and output-entry counts of the bounded, planned
kernel next to those of the dense (L, L, L) cube it replaced, and the
wall time per call at a fixed number of charge pairs.

Times are best-of-``REPEATS`` wall clock, reported as ns per shell
pair so classes of different size are comparable.

Run standalone:  python benchmarks/bench_kernel_microbench.py
Under pytest:    pytest benchmarks/bench_kernel_microbench.py -m slow
Via make:        make bench-kernels
"""

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from conftest import save_result  # noqa: E402

REPEATS = 3

#: shape classes: label -> (angular momenta laid on a center grid, grid
#: points, run the nbf^4 ERI build too?)
CLASSES = {
    "ss": ((0, 0), 6, True),
    "sp": ((0, 1), 5, True),
    "pp": ((1, 1), 4, True),
    "dd": ((2, 2), 3, False),
}

#: STO-3G-like contraction (K=3) so every pair class has 9 primitive pairs
EXPS = [3.425, 0.624, 0.169]
COEFS = [0.154, 0.535, 0.445]


def _class_system(ls, npts):
    """npts centers on a jittered line, one shell per (center, l)."""
    from repro.basis.gaussian import BasisSet, make_shell

    rng = np.random.default_rng(7)
    coords = np.stack([
        np.arange(npts) * 1.8,
        0.1 * rng.standard_normal(npts),
        0.1 * rng.standard_normal(npts),
    ], axis=1)
    shells = [
        make_shell(l, coords[i], EXPS, COEFS, atom_index=i)
        for i in range(npts) for l in ls
    ]
    return BasisSet(shells), np.ones(npts), coords


def _best_of(fn, repeats=REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_class(label, ls, npts, with_eri) -> dict:
    from repro.integrals.batched import build_pair_blocks_batched
    from repro.integrals.engine import IntegralEngine, build_pair_blocks

    basis, charges, coords = _class_system(ls, npts)
    shells, offsets = basis.shells, basis.offsets
    engines = {
        mode: IntegralEngine(basis, charges, coords, kernels=mode)
        for mode in ("scalar", "batched")
    }
    npairs = sum(blk.npair for blk in engines["scalar"].blocks)

    row = {"nshell": len(shells), "npairs": npairs}
    row["build_scalar_us"] = 1e6 * _best_of(
        lambda: build_pair_blocks(shells, offsets)
    )
    row["build_batched_us"] = 1e6 * _best_of(
        lambda: build_pair_blocks_batched(shells, offsets)
    )

    mats = {}
    for mode, eng in engines.items():
        def one_electron(eng=eng):
            return eng.overlap() + eng.kinetic() + eng.nuclear()
        row[f"one_electron_{mode}_ns_per_pair"] = (
            1e9 * _best_of(one_electron) / npairs
        )
        mats[mode] = [eng.overlap(), eng.kinetic(), eng.nuclear()]
        if with_eri:
            row[f"eri_{mode}_ns_per_pair2"] = (
                1e9 * _best_of(eng.eri) / npairs ** 2
            )
            mats[mode].append(eng.eri())

    dev = max(
        float(np.abs(a - b).max())
        for a, b in zip(mats["scalar"], mats["batched"])
    )
    row["max_abs_deviation"] = dev
    speed = (row["one_electron_scalar_ns_per_pair"]
             / row["one_electron_batched_ns_per_pair"])
    print(f"  {label}: {npairs} pairs, 1e scalar "
          f"{row['one_electron_scalar_ns_per_pair']:.0f} ns/pair vs batched "
          f"{row['one_electron_batched_ns_per_pair']:.0f} ns/pair "
          f"(x{speed:.2f}), |dev| = {dev:.1e}")
    return row


def _payload() -> dict:
    import pickle

    from repro.geometry import water_box
    from repro.pipeline.executor import FragmentTask
    from repro.pipeline.shm import pack_tasks

    tasks = [
        FragmentTask(index=k, label=f"water-{k}", geometry=w,
                     compute_raman=False, eri_mode="exact")
        for k, w in enumerate(water_box(8, seed=3))
    ]
    pickled = float(np.mean([len(pickle.dumps(t)) for t in tasks]))
    arena, descs = pack_tasks(tasks)
    try:
        wire = float(np.mean([len(pickle.dumps(d.to_wire())) for d in descs]))
    finally:
        arena.close()
    print(f"  payload/task: {pickled:.0f} B pickled -> {wire:.0f} B shm wire "
          f"(x{pickled / wire:.1f} smaller)")
    return {
        "pickled_bytes_per_task": pickled,
        "shm_wire_bytes_per_task": wire,
        "payload_reduction": pickled / wire,
    }


#: charge pairs per timed ``hermite_coulomb_vec`` call
R_KERNEL_N = 4096


def _dense_cube_rows(L: int) -> int:
    """Recursion rows of the dense contract: R^m_tuv for every t, u, v
    <= L with m <= 3L - (t+u+v), the Boys function run to order 3L."""
    return sum(3 * L - (t + u + v) + 1
               for t in range(L + 1) for u in range(L + 1)
               for v in range(L + 1))


def _r_kernel() -> dict:
    from repro.integrals.engine import _r_plan, hermite_combos, hermite_coulomb_vec

    rng = np.random.default_rng(11)
    p = rng.uniform(0.1, 20.0, R_KERNEL_N)
    pq = rng.uniform(-3.0, 3.0, (R_KERNEL_N, 3))
    rows = {}
    for L in range(1, 8):
        row = {
            "recursion_rows": _r_plan(L).nrows,
            "dense_cube_rows": _dense_cube_rows(L),
            "entries_out": len(hermite_combos(L, L, L, L)),
            "dense_cube_entries": (L + 1) ** 3,
            "us_per_call": 1e6 * _best_of(
                lambda L=L: hermite_coulomb_vec(L, p, pq), repeats=10
            ),
        }
        rows[str(L)] = row
        print(f"  R kernel L={L}: {row['recursion_rows']} rows "
              f"(dense cube {row['dense_cube_rows']}), "
              f"{row['entries_out']} entries (cube "
              f"{row['dense_cube_entries']}), "
              f"{row['us_per_call']:.0f} us/call at n={R_KERNEL_N}")
    return {"n": R_KERNEL_N, "cores": len(os.sched_getaffinity(0)),
            "orders": rows}


def run_microbench() -> dict:
    rows = {
        label: _bench_class(label, ls, npts, with_eri)
        for label, (ls, npts, with_eri) in CLASSES.items()
    }
    payload = {"classes": rows, "task_payload": _payload(),
               "hermite_coulomb": _r_kernel()}
    save_result("bench_kernel_microbench", payload)
    return payload


@pytest.mark.slow
def test_kernel_microbench():
    payload = run_microbench()
    for label, row in payload["classes"].items():
        # bit-identity between dispatch modes is the hard contract
        assert row["max_abs_deviation"] == 0.0, label  # qf: exact-zero
    assert payload["task_payload"]["payload_reduction"] >= 10.0
    assert payload["hermite_coulomb"]["orders"]["5"]["recursion_rows"] == 126


if __name__ == "__main__":
    run_microbench()
