"""Executor backends: numerical identity, error handling, reporting.

The parallel backends must be bit-compatible with the serial loop up to
1e-10 (same code path, same SCF seeds), and a worker failure must come
back as a labeled exception, not a hang.
"""

import os

import numpy as np
import pytest

from repro.geometry import water_box, water_molecule
from repro.geometry.atoms import Geometry
from repro.pipeline import QFRamanPipeline
from repro.pipeline.executor import (
    OPENBLAS_THREAD_SYMBOLS,
    DisplacementExecutor,
    FragmentExecutorError,
    FragmentTask,
    ProcessExecutor,
    SerialExecutor,
    blas_thread_counts,
    largest_first,
    make_executor,
)

ATOL = 1e-10


def _water_tasks():
    w = water_molecule()
    shift = np.array([[0.02, 0.0, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.015]])
    distorted = Geometry(list(w.symbols), w.coords + shift)
    return [
        FragmentTask(index=0, label="w0", geometry=w, eri_mode="exact"),
        FragmentTask(index=1, label="w1", geometry=distorted,
                     eri_mode="exact"),
    ]


@pytest.fixture(scope="module")
def serial_run():
    tasks = _water_tasks()
    with SerialExecutor() as ex:
        responses, report = ex.run(tasks)
    return tasks, responses, report


def _assert_matches(responses, reference):
    assert set(responses) == set(reference)
    for k, ref in reference.items():
        got = responses[k]
        assert np.allclose(got.hessian, ref.hessian, atol=ATOL)
        assert np.allclose(got.dalpha_dr, ref.dalpha_dr, atol=ATOL)
        assert np.allclose(got.alpha, ref.alpha, atol=ATOL)
        assert np.allclose(got.gradient, ref.gradient, atol=ATOL)
        assert got.energy == pytest.approx(ref.energy, abs=ATOL)


def test_serial_report(serial_run):
    tasks, responses, report = serial_run
    assert report.backend == "serial"
    assert report.max_workers == 1
    assert report.n_tasks == len(tasks) == len(report.tasks)
    assert report.wall_s > 0
    assert report.fragments_per_s > 0
    assert 0.0 < report.worker_utilization <= 1.0


def test_process_matches_serial(serial_run):
    tasks, reference, _ = serial_run
    with make_executor("process", max_workers=2) as ex:
        responses, report = ex.run(tasks)
    _assert_matches(responses, reference)
    assert report.backend == "process"
    assert report.n_tasks == len(tasks)
    # worker pids recorded for every task
    assert all(t["worker"] > 0 for t in report.tasks)


def test_displacement_matches_serial(serial_run):
    tasks, reference, _ = serial_run
    with make_executor("displacement", max_workers=2) as ex:
        responses, report = ex.run(tasks)
    _assert_matches(responses, reference)
    assert report.backend == "displacement"
    assert report.worker_utilization > 0.0


def test_largest_first_order():
    w = water_molecule()
    big = water_box(2, seed=0)
    merged = Geometry(
        list(big[0].symbols) + list(big[1].symbols),
        np.vstack([big[0].coords, big[1].coords]),
    )
    tasks = [
        FragmentTask(index=0, label="small", geometry=w),
        FragmentTask(index=1, label="big", geometry=merged),
        FragmentTask(index=2, label="small2", geometry=w),
    ]
    ordered = largest_first(tasks)
    assert [t.label for t in ordered] == ["big", "small", "small2"]


def test_make_executor_rejects_unknown():
    with pytest.raises(ValueError, match="unknown executor backend"):
        make_executor("threads")


def test_worker_exception_reraised_with_label():
    """A failing fragment (odd electron count -> RHF ValueError) must
    surface as FragmentExecutorError carrying the label — promptly."""
    bad = Geometry(["H"], np.zeros((1, 3)))
    task = FragmentTask(index=0, label="bad-fragment", geometry=bad)
    with make_executor("process", max_workers=1) as ex:
        with pytest.raises(FragmentExecutorError, match="bad-fragment"):
            ex.run([task])


def test_worker_death_attributed_to_fragment(monkeypatch):
    """A hard worker death (injected die fault) must surface as a
    labeled FragmentExecutorError naming the fragment and the phase —
    not as a bare BrokenProcessPool."""
    from concurrent.futures.process import BrokenProcessPool

    monkeypatch.setenv("QF_FAULTS", "die:doomed@*")
    h2 = Geometry(["H", "H"],
                  np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.4]]))
    task = FragmentTask(index=0, label="doomed", geometry=h2,
                        eri_mode="exact")
    with make_executor("process", max_workers=1) as ex:
        with pytest.raises(FragmentExecutorError,
                           match=r"doomed.*died.*phase=process") as err:
            ex.run([task])
    assert not isinstance(err.value, BrokenProcessPool)


def test_serial_executor_raises_with_label():
    bad = Geometry(["H"], np.zeros((1, 3)))
    task = FragmentTask(index=3, label="odd-electrons", geometry=bad)
    with pytest.raises(FragmentExecutorError, match="odd-electrons"):
        SerialExecutor().run([task])


def test_displacement_executor_raises_with_label():
    bad = Geometry(["H"], np.zeros((1, 3)))
    task = FragmentTask(index=0, label="odd-electrons", geometry=bad)
    with DisplacementExecutor(max_workers=1) as ex:
        with pytest.raises(FragmentExecutorError, match="odd-electrons"):
            ex.run([task])


@pytest.fixture(scope="module")
def serial_pipeline_run():
    w = water_molecule()
    far = Geometry(list(w.symbols), w.coords + np.array([15.0, 0.0, 0.0]))
    waters = [w, far]
    omega = np.linspace(100, 5000, 200)

    def run(executor):
        pipe = QFRamanPipeline(waters=waters, dedupe_rigid=False,
                               executor=executor, max_workers=2)
        return pipe.run(omega_cm1=omega, sigma_cm1=30.0, solver="dense")

    return run


def test_pipeline_process_backend_identical(serial_pipeline_run):
    ser = serial_pipeline_run("serial")
    par = serial_pipeline_run("process")
    assert par.unique_pieces == ser.unique_pieces == 2
    for a, b in zip(par.responses, ser.responses):
        assert np.allclose(a.hessian, b.hessian, atol=ATOL)
        assert np.allclose(a.dalpha_dr, b.dalpha_dr, atol=ATOL)
    assert np.allclose(par.spectrum.intensity, ser.spectrum.intensity,
                       atol=ATOL)
    assert ser.throughput is not None and ser.throughput.backend == "serial"
    assert par.throughput is not None and par.throughput.backend == "process"
    assert par.throughput.phase_wall_s.get("fragment_response", 0.0) > 0.0


@pytest.mark.slow
def test_pipeline_dipeptide_backends_identical():
    """Dipeptide workload (fragments + caps + dimers): process backend
    reproduces the serial responses exactly."""
    from repro.geometry import build_polypeptide

    geom, residues = build_polypeptide(["GLY", "GLY"])
    omega = np.linspace(100, 5000, 200)

    def run(executor):
        pipe = QFRamanPipeline(protein=geom, residues=residues,
                               executor=executor, max_workers=2)
        return pipe.run(omega_cm1=omega, sigma_cm1=20.0, solver="dense")

    ser = run("serial")
    par = run("process")
    for a, b in zip(par.responses, ser.responses):
        assert np.allclose(a.hessian, b.hessian, atol=ATOL)
        assert np.allclose(a.dalpha_dr, b.dalpha_dr, atol=ATOL)
    assert np.allclose(par.spectrum.intensity, ser.spectrum.intensity,
                       atol=ATOL)


# -- BLAS thread cap in pool workers ---------------------------------------

@pytest.mark.parametrize("cls", [ProcessExecutor, DisplacementExecutor])
def test_pool_workers_cap_blas_threads(cls):
    """Every loaded OpenBLAS in a worker runs cores // max_workers
    threads, also after a pool restart; the parent keeps its own."""
    parent = blas_thread_counts()
    if not parent:
        pytest.skip("no OpenBLAS with scipy_openblas thread symbols loaded")
    assert set(parent) <= {get for _set, get in OPENBLAS_THREAD_SYMBOLS}
    expected = max(1, len(os.sched_getaffinity(0)) // 2)
    with cls(max_workers=2) as ex:
        for _ in range(2):
            counts = ex._pool.submit(blas_thread_counts).result()
            assert counts == {name: expected for name in parent}
            ex.restart_pool()
    assert blas_thread_counts() == parent
