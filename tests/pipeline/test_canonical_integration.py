"""Integration of the response store with its callers.

The store has one lookup site and one write site (the resilient
executor), one pipeline option (``run_store=``), and one CLI flag
(``--run-store``). Each seam has a contract worth pinning: a bit-equal
target is served before any rotation (resume stays bit-identical), a
rigid copy is served through one rotation, and a store handed to a
pipeline that cannot use it is an error, not a silent no-op.
"""

import numpy as np
import pytest

from repro.dfpt.hessian import FragmentResponse
from repro.geometry.atoms import Geometry
from repro.geometry.water import random_rotation
from repro.pipeline.cache import RunStore
from repro.pipeline.executor import FragmentTask


def _water(i: int = 0) -> Geometry:
    return Geometry(["O", "H", "H"],
                    np.array([[0.0, 0.0, 0.0],
                              [1.8 + 0.01 * i, 0.0, 0.0],
                              [-0.45, 1.75, 0.0]]))


def _rotated(g: Geometry, seed: int = 3) -> Geometry:
    rng = np.random.default_rng(seed)
    return Geometry(list(g.symbols),
                    g.coords @ random_rotation(rng).T
                    + rng.uniform(-4.0, 4.0, size=3))


def _response(g: Geometry, seed: int = 0) -> FragmentResponse:
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((3 * g.natoms,) * 2)
    return FragmentResponse(
        geometry=g, energy=-74.9, hessian=0.5 * (h + h.T),
        dalpha_dr=rng.standard_normal((3 * g.natoms, 3, 3)),
        alpha=rng.standard_normal((3, 3)),
        gradient=rng.standard_normal((g.natoms, 3)),
        dmu_dr=rng.standard_normal((3 * g.natoms, 3)),
    )


def test_rotated_copy_hits_with_same_spectrum(tmp_path):
    store = RunStore(tmp_path)
    g = _water()
    store.store(FragmentTask(index=0, label="w", geometry=g), _response(g))
    copy = _rotated(g)
    got = store.load(FragmentTask(index=1, label="w'", geometry=copy))
    assert got is not None
    assert store.hits == 1 and store.rotations == 1
    assert got.geometry is copy
    # sanity: the rotated Hessian has the same spectrum
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(got.hessian)),
        np.sort(np.linalg.eigvalsh(_response(g).hessian)),
        atol=1.0e-10,
    )


def test_run_store_canonical_fallback_and_exact_first(tmp_path):
    store = RunStore(tmp_path)
    g = _water()
    task = FragmentTask(index=0, label="w0", geometry=g)
    resp = _response(g)
    store.store(task, resp)

    # a rotated copy shares the key — this is what a re-oriented
    # resume looks like — and is served through one rotation
    moved = FragmentTask(index=1, label="w0'", geometry=_rotated(g))
    assert store.key_for(moved) == store.key_for(task)
    assert store.load(moved) is not None
    assert store.rotations == 1

    # the writer's own geometry gets the stored arrays untouched
    exact = store.load(task)
    assert exact is not None
    assert store.rotations == 1
    np.testing.assert_array_equal(exact.hessian, resp.hessian)
    np.testing.assert_array_equal(exact.dalpha_dr, resp.dalpha_dr)
    assert len(store) == 1


def test_run_store_off_by_default(tmp_path, monkeypatch):
    """No store unless one is passed: the pipeline runs the plain
    backend, and nothing is persisted anywhere."""
    from repro.pipeline import QFRamanPipeline

    monkeypatch.chdir(tmp_path)
    result = QFRamanPipeline(waters=[_water()], compute_raman=False).run()
    assert result.canonical is None
    assert result.throughput.resilience is None
    assert result.unique_pieces == 1
    assert not list(tmp_path.rglob("*.npz"))


def test_pipeline_store_resolution(tmp_path):
    from repro.pipeline import QFRamanPipeline
    from repro.pipeline.executor import SerialExecutor
    from repro.pipeline.resilience import ResilientExecutor

    waters = [_water()]
    assert QFRamanPipeline(waters=waters).run_store is None
    pipe = QFRamanPipeline(waters=waters, run_store=tmp_path / "a")
    assert isinstance(pipe.run_store, RunStore)

    # a ready instance cannot take the pipeline's store: refuse it
    # instead of running without the store the caller asked for
    with pytest.raises(ValueError, match="run_store.*serial"):
        QFRamanPipeline(waters=waters, executor=SerialExecutor(),
                        run_store=tmp_path / "b")

    # ...unless it is a resilient executor that already has one
    with ResilientExecutor(base="serial", store=tmp_path / "c") as ex:
        pipe = QFRamanPipeline(waters=waters, executor=ex)
        assert pipe.run_store is ex.store
        pipe = QFRamanPipeline(waters=waters, executor=ex,
                               run_store=tmp_path / "c")
        assert pipe.run_store is ex.store


def test_cli_flags_parse_and_forward(tmp_path):
    import argparse

    from repro.cli import _apply_resilience, main

    args = argparse.Namespace(inject_faults=None, retries=None,
                              timeout_s=None, failure_policy=None,
                              run_store=str(tmp_path))
    assert _apply_resilience(args)["run_store"] == str(tmp_path)
    # the store options are --run-store alone
    for gone in (["--canonical-cache", str(tmp_path)],
                 ["--canonical", "rigid"]):
        with pytest.raises(SystemExit):
            main(["water-raman", "--n", "1", *gone])
