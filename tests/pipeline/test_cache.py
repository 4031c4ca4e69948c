import numpy as np

from repro.dfpt import fragment_response
from repro.geometry import water_molecule
from repro.pipeline.cache import RunStore
from repro.pipeline.executor import FragmentTask


def _task(geometry, **config) -> FragmentTask:
    return FragmentTask(index=0, label="w", geometry=geometry, **config)


def test_key_deterministic_and_sensitive(tmp_path):
    store = RunStore(tmp_path)
    w = water_molecule()
    k1 = store.key_for(_task(w))
    assert store.key_for(_task(w)) == k1
    assert store.key_for(_task(w.displaced(0, 0, 1e-3))) != k1
    assert store.key_for(_task(w, delta=1e-3)) != k1


def test_miss_then_hit(tmp_path, water_optimized):
    store = RunStore(tmp_path)
    task = _task(water_optimized.geometry, eri_mode="df", compute_ir=True)
    assert store.load(task) is None
    resp = fragment_response(task.geometry, eri_mode="df", compute_ir=True)
    store.store(task, resp)
    back = store.load(task)
    assert back is not None
    # the writer's own geometry: the stored arrays, untouched
    assert back.energy == resp.energy
    assert np.array_equal(back.hessian, resp.hessian)
    assert np.array_equal(back.dalpha_dr, resp.dalpha_dr)
    assert np.array_equal(back.dmu_dr, resp.dmu_dr)
    assert back.meta["run_store"]
    assert store.hits == 1 and store.misses == 1
    assert store.rotations == 0
    assert len(store) == 1


def test_pipeline_uses_cache(tmp_path):
    from repro.pipeline import QFRamanPipeline

    waters = [water_molecule()]
    omega = np.linspace(500, 5000, 50)
    p1 = QFRamanPipeline(waters=waters, run_store=tmp_path)
    r1 = p1.run(omega_cm1=omega)
    assert r1.unique_pieces == 1
    assert r1.canonical["writes"] == 1
    # a fresh pipeline over the same geometry computes nothing new
    p2 = QFRamanPipeline(waters=waters, run_store=tmp_path)
    r2 = p2.run(omega_cm1=omega)
    assert r2.unique_pieces == 0
    assert r2.canonical["hits"] == 1 and r2.canonical["writes"] == 0
    assert np.array_equal(r1.spectrum.intensity, r2.spectrum.intensity)


def test_exact_and_df_runs_sharing_a_store_do_not_mix(tmp_path):
    """The ERI mode is part of the key: a DF run over a store filled by
    an exact-ERI run recomputes instead of returning the exact-ERI
    response (whose energy differs by ~4 mEh for water/STO-3G)."""
    from repro.pipeline import QFRamanPipeline

    waters = [water_molecule()]
    exact = QFRamanPipeline(waters=waters, run_store=tmp_path,
                            eri_mode="exact", compute_raman=False).run()
    df = QFRamanPipeline(waters=waters, run_store=tmp_path,
                         eri_mode="df", compute_raman=False).run()
    assert exact.unique_pieces == 1
    assert df.unique_pieces == 1, "DF run was served the exact-ERI entry"
    assert df.canonical["hits"] == 0
    assert len(RunStore(tmp_path)) == 2
    assert abs(df.responses[0].energy - exact.responses[0].energy) > 1e-3
