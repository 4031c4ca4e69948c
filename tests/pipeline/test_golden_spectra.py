"""Golden-spectrum regression tests.

Every run of the two fixture systems must reproduce the committed
reference spectra in ``tests/data/golden/`` within tight tolerances.
The goldens pin the *entire* chain — decomposition, DFPT responses,
Eq. (1) assembly, dense diagonalization, broadening — so any change
that silently shifts the physics fails here first.

Tolerances: mode frequencies to 0.05 cm^-1, activities and broadened
intensities to 1e-5 relative to the largest reference value. That is
loose enough to survive BLAS/compiler differences and tight enough to
catch a wrong sign, a dropped fragment, or a changed convention.

To regenerate after an *intentional* physics change::

    PYTHONPATH=src python tests/data/golden/regenerate.py

and commit the .npz files with an explanation of the shift.
"""

from pathlib import Path

import numpy as np
import pytest

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "data" / "golden"


def assert_spectrum_matches(got: dict, ref, *, freq_atol=0.05, rel=1e-5):
    """Compare a computed spectrum against a golden npz mapping."""
    assert set(ref.keys()) <= set(got.keys()), (
        f"missing arrays: {set(ref.keys()) - set(got.keys())}"
    )
    np.testing.assert_array_equal(
        got["omega_cm1"], ref["omega_cm1"],
        err_msg="spectral grid changed — regenerate the goldens",
    )
    np.testing.assert_allclose(
        got["frequencies_cm1"], ref["frequencies_cm1"],
        rtol=0.0, atol=freq_atol, err_msg="mode frequencies moved",
    )
    for key in ("activities", "intensity"):
        scale = float(np.abs(ref[key]).max())
        np.testing.assert_allclose(
            got[key], ref[key], rtol=0.0, atol=rel * max(scale, 1e-30),
            err_msg=f"{key} moved beyond {rel:g} of peak",
        )


def test_golden_files_committed():
    for name in ("water1", "waterbox2"):
        assert (GOLDEN_DIR / f"{name}.npz").is_file(), (
            f"golden file {name}.npz missing — run "
            f"tests/data/golden/regenerate.py"
        )


def test_water1_matches_golden(golden):
    got = golden.compute("water1")
    with np.load(golden.golden_path("water1")) as ref:
        assert_spectrum_matches(got, ref)


def test_waterbox2_matches_golden(golden, waterbox2_result):
    got = golden.spectrum_arrays(waterbox2_result)
    with np.load(golden.golden_path("waterbox2")) as ref:
        assert_spectrum_matches(got, ref)


def test_waterbox2_canonical_rigid_equivalent_to_off(golden, tmp_path):
    """The headline equivalence gate for the canonical cache: a cold
    ``rigid`` run reproduces the golden spectrum within the standard
    tolerances, and a *warm* rerun over a rigidly transformed copy of
    the whole box answers entirely from the store — 100% canonical hit
    rate, zero executed fragments, zero SCF iterations — and still
    lands on the golden spectrum (frequencies and Raman activities are
    rotation invariants)."""
    from repro.geometry.atoms import Geometry
    from repro.geometry.water import random_rotation, water_box
    from repro.obs.counters import counters, reset_counters
    from repro.pipeline import QFRamanPipeline

    store = tmp_path / "canonical"

    # cold run: no hits possible, spectrum must equal the plain one
    pipe = golden.build_pipeline("waterbox2", run_store=str(store))
    cold = pipe.run(omega_cm1=golden.OMEGA_CM1, sigma_cm1=golden.SIGMA_CM1,
                    solver="dense")
    with np.load(golden.golden_path("waterbox2")) as ref:
        assert_spectrum_matches(golden.spectrum_arrays(cold), ref)
    assert cold.canonical is not None
    assert cold.canonical["hits"] == 0
    assert cold.canonical["writes"] == cold.unique_pieces > 0

    # warm run: one proper rigid motion applied to the whole box
    rng = np.random.default_rng(17)
    rot = random_rotation(rng)
    shift = rng.uniform(-8.0, 8.0, size=3)
    moved = [
        Geometry(list(w.symbols), w.coords @ rot.T + shift, w.charge,
                 list(w.labels))
        for w in water_box(2, seed=3)
    ]
    reset_counters()
    warm = QFRamanPipeline(waters=moved, run_store=str(store)).run(
        omega_cm1=golden.OMEGA_CM1, sigma_cm1=golden.SIGMA_CM1,
        solver="dense",
    )
    assert warm.unique_pieces == 0, "warm run must not execute fragments"
    assert counters().get("scf.iterations") == 0
    assert warm.canonical is not None
    assert warm.canonical["misses"] == 0
    assert warm.canonical["hits"] > 0
    assert warm.canonical["hit_rate"] == 1.0
    assert warm.canonical["rotations"] == warm.canonical["hits"]
    with np.load(golden.golden_path("waterbox2")) as ref:
        assert_spectrum_matches(golden.spectrum_arrays(warm), ref)


def test_comparator_detects_drift(golden):
    """The tolerance gate actually bites: a 0.1% intensity drift and a
    0.2 cm^-1 frequency shift must both fail."""
    with np.load(golden.golden_path("water1")) as ref:
        base = {k: ref[k].copy() for k in ref.keys()}

    drifted = dict(base)
    drifted["intensity"] = base["intensity"] * 1.001
    with pytest.raises(AssertionError, match="intensity"):
        assert_spectrum_matches(drifted, base)

    shifted = dict(base)
    shifted["frequencies_cm1"] = base["frequencies_cm1"] + 0.2
    with pytest.raises(AssertionError, match="frequencies"):
        assert_spectrum_matches(shifted, base)
