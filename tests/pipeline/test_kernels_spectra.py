"""End-to-end kernel-mode invariance: spectra are *bit-identical*.

docs/performance.md promises that the ``scalar`` and ``batched``
integral kernel modes change dispatch, never arithmetic. The golden
fixture systems make that checkable end to end: the full pipeline —
decomposition, SCF, DFPT, assembly, broadening — must produce byte-for-
byte equal arrays under both modes, and each must still match the
committed golden files within the standard tolerances.

The pipeline builds its engines with the default mode, so the serial
golden runs select a mode by patching that default in this process.
"""

import numpy as np
import pytest

import repro.integrals.engine as engine_mod
from repro.obs.counters import counters
from tests.pipeline.test_golden_spectra import assert_spectrum_matches


def _spectrum(golden, name, mode, monkeypatch):
    resolve = engine_mod.kernels_mode
    reg = counters()
    before = reg.get(f"kernels.engines_{mode}")
    with monkeypatch.context() as m:
        m.setattr(engine_mod, "kernels_mode",
                  lambda override=None: resolve(override or mode))
        spectrum = golden.compute(name)
    # the patched default is what the pipeline's engines resolved
    assert reg.get(f"kernels.engines_{mode}") > before
    return spectrum


def test_water1_spectrum_bit_identical_across_kernel_modes(
        golden, monkeypatch):
    monkeypatch.setenv("QF_SANITIZE", "1")   # full contract checking on
    scalar = _spectrum(golden, "water1", "scalar", monkeypatch)
    batched = _spectrum(golden, "water1", "batched", monkeypatch)
    assert set(scalar) == set(batched)
    for key in scalar:
        np.testing.assert_array_equal(
            scalar[key], batched[key],
            err_msg=f"{key} differs between kernel modes",
        )
    # and both still reproduce the committed golden
    with np.load(golden.golden_path("water1")) as ref:
        assert_spectrum_matches(batched, ref)


@pytest.mark.slow
def test_waterbox2_spectrum_bit_identical_across_kernel_modes(
        golden, monkeypatch):
    monkeypatch.setenv("QF_SANITIZE", "1")
    scalar = _spectrum(golden, "waterbox2", "scalar", monkeypatch)
    batched = _spectrum(golden, "waterbox2", "batched", monkeypatch)
    for key in scalar:
        np.testing.assert_array_equal(
            scalar[key], batched[key],
            err_msg=f"{key} differs between kernel modes",
        )
    with np.load(golden.golden_path("waterbox2")) as ref:
        assert_spectrum_matches(batched, ref)


def test_batched_fragment_under_sanitizer(monkeypatch):
    """Tier-1 smoke: one tiny fragment end to end with the batched
    kernels and the runtime numerical sanitizer both on."""
    from repro.geometry import water_molecule
    from repro.pipeline.executor import FragmentTask, make_executor

    monkeypatch.setenv("QF_SANITIZE", "1")
    task = FragmentTask(index=0, label="smoke", geometry=water_molecule(),
                        compute_raman=True, eri_mode="exact")
    with make_executor("serial") as ex:
        responses, report = ex.run([task])
    resp = responses[0]
    assert report.n_tasks == 1
    assert np.isfinite(resp.hessian).all()
    assert np.isfinite(resp.dalpha_dr).all()
