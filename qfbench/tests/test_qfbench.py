"""Tests of the benchmark itself: its checks catch corrupted results,
its generators are seeded, its ledger times what it claims.

Run from the repository root::

    PYTHONPATH=src python -m pytest qfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from qfbench import checks, generators, ledger, metrics  # noqa: E402
from qfbench.workloads import (  # noqa: E402
    WORKLOADS,
    PeptideDF,
    WaterboxSpectrum,
    WaterRaman,
    spectrum_from_reference,
)

SMALL_BOX = 27
CORRUPTIONS = ("flip_sign", "drop_fragment", "perturb_hessian")


@pytest.fixture(scope="module")
def reference():
    from repro.dfpt import fragment_response
    from repro.geometry import water_molecule

    return fragment_response(water_molecule())


def corrupt_pieces(monkeypatch, kind: str) -> None:
    """Make decompose_system return a corrupted piece list."""
    from repro.fragment import fragmenter

    original = fragmenter.decompose_system

    def corrupted(*args, **kwargs):
        dec = original(*args, **kwargs)
        if kind == "flip_sign":
            victim = next(p for p in dec.pieces if p.kind == "gc_mono")
            victim.sign = -victim.sign
        elif kind == "drop_fragment":
            dec.pieces.remove(next(p for p in dec.pieces
                                   if p.kind == "gc_dimer"))
        return dec

    monkeypatch.setattr(fragmenter, "decompose_system", corrupted)


def perturb(outcome) -> None:
    """A symmetric perturbation of one off-diagonal Hessian pair."""
    h = outcome.assembled.hessian
    eps = 1e-2 * float(np.abs(h).max())
    h[0, 4] += eps
    h[4, 0] += eps
    if outcome.h_mw is not None:
        h_mw = outcome.h_mw.tolil()
        w = eps / np.sqrt(outcome.masses[0] * outcome.masses[1])
        h_mw[0, 4] += w
        h_mw[4, 0] += w
        outcome.h_mw = h_mw.tocsr()


def synthetic_outcome(monkeypatch, inputs, corruption, solver):
    if corruption in ("flip_sign", "drop_fragment"):
        corrupt_pieces(monkeypatch, corruption)
    outcome = spectrum_from_reference(inputs, solver=solver)
    monkeypatch.undo()
    if corruption == "perturb_hessian":
        perturb(outcome)
    return outcome


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("corruption", (None,) + CORRUPTIONS)
def test_waterbox_check(monkeypatch, reference, corruption):
    workload = WaterboxSpectrum()
    inputs = generators.waterbox_inputs(SMALL_BOX, 5, reference)
    outcome = synthetic_outcome(monkeypatch, inputs, corruption, "lanczos")
    fails = workload.check(inputs, outcome)
    if corruption is None:
        assert fails == []
    else:
        # each corruption breaks the directly built reference
        assert any("reference" in f for f in fails), fails


@pytest.mark.parametrize("corruption", (None,) + CORRUPTIONS)
def test_water_raman_checks(monkeypatch, reference, corruption):
    """The water_raman checks other than the golden comparison, on a
    two-water box whose pieces come from the reference monomer."""
    box = generators.waterbox_inputs(2, 4, reference)
    outcome = synthetic_outcome(monkeypatch, box, corruption, "dense")
    fails = checks.assembled_failures(outcome) + checks.water_failures(
        outcome, checks.water_reference_energy(), n_molecules=2,
        n_pairs=len(checks.water_pairs(box["waters"])))
    if corruption is None:
        assert fails == []
    elif corruption == "perturb_hessian":
        assert any("sum rule" in f for f in fails), fails
    else:
        assert any(f.startswith("energy") for f in fails), fails


@pytest.fixture(scope="module")
def df_water():
    from repro.dfpt import fragment_response
    from repro.geometry import water_molecule

    return fragment_response(water_molecule(), eri_mode="df")


@pytest.mark.parametrize("corruption", (None,) + CORRUPTIONS)
def test_single_fragment_check(df_water, corruption):
    """The peptide_df checks on a one-piece DF system."""
    from repro.fragment import assemble_response, decompose_system
    from repro.spectra import raman_spectrum_dense

    from qfbench.workloads import Outcome

    geom = df_water.geometry
    dec = decompose_system(waters=[geom])
    pieces, responses = dec.pieces, [df_water]
    if corruption == "flip_sign":
        pieces[0].sign = -1.0
    elif corruption == "drop_fragment":
        pieces, responses = [], []
    assembled = assemble_response(pieces, responses, dec.natoms_total)
    outcome = Outcome(
        spectrum=raman_spectrum_dense(
            df_water.hessian, df_water.dalpha_dr, geom.masses,
            generators.OMEGA_CM1, generators.SIGMA_CM1),
        assembled=assembled, pieces=pieces, natoms=dec.natoms_total,
        masses=geom.masses, t_done=0.0)
    if corruption == "perturb_hessian":
        perturb(outcome)
    fails = PeptideDF().check({"seed": 0, "protein": geom}, outcome)
    if corruption is None:
        assert fails == []
    else:
        assert fails, corruption


def test_golden_check_reads_committed_spectrum():
    path = ROOT / "tests" / "data" / "golden" / "waterbox2.npz"
    from repro.spectra.raman import RamanSpectrum

    with np.load(path) as ref:
        good = RamanSpectrum(ref["omega_cm1"], ref["intensity"].copy(),
                             ref["frequencies_cm1"], ref["activities"])
    assert checks.golden_failures(good, path) == []
    drifted = RamanSpectrum(good.omega_cm1, good.intensity * 1.001,
                            good.frequencies_cm1, good.activities)
    assert checks.golden_failures(drifted, path)
    # the looser comparison of a rigidly moved, recomputed golden box
    assert checks.moved_golden_failures(good, path) == []
    assert checks.moved_golden_failures(drifted, path) == []
    # finite-difference noise shifts the modes by a few 0.01 cm^-1; on
    # the steep O-H stretch flank that moves the broadened intensity by
    # more than 1e-3 of the peak, and the check must still pass
    from repro.spectra.raman import gaussian_lineshape

    shifted = good.frequencies_cm1 + 0.06
    noisy = RamanSpectrum(good.omega_cm1, good.activities @ gaussian_lineshape(
        good.omega_cm1[None, :], shifted[:, None], generators.SIGMA_CM1),
        shifted, good.activities)
    assert np.abs(noisy.intensity - good.intensity).max() > (
        checks.MOVED_GOLDEN_RTOL * good.intensity.max())
    assert checks.moved_golden_failures(noisy, path) == []
    for bad in (
        RamanSpectrum(good.omega_cm1, good.intensity * 1.01,
                      good.frequencies_cm1, good.activities),
        RamanSpectrum(good.omega_cm1, good.intensity,
                      good.frequencies_cm1 + 1.0, good.activities),
        # modes moved within the frequency tolerance, intensity not
        RamanSpectrum(good.omega_cm1, good.intensity,
                      good.frequencies_cm1 + 0.3, good.activities),
    ):
        assert checks.moved_golden_failures(bad, path)


def test_band_and_spectrum_checks_fail_on_bad_spectra():
    from repro.spectra.raman import RamanSpectrum, gaussian_lineshape

    omega = generators.OMEGA_CM1
    bend, stretch = 2040.0, 4495.0
    both = gaussian_lineshape(omega, bend, 20.0) + \
        gaussian_lineshape(omega, stretch, 20.0)
    assert checks.band_failures(RamanSpectrum(omega, both)) == []
    only_bend = gaussian_lineshape(omega, bend, 20.0)
    assert checks.band_failures(RamanSpectrum(omega, only_bend))
    assert checks.spectrum_failures(RamanSpectrum(omega, both)) == []
    assert checks.spectrum_failures(RamanSpectrum(omega, -both))
    assert checks.spectrum_failures(RamanSpectrum(omega, both * np.nan))


def test_lanczos_vs_dense_detects_mismatch(reference):
    small = generators.waterbox_inputs(8, 0, reference)
    lanczos = spectrum_from_reference(small).spectrum
    dense = spectrum_from_reference(small, solver="dense").spectrum
    assert checks.lanczos_vs_dense_failures(lanczos, dense) == []
    lanczos.intensity = lanczos.intensity * 1.01
    assert checks.lanczos_vs_dense_failures(lanczos, dense)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _coords(inputs: dict) -> np.ndarray:
    if "protein" in inputs:
        return inputs["protein"].coords
    return np.concatenate([w.coords for w in inputs["waters"]])


@pytest.mark.parametrize("make", (
    lambda seed: WaterRaman().setup(seed),
    lambda seed: PeptideDF().setup(seed),
), ids=("water_raman", "peptide_df"))
def test_generators_are_seeded(make):
    a, b, c = make(1), make(1), make(2)
    np.testing.assert_array_equal(_coords(a), _coords(b))
    assert not np.allclose(_coords(a), _coords(c))


def test_water_raman_seeds_move_the_golden_box_rigidly():
    from repro.geometry import water_box

    def distances(waters):
        xyz = np.concatenate([w.coords for w in waters])
        return np.linalg.norm(xyz[:, None] - xyz[None], axis=-1)

    golden = water_box(2, seed=generators.GOLDEN_BOX_SEED)
    assert _coords({"waters": WaterRaman().setup(3)["waters"]}).tolist() \
        == _coords({"waters": golden}).tolist()
    moved = WaterRaman().setup(7)["waters"]
    np.testing.assert_allclose(distances(moved), distances(golden),
                               atol=1e-12)


def test_waterbox_generator_is_seeded(reference):
    a, b, c = (generators.waterbox_inputs(64, s, reference)
               for s in (1, 1, 2))
    np.testing.assert_array_equal(_coords(a), _coords(b))
    assert a["couplings"].keys() == b["couplings"].keys()
    for key, block in a["couplings"].items():
        np.testing.assert_array_equal(block, b["couplings"][key])
    assert not np.allclose(_coords(a), _coords(c))


def test_coupling_block_obeys_sum_rule():
    block = generators.coupling_block(np.zeros(3), np.array([1.0, 2, 3]),
                                      0.02)
    np.testing.assert_allclose(block, block.T)
    np.testing.assert_allclose(block @ np.tile(np.eye(3), (6, 1)), 0.0,
                               atol=1e-15)


# ---------------------------------------------------------------------------
# ledger and benchmark definition
# ---------------------------------------------------------------------------

def test_ledger_reports_self_time_and_restores():
    from repro.geometry import water_molecule
    from repro.integrals.engine import IntegralEngine
    from repro.obs.counters import counters
    from repro.scf import RHF

    before = IntegralEngine.__dict__["eri"]
    undo = ledger.install()
    try:
        snap = counters().snapshot()
        RHF(water_molecule()).run()
        delta = counters().delta_since(snap)
    finally:
        ledger.uninstall(undo)
    assert IntegralEngine.__dict__["eri"] is before
    assert ledger.calls(delta, "scf.cold") == 1
    assert ledger.calls(delta, "integrals.eri") == 1
    assert ledger.calls(delta, "integrals.hermite_coulomb") > 0
    # the SCF's self time excludes the integrals it called
    total = sum(ledger.self_seconds(delta, k) for k in (
        "scf.cold", "integrals.eri", "integrals.one_electron",
        "integrals.hermite_coulomb"))
    assert ledger.self_seconds(delta, "scf.cold") < total


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [
        "waterbox_spectrum", "water_raman", "peptide_df"]
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    for section, defs in (("end_to_end", metrics.END_TO_END),
                          ("per_layer", metrics.PER_LAYER)):
        got = [(m["name"], m["unit"], m["better"]) for m in spec[section]]
        assert got == [(m.name, m.unit, m.better) for m in defs]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "qfbench", tmp_path / "qfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "qfbench/run.py", "--workload", "water_raman",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_stops_the_resource_tracker_shared_memory_starts():
    # the shared-memory transport starts multiprocessing's resource
    # tracker; the benchmark must have stopped and reaped it on exit
    code = "\n".join((
        "import os",
        "from multiprocessing import resource_tracker, shared_memory",
        "from qfbench.run import stop_resource_tracker",
        "shm = shared_memory.SharedMemory(create=True, size=8)",
        "shm.close(); shm.unlink()",
        "pid = resource_tracker._resource_tracker._pid",
        "assert pid is not None",
        "stop_resource_tracker()",
        "try:",
        "    os.kill(pid, 0)",
        "except ProcessLookupError:",
        "    print('stopped')",
    ))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "stopped"
