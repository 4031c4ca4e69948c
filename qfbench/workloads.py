"""The three benchmark workloads: seeded inputs, the timed call, the checks.

Each workload has three parts:

``setup(seed)``
    Builds the inputs from the seed alone (repeatable, untimed by the
    end-to-end clock, measured as ``setup_s``).
``run(inputs)``
    The timed call through the program's public entry points. It
    returns an :class:`Outcome` whose ``t_done`` marks the moment the
    spectrum came back; worker pools are closed and reaped after that
    mark, so their CPU is counted but not their shutdown wall.
``check(inputs, outcome)``
    Output checks; every returned string is one failure.
"""

# qf-file: raw-clock — the benchmark times the program with its own clock

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qfbench import checks
from qfbench.generators import (
    GOLDEN_BOX_SEED,
    LAMBDA_ANGSTROM,
    LANCZOS_K,
    OMEGA_CM1,
    SIGMA_CM1,
    peptide_geometry,
    water_raman_box,
    waterbox_inputs,
)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden"

WORKERS = 2


@dataclass
class Outcome:
    """What one timed call produced."""

    spectrum: object
    assembled: object
    pieces: list
    natoms: int
    masses: np.ndarray
    t_done: float
    throughput: object = None
    #: the sparse mass-weighted Hessian the Lanczos solver used
    h_mw: object = None


def _reap_pool(executor) -> None:
    """Close a fragment executor and wait for every worker to exit.

    The executors shut their pools down without waiting; joining the
    children here reaps them, so their CPU lands in RUSAGE_CHILDREN
    before the caller reads it.
    """
    executor.close()
    for proc in multiprocessing.active_children():
        proc.join()


def _pipeline_outcome(result, t_done: float) -> Outcome:
    return Outcome(
        spectrum=result.spectrum,
        assembled=result.assembled,
        pieces=result.decomposition.pieces,
        natoms=result.decomposition.natoms_total,
        masses=result.masses_amu,
        t_done=t_done,
        throughput=result.throughput,
    )


# ---------------------------------------------------------------------------
# water_raman: the exact-ERI path through the fragment-level process pool
# ---------------------------------------------------------------------------

class WaterRaman:
    name = "water_raman"
    default_seed = GOLDEN_BOX_SEED
    why = ("exact-ERI path through the fragment-level process pool and "
           "its shared-memory transport; 3 of 5 pieces resolved by rigid "
           "dedupe; two unequal tasks leave one worker idle")

    def setup(self, seed: int) -> dict:
        return {"seed": seed, "waters": water_raman_box(seed)}

    def run(self, inputs: dict) -> Outcome:
        from repro.pipeline import QFRamanPipeline
        from repro.pipeline.executor import make_executor

        executor = make_executor("process", max_workers=WORKERS)
        try:
            pipe = QFRamanPipeline(waters=inputs["waters"], executor=executor)
            result = pipe.run(omega_cm1=OMEGA_CM1, sigma_cm1=SIGMA_CM1,
                              solver="dense")
            t_done = time.perf_counter()
        finally:
            _reap_pool(executor)
        return _pipeline_outcome(result, t_done)

    def check(self, inputs: dict, outcome: Outcome) -> list[str]:
        waters = inputs["waters"]
        fails = checks.assembled_failures(outcome)
        fails += checks.water_failures(
            outcome, checks.water_reference_energy(),
            n_molecules=len(waters), n_pairs=len(checks.water_pairs(waters)))
        golden = GOLDEN_DIR / "waterbox2.npz"
        if inputs["seed"] == self.default_seed:
            return fails + checks.golden_failures(outcome.spectrum, golden)
        return fails + checks.moved_golden_failures(outcome.spectrum, golden)


# ---------------------------------------------------------------------------
# peptide_df: the density-fitting path, parallel over displacements
# ---------------------------------------------------------------------------

class PeptideDF:
    name = "peptide_df"
    default_seed = 0
    why = ("density-fitting path of every protein fragment: DF 3c/2c "
           "builds, DF derivative integrals and DF CPHF over 60 displaced "
           "coordinates on the displacement pool")

    def setup(self, seed: int) -> dict:
        protein, residues = peptide_geometry(seed)
        return {"seed": seed, "protein": protein, "residues": residues}

    def run(self, inputs: dict) -> Outcome:
        from repro.pipeline import QFRamanPipeline
        from repro.pipeline.executor import make_executor

        executor = make_executor("displacement", max_workers=WORKERS)
        try:
            pipe = QFRamanPipeline(protein=inputs["protein"],
                                   residues=inputs["residues"],
                                   eri_mode="df", executor=executor)
            result = pipe.run(omega_cm1=OMEGA_CM1, sigma_cm1=SIGMA_CM1,
                              solver="dense")
            t_done = time.perf_counter()
        finally:
            _reap_pool(executor)
        return _pipeline_outcome(result, t_done)

    def check(self, inputs: dict, outcome: Outcome) -> list[str]:
        fails = checks.assembled_failures(outcome)
        # one capped fragment: Eq. (1) must return its own energy
        fails += checks.energy_failures(
            outcome.assembled.energy,
            checks.rhf_energy(inputs["protein"], eri_mode="df"),
            n_pairs=0,
        )
        fails += checks.spectrum_failures(outcome.spectrum)
        return fails


# ---------------------------------------------------------------------------
# waterbox_spectrum: decomposition, Eq. (1) assembly and Lanczos at scale
# ---------------------------------------------------------------------------

WATERBOX_MOLECULES = 1000


def spectrum_from_reference(inputs: dict, solver: str = "lanczos") -> Outcome:
    """The pipeline's Lanczos path on responses built from one monomer.

    Monomer pieces get the reference response rotated onto the molecule;
    each dimer piece gets its two rotated monomer blocks plus the seeded
    weak coupling block. Then Eq. (1) assembly, dense and sparse, and
    the spectrum.
    """
    from repro.dfpt.hessian import FragmentResponse
    from repro.fragment import assembly, fragmenter
    from repro.pipeline import rigid
    from repro.spectra import raman

    ref = inputs["reference"]
    waters = inputs["waters"]
    dec = fragmenter.decompose_system(waters=waters,
                                      lambda_angstrom=LAMBDA_ANGSTROM)
    rotated: dict[int, object] = {}

    def monomer(i: int):
        if i not in rotated:
            rotated[i] = rigid.rotate_response(ref, inputs["rotations"][i],
                                               waters[i])
        return rotated[i]

    responses = []
    for piece in dec.pieces:
        first = int(piece.atom_map[0]) // 3
        if piece.kind != "gc_dimer":
            responses.append(monomer(first))
            continue
        second = int(piece.atom_map[3]) // 3
        ri, rj = monomer(first), monomer(second)
        hessian = inputs["couplings"][min(first, second),
                                      max(first, second)].copy()
        hessian[:9, :9] += ri.hessian
        hessian[9:, 9:] += rj.hessian
        responses.append(FragmentResponse(
            geometry=piece.geometry,
            energy=ri.energy + rj.energy,
            hessian=hessian,
            dalpha_dr=np.concatenate([ri.dalpha_dr, rj.dalpha_dr]),
            alpha=ri.alpha + rj.alpha,
            gradient=np.concatenate([ri.gradient, rj.gradient]),
        ))
    masses = np.concatenate([w.masses for w in waters])
    assembled = assembly.assemble_response(dec.pieces, responses,
                                           dec.natoms_total)
    if solver == "dense":
        spectrum = raman.raman_spectrum_dense(
            assembled.hessian, assembled.dalpha_dr, masses, OMEGA_CM1,
            SIGMA_CM1)
        h_mw = None
    else:
        h_mw = assembly.assemble_sparse_hessian(
            dec.pieces, responses, dec.natoms_total, masses_amu=masses)
        spectrum = raman.raman_spectrum_lanczos(
            h_mw, assembled.dalpha_dr, masses, OMEGA_CM1, SIGMA_CM1,
            k=LANCZOS_K, mass_weighted=True)
    return Outcome(
        spectrum=spectrum, assembled=assembled, pieces=dec.pieces,
        natoms=dec.natoms_total, masses=masses, t_done=time.perf_counter(),
        h_mw=h_mw,
    )


#: molecules in the small instance on which Lanczos is checked against
#: the dense solver (2x2x2 lattice, 72 coordinates)
SMALL_MOLECULES = 8


class WaterboxSpectrum:
    name = "waterbox_spectrum"
    default_seed = 0
    why = ("large-system path with almost no QM: neighbour search, dense "
           "and sparse Eq. (1) assembly of ~8600 pieces and the "
           "Lanczos+GAGQ solver at k=150")

    def setup(self, seed: int) -> dict:
        from repro.dfpt import fragment_response
        from repro.geometry import water_molecule

        return waterbox_inputs(WATERBOX_MOLECULES, seed,
                               fragment_response(water_molecule()))

    def run(self, inputs: dict) -> Outcome:
        return spectrum_from_reference(inputs)

    def check(self, inputs: dict, outcome: Outcome) -> list[str]:
        fails = checks.waterbox_failures(inputs, outcome)
        fails += checks.water_failures(
            outcome, inputs["reference"].energy,
            n_molecules=len(inputs["waters"]),
            n_pairs=len(inputs["couplings"]))
        # Lanczos against the dense solver on a small instance of the same
        # generator: it depends on the inputs only, so it runs once per run
        return fails + checks.memo(
            inputs, "small", lambda: self._small_instance_failures(inputs))

    @staticmethod
    def _small_instance_failures(inputs: dict) -> list[str]:
        small = waterbox_inputs(SMALL_MOLECULES, inputs["seed"],
                                inputs["reference"])
        return checks.lanczos_vs_dense_failures(
            spectrum_from_reference(small).spectrum,
            spectrum_from_reference(small, solver="dense").spectrum)


WORKLOADS = {w.name: w for w in (WaterRaman, PeptideDF, WaterboxSpectrum)}

