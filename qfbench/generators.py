"""Seeded input generators and the fixed settings shared by the workloads.

Every input a workload hands the program is built here from the seed
alone: the same seed gives the same inputs, another seed other inputs.
"""

from __future__ import annotations

import numpy as np

#: the spectral grid and broadening of the committed golden spectra
#: (``tests/data/golden/regenerate.py``), used by every workload
OMEGA_CM1 = np.linspace(200.0, 4600.0, 550)
SIGMA_CM1 = 20.0
LAMBDA_ANGSTROM = 4.0
LANCZOS_K = 150

#: half-width (angstrom) of the uniform per-coordinate peptide jitter
PEPTIDE_JITTER_ANGSTROM = 0.01
#: O-O spring constant scale (hartree/bohr^2) of the synthetic dimer
#: coupling, against ~0.5 for the O-H stretch: weak by construction
COUPLING_K = 0.02


#: water_box(2, seed=3) is the committed ``waterbox2`` golden system
GOLDEN_BOX_SEED = 3


def rigid_motion(coords: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A random proper rotation about the centroid plus a shift of up to
    5 angstrom per axis; coordinates in bohr, shape (n, 3)."""
    from repro.constants import ANGSTROM_TO_BOHR
    from repro.geometry.water import random_rotation

    rot = random_rotation(rng)
    shift = rng.uniform(-5.0, 5.0, size=3) * ANGSTROM_TO_BOHR
    centroid = coords.mean(axis=0)
    return (coords - centroid) @ rot.T + centroid + shift


def water_raman_box(seed: int) -> list:
    """The golden two-water box; any other seed moves it rigidly.

    A rigid motion leaves the spectrum unchanged, so every seed is
    checked against the golden spectrum, and the work per run does not
    depend on the seed.
    """
    from repro.geometry import water_box
    from repro.geometry.atoms import Geometry

    waters = water_box(2, seed=GOLDEN_BOX_SEED)
    if seed == GOLDEN_BOX_SEED:
        return waters
    moved = rigid_motion(np.concatenate([w.coords for w in waters]),
                         np.random.default_rng(seed))
    return [Geometry(list(w.symbols), moved[3 * i: 3 * i + 3], w.charge,
                     list(w.labels)) for i, w in enumerate(waters)]


def peptide_geometry(seed: int):
    """Capped glycine under a seeded rigid motion plus a small jitter.

    Returns ``(geometry, residues)`` as :func:`build_polypeptide` does;
    the residue bookkeeping is unchanged by the motion.
    """
    from repro.constants import ANGSTROM_TO_BOHR
    from repro.geometry import build_polypeptide
    from repro.geometry.atoms import Geometry

    geom, residues = build_polypeptide(["GLY"])
    rng = np.random.default_rng(seed)
    coords = rigid_motion(geom.coords, rng)
    coords += rng.uniform(-PEPTIDE_JITTER_ANGSTROM, PEPTIDE_JITTER_ANGSTROM,
                          size=coords.shape) * ANGSTROM_TO_BOHR
    moved = Geometry(list(geom.symbols), coords, geom.charge,
                     list(geom.labels))
    return moved, residues


def coupling_block(o_i: np.ndarray, o_j: np.ndarray, k: float) -> np.ndarray:
    """A central O-O spring between two waters, as a 6-atom Hessian.

    Atom order O, H, H of molecule i then of molecule j. The block is
    symmetric and obeys the translational sum rule exactly.
    """
    u = o_j - o_i
    u = u / np.linalg.norm(u)
    kuu = k * np.outer(u, u)
    block = np.zeros((18, 18))
    block[0:3, 0:3] = kuu
    block[9:12, 9:12] = kuu
    block[0:3, 9:12] = -kuu
    block[9:12, 0:3] = -kuu
    return block


def waterbox_inputs(n_molecules: int, seed: int, reference) -> dict:
    """Water box, the orientation of each molecule and the coupling
    block of each pair within lambda, plus the reference monomer.

    ``couplings[(i, j)]`` (``i < j``) is the seeded O-O spring block of
    the dimer piece of molecules i and j; the pairs come from the
    neighbour search on the generated box, apart from the decomposition.
    """
    from repro.geometry import water_box
    from repro.geometry.neighbor import pairs_within
    from repro.pipeline.rigid import kabsch_rotation

    waters = water_box(n_molecules, seed=seed)
    rotations = [kabsch_rotation(reference.geometry.coords, w.coords)[0]
                 for w in waters]
    pairs = pairs_within([w.coords_angstrom() for w in waters],
                         LAMBDA_ANGSTROM)
    # a stream of its own, apart from the one water_box draws from
    rng = np.random.default_rng((seed, 1))
    strength = COUPLING_K * rng.uniform(0.5, 1.5, size=len(pairs))
    couplings = {
        (i, j): coupling_block(waters[i].coords[0], waters[j].coords[0], k)
        for (i, j), k in zip(pairs, strength)
    }
    return {"seed": seed, "waters": waters, "rotations": rotations,
            "couplings": couplings, "reference": reference}
