"""Degenerate-geometry regressions for the canonical fragment cache.

The classic failure mode of inertia-tensor canonicalization is
``np.linalg.eigh`` handing back arbitrary eigenvector signs (always)
and arbitrary degenerate-subspace bases (for linear molecules and
symmetric tops) — keys then flake across platforms, BLAS builds, or
even repeated calls. The atom-anchored construction never computes an
eigenbasis, and these tests pin that promise on exactly the geometries
that break the eigh approach:

* linear molecules (the whole inertia spectrum is degenerate),
* symmetric tops (water's C2v, a CH4-like Td cage),
* *near*-degenerate inertia tensors (a slightly squashed tetrahedron),
* mirror-image pairs (improper operations must not be absorbed).
"""

import numpy as np

from repro.dfpt.hessian import FragmentResponse
from repro.geometry.atoms import Geometry
from repro.geometry.water import random_rotation, water_molecule
from repro.pipeline.cache import RunStore
from repro.pipeline.canonical import (
    canonicalize,
)
from repro.pipeline.executor import FragmentTask

N_TRIALS = 40


def _keys_under_rigid_motion(geometry: Geometry, trials: int = N_TRIALS,
                             seed: int = 11) -> set[str]:
    """Canonical keys of ``trials`` random rotate+translate+permute
    copies (plus the original) — a stable scheme returns exactly one."""
    rng = np.random.default_rng(seed)
    keys = {canonicalize(geometry).key}
    for _ in range(trials):
        rot = random_rotation(rng)
        shift = rng.uniform(-20.0, 20.0, size=3)
        perm = rng.permutation(geometry.natoms)
        coords = (geometry.coords @ rot.T + shift)[perm]
        copy = Geometry([geometry.symbols[i] for i in perm], coords)
        keys.add(canonicalize(copy).key)
    return keys


# -- linear molecules -----------------------------------------------------

def test_linear_co2_like_key_is_stable():
    co2 = Geometry(["C", "O", "O"],
                   np.array([[0.0, 0.0, 0.0],
                             [2.2, 0.0, 0.0],
                             [-2.2, 0.0, 0.0]]))
    frame = canonicalize(co2)
    assert frame.linear
    assert len(_keys_under_rigid_motion(co2)) == 1


def test_linear_heteronuclear_diatomic_key_is_stable():
    oh = Geometry(["O", "H"], np.array([[0.0, 0.0, 0.0],
                                        [0.0, 0.0, 1.83]]))
    assert canonicalize(oh).linear
    assert len(_keys_under_rigid_motion(oh)) == 1


def test_asymmetric_linear_chain_key_is_stable():
    # O-C-S: linear but with no mirror symmetry along the axis
    ocs = Geometry(["O", "C", "S"],
                   np.array([[-2.19, 0.0, 0.0],
                             [0.0, 0.0, 0.0],
                             [2.95, 0.0, 0.0]]))
    assert canonicalize(ocs).linear
    assert len(_keys_under_rigid_motion(ocs)) == 1


def test_near_linear_is_not_treated_as_linear():
    """A fragment bent by well more than the axis tolerance keeps a
    genuine two-axis frame — and a stable key."""
    bent = Geometry(["C", "O", "O"],
                    np.array([[0.0, 1.3e-5, 0.0],
                              [2.2, 0.0, 0.0],
                              [-2.2, 0.0, 0.0]]))
    frame = canonicalize(bent)
    assert not frame.linear
    assert len(_keys_under_rigid_motion(bent)) == 1
    # and the bend is resolved: distinct from the exactly linear one
    linear = Geometry(list(bent.symbols),
                      np.array([[0.0, 0.0, 0.0],
                                [2.2, 0.0, 0.0],
                                [-2.2, 0.0, 0.0]]))
    assert canonicalize(linear).key != frame.key


# -- symmetric tops -------------------------------------------------------

def test_water_monomer_key_is_stable():
    assert len(_keys_under_rigid_motion(water_molecule())) == 1


def test_tetrahedral_cage_key_is_stable():
    """CH4-like Td symmetry: many candidate frames tie exactly; every
    tie must produce the identical encoding."""
    a = 1.2
    ch4 = Geometry(
        ["C", "H", "H", "H", "H"],
        np.array([[0.0, 0.0, 0.0],
                  [a, a, a], [a, -a, -a], [-a, a, -a], [-a, -a, a]]),
    )
    assert len(_keys_under_rigid_motion(ch4)) == 1


def test_near_degenerate_inertia_key_is_stable():
    """A tetrahedron squashed by one part in a thousand: the inertia
    eigenvalues nearly tie (the eigh failure regime), but the
    atom-anchored key neither flakes nor conflates it with the
    perfect cage."""
    a = 1.2
    perfect = np.array([[0.0, 0.0, 0.0],
                        [a, a, a], [a, -a, -a], [-a, a, -a], [-a, -a, a]])
    squashed = perfect * np.array([1.0, 1.0, 1.001])
    cage = Geometry(["C", "H", "H", "H", "H"], squashed)
    assert len(_keys_under_rigid_motion(cage)) == 1
    ref = Geometry(["C", "H", "H", "H", "H"], perfect)
    assert canonicalize(cage).key != canonicalize(ref).key


def test_single_atom_key_is_stable():
    atom = Geometry(["O"], np.array([[3.0, -1.0, 0.5]]))
    assert len(_keys_under_rigid_motion(atom, trials=10)) == 1


# -- chirality ------------------------------------------------------------

def test_mirror_images_get_distinct_stable_keys():
    """Enantiomers are *not* related by any proper rotation, and the
    stored tensors could not be reflected anyway: each hand keeps its
    own stable key."""
    left = Geometry(
        ["C", "H", "O", "N"],
        np.array([[0.0, 0.0, 0.0], [1.9, 0.0, 0.0],
                  [0.0, 2.0, 0.0], [0.0, 0.0, 2.1]]),
    )
    right = Geometry(list(left.symbols),
                     left.coords * np.array([1.0, 1.0, -1.0]))
    assert len(_keys_under_rigid_motion(left)) == 1
    assert len(_keys_under_rigid_motion(right)) == 1
    assert canonicalize(left).key != canonicalize(right).key


# -- determinism ----------------------------------------------------------

def test_repeated_canonicalization_is_bitwise_deterministic():
    geom = water_molecule()
    a = canonicalize(geom)
    for _ in range(10):
        b = canonicalize(geom)
        assert b.key == a.key
        np.testing.assert_array_equal(b.coords, a.coords)
        np.testing.assert_array_equal(b.perm, a.perm)
        np.testing.assert_array_equal(b.rotation, a.rotation)


# -- linear round trip (axially symmetric response) -----------------------

def _axially_symmetric_response(geometry: Geometry,
                                axis: np.ndarray) -> FragmentResponse:
    """A synthetic response with the full C-infinity-v symmetry of a
    physically linear system: every tensor is built from the axis
    projector and the transverse projector only, so it is invariant
    under any rotation about the molecular axis."""
    e = axis / np.linalg.norm(axis)
    par = np.outer(e, e)
    perp = np.eye(3) - par
    n = geometry.natoms
    rng = np.random.default_rng(5)
    blocks = rng.standard_normal((n, n, 2))
    hessian = np.zeros((3 * n, 3 * n))
    for i in range(n):
        for j in range(n):
            c = 0.5 * (blocks[i, j] + blocks[j, i])
            hessian[3 * i: 3 * i + 3, 3 * j: 3 * j + 3] = \
                c[0] * par + c[1] * perp
    coef = rng.standard_normal((n, 2))
    dalpha = np.zeros((3 * n, 3, 3))
    dmu = np.zeros((3 * n, 3))
    for i in range(n):
        for x in range(3):
            dalpha[3 * i + x] = e[x] * (coef[i, 0] * par
                                        + coef[i, 1] * perp)
            dmu[3 * i + x] = coef[i, 0] * e[x] * e
    grad = rng.standard_normal(n)[:, None] * e
    return FragmentResponse(
        geometry=geometry, energy=-1.5, hessian=hessian,
        dalpha_dr=dalpha, alpha=2.0 * par + 0.7 * perp,
        gradient=grad, dmu_dr=dmu,
    )


def test_linear_round_trip_with_physical_symmetry(tmp_path):
    """For a physically linear response (axially symmetric tensors)
    the rigid store round-trips a rotated copy to 1e-10 even though
    the azimuthal orientation is not encoded in the geometry."""
    co2 = Geometry(["C", "O", "O"],
                   np.array([[0.0, 0.0, 0.0],
                             [2.2, 0.0, 0.0],
                             [-2.2, 0.0, 0.0]]))
    resp = _axially_symmetric_response(co2, np.array([1.0, 0.0, 0.0]))
    store = RunStore(tmp_path)
    store.store(FragmentTask(0, "co2", co2), resp)

    rng = np.random.default_rng(23)
    rot = random_rotation(rng)
    shift = rng.uniform(-5.0, 5.0, size=3)
    perm = np.array([1, 0, 2])
    coords = (co2.coords @ rot.T + shift)[perm]
    copy = Geometry([co2.symbols[i] for i in perm], coords)
    got = store.load(FragmentTask(1, "copy", copy))
    assert got is not None

    from repro.pipeline.canonical import permute_response
    from repro.pipeline.rigid import rotate_response

    # reference: apply the same permutation and rotation directly
    expect = rotate_response(permute_response(resp, perm), rot, copy)
    for name in ("hessian", "dalpha_dr", "gradient", "dmu_dr", "alpha"):
        np.testing.assert_allclose(
            getattr(got, name), getattr(expect, name),
            rtol=0.0, atol=1.0e-10, err_msg=name,
        )
