"""Property-based invariance tests for the canonical fragment cache.

Three invariants carry the correctness of rigid-motion reuse — a bug
in any of them is a *silent wrong answer* (a plausible spectrum built
from mis-rotated tensors), so they are pinned with hypothesis rather
than a handful of examples:

* the canonical key is invariant under proper rotations, translations,
  and atom-index permutations of the input geometry;
* geometries that differ by more than the quantization grid get
  *distinct* keys (no accidental collisions between different shapes);
* storing a response and loading it back for a rigidly transformed
  copy reproduces the directly transformed response to 1e-10 —
  rotate-back composed with the forward canonicalization is the
  identity up to floating-point noise.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dfpt.hessian import FragmentResponse
from repro.geometry.atoms import Geometry
from repro.geometry.water import random_rotation
from repro.pipeline.cache import RunStore
from repro.pipeline.canonical import (
    CANON_DECIMALS,
    canonical_key,
    canonicalize,
    permute_response,
)
from repro.pipeline.executor import FragmentTask
from repro.pipeline.rigid import kabsch_rotation, rotate_response

# -- strategies -----------------------------------------------------------

# a few bohr of spread, quantized to 1e-3 so pairwise separations stay
# far above the 1e-6 canonical grid
_coord = st.integers(-3000, 3000).map(lambda k: k / 1000.0)
_symbols = st.lists(st.sampled_from(["H", "C", "N", "O"]),
                    min_size=2, max_size=5)
_seed = st.integers(0, 2**31)


def _geometry(symbols, flat_coords) -> Geometry:
    coords = np.array(flat_coords, dtype=float).reshape(-1, 3)
    return Geometry(list(symbols), coords)


def _well_separated(coords: np.ndarray, min_dist: float = 0.5) -> bool:
    n = len(coords)
    for i in range(n):
        d = np.linalg.norm(coords[i + 1:] - coords[i], axis=1)
        if len(d) and d.min() < min_dist:
            return False
    return True


def _off_grid(frame, margin: float = 1.0e-4) -> bool:
    """True when no canonical coordinate sits at a quantization
    knife-edge (within ``margin`` grid units of a rounding boundary),
    so the float noise of a rigid transform cannot flip a digit."""
    scaled = frame.coords * 10.0 ** CANON_DECIMALS
    frac = np.abs(scaled - np.floor(scaled) - 0.5)
    return bool(frac.min() > margin)


def _transformed(geometry: Geometry, seed: int) -> Geometry:
    """A random proper-rigid-motion + permutation copy of ``geometry``."""
    rng = np.random.default_rng(seed)
    rot = random_rotation(rng)
    shift = rng.uniform(-10.0, 10.0, size=3)
    perm = rng.permutation(geometry.natoms)
    coords = geometry.coords @ rot.T + shift
    return Geometry([geometry.symbols[i] for i in perm], coords[perm])


def _geometry_strategy():
    return _symbols.flatmap(
        lambda syms: st.tuples(
            st.just(syms),
            st.lists(_coord, min_size=3 * len(syms),
                     max_size=3 * len(syms)),
        )
    )


# -- key invariance -------------------------------------------------------

def _check_key_invariance(geom_spec, seed):
    geometry = _geometry(*geom_spec)
    assume(_well_separated(geometry.coords))
    frame = canonicalize(geometry)
    assume(_off_grid(frame))
    copy = _transformed(geometry, seed)
    assert canonicalize(copy).key == frame.key
    # and the full config-qualified key agrees too
    assert canonical_key(copy, "sto-3g", 5.0e-3) \
        == canonical_key(geometry, "sto-3g", 5.0e-3)


@settings(max_examples=60, deadline=None)
@given(geom_spec=_geometry_strategy(), seed=_seed)
def test_key_invariant_under_rigid_motion(geom_spec, seed):
    """Rotating, translating, and renumbering the atoms never changes
    the canonical key."""
    _check_key_invariance(geom_spec, seed)


@pytest.mark.slow
@settings(max_examples=500, deadline=None)
@given(geom_spec=_geometry_strategy(), seed=_seed)
def test_key_invariance_exhaustive(geom_spec, seed):
    """The same invariant, hammered with ~10x the examples — run via
    ``make test-canonical`` (the slow split), not in tier-1 CI."""
    _check_key_invariance(geom_spec, seed)


@settings(max_examples=60, deadline=None)
@given(geom_spec=_geometry_strategy(), seed=_seed,
       atom=st.integers(0, 4), scale=st.floats(1.0e-3, 1.0))
def test_distinct_geometries_get_distinct_keys(geom_spec, seed, atom, scale):
    """Moving one atom by >= 1e-3 bohr (1000x the quantization grid)
    in a direction that changes the internal geometry must change the
    key — rigid-motion reuse never conflates different shapes."""
    geometry = _geometry(*geom_spec)
    assume(_well_separated(geometry.coords))
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=3)
    direction *= scale / np.linalg.norm(direction)
    coords = geometry.coords.copy()
    coords[atom % geometry.natoms] += direction
    other = Geometry(list(geometry.symbols), coords)
    # the move must actually deform the shape (not be an accidental
    # rigid motion, possible when the untouched atoms are collinear)
    _r, _t, rmsd = kabsch_rotation(geometry.coords, other.coords)
    assume(rmsd > 1.0e-4)
    assert canonicalize(other).key != canonicalize(geometry).key


@settings(max_examples=30, deadline=None)
@given(geom_spec=_geometry_strategy())
def test_key_sensitive_to_config(geom_spec):
    geometry = _geometry(*geom_spec)
    assume(_well_separated(geometry.coords))
    base = canonical_key(geometry, "sto-3g", 5.0e-3)
    assert canonical_key(geometry, "6-31g", 5.0e-3) != base
    assert canonical_key(geometry, "sto-3g", 1.0e-3) != base
    assert canonical_key(geometry, "sto-3g", 5.0e-3,
                         compute_raman=False) != base


# -- rotate-back round trip -----------------------------------------------

def _response(geometry: Geometry, seed: int) -> FragmentResponse:
    """Synthetic but shape-correct response with arbitrary float64s."""
    rng = np.random.default_rng(seed)
    n = geometry.natoms
    h = rng.standard_normal((3 * n, 3 * n))
    return FragmentResponse(
        geometry=geometry,
        energy=float(rng.standard_normal()),
        hessian=0.5 * (h + h.T),
        dalpha_dr=rng.standard_normal((3 * n, 3, 3)),
        alpha=rng.standard_normal((3, 3)),
        gradient=rng.standard_normal((n, 3)),
        dmu_dr=rng.standard_normal((3 * n, 3)),
    )


@settings(max_examples=25, deadline=None)
@given(geom_spec=_geometry_strategy(), seed=_seed, resp_seed=_seed)
def test_store_load_round_trip_is_identity(geom_spec, seed, resp_seed):
    """store(G) then load(rigid copy of G) equals transforming the
    response directly with the Kabsch rotation, to 1e-10."""
    geometry = _geometry(*geom_spec)
    assume(_well_separated(geometry.coords))
    frame = canonicalize(geometry)
    # linear fragments restore up to a rotation about the molecular
    # axis (exact only for physically axially-symmetric responses, not
    # for arbitrary synthetic tensors) — covered separately in
    # test_canonical_degenerate.py
    assume(not frame.linear)
    assume(_off_grid(frame))
    response = _response(geometry, resp_seed)
    copy = _transformed(geometry, seed)

    with tempfile.TemporaryDirectory() as tmp:
        store = RunStore(tmp)
        store.store(FragmentTask(0, "g", geometry), response)
        got = store.load(FragmentTask(1, "copy", copy))
    assert got is not None, "rigid copy must hit"

    # reference: replay _transformed's draws to recover the applied
    # permutation, then permute the source response into the copy's
    # atom order and rotate with the best-fit (here: exact) rotation
    rng = np.random.default_rng(seed)
    random_rotation(rng)
    rng.uniform(-10.0, 10.0, size=3)
    perm = rng.permutation(geometry.natoms)

    permuted = permute_response(response, perm)
    rot, _t, rmsd = kabsch_rotation(permuted.geometry.coords, copy.coords)
    assert rmsd < 1.0e-9
    expect = rotate_response(permuted, rot, copy)
    for name in ("hessian", "dalpha_dr", "gradient", "dmu_dr", "alpha"):
        np.testing.assert_allclose(
            getattr(got, name), getattr(expect, name),
            rtol=0.0, atol=1.0e-10, err_msg=name,
        )
    assert got.energy == response.energy
    # and the returned geometry is the copy's, untouched
    np.testing.assert_array_equal(got.geometry.coords, copy.coords)
    assert list(got.geometry.symbols) == list(copy.symbols)


@settings(max_examples=25, deadline=None)
@given(geom_spec=_geometry_strategy(), resp_seed=_seed,
       perm_seed=_seed)
def test_permute_response_round_trips(geom_spec, resp_seed, perm_seed):
    """permute then inverse-permute restores every tensor bit for bit."""
    geometry = _geometry(*geom_spec)
    response = _response(geometry, resp_seed)
    perm = np.random.default_rng(perm_seed).permutation(geometry.natoms)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    back = permute_response(permute_response(response, perm), inv)
    np.testing.assert_array_equal(back.hessian, response.hessian)
    np.testing.assert_array_equal(back.dalpha_dr, response.dalpha_dr)
    np.testing.assert_array_equal(back.dmu_dr, response.dmu_dr)
    np.testing.assert_array_equal(back.gradient, response.gradient)
    assert list(back.geometry.symbols) == list(geometry.symbols)
