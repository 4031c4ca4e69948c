"""Scalar vs batched kernel dispatch must be *bit-identical*.

The batched mode (``kernels="batched"``, the default) vectorizes only
control flow — class-grouped pair-block construction and precomputed
scatter index plans — never the floating-point arithmetic itself, so
every matrix an :class:`IntegralEngine` builds must match the scalar
reference path exactly, not just to a tolerance. Hypothesis generates
random s/p/d shell corpora on random centers; the fixed geometries
additionally pin the regression where two p shells on different
centers exercise the transposed scatter image of square off-diagonal
blocks (na == nb > 1), which single-p-shell systems cannot see.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.basis.gaussian import BasisSet, build_basis, make_shell
from repro.geometry import water_box, water_molecule
from repro.integrals.batched import (
    build_pair_blocks_batched,
    kernels_mode,
)
from repro.integrals.engine import IntegralEngine, build_pair_blocks
from repro.scf.df import DensityFitting, auto_aux_basis


def _engines(basis, charges, coords, **kw):
    return (IntegralEngine(basis, charges, coords, kernels="scalar", **kw),
            IntegralEngine(basis, charges, coords, kernels="batched", **kw))


def _assert_engines_identical(scalar, batched, *, eri=True, derivs=True):
    pairs = [
        ("overlap", scalar.overlap(), batched.overlap()),
        ("kinetic", scalar.kinetic(), batched.kinetic()),
        ("nuclear", scalar.nuclear(), batched.nuclear()),
        ("dipole", scalar.dipole(), batched.dipole()),
    ]
    if eri:
        pairs.append(("eri", scalar.eri(), batched.eri()))
    if derivs:
        pairs += [
            ("overlap_deriv", scalar.overlap_deriv(),
             batched.overlap_deriv()),
            ("kinetic_deriv", scalar.kinetic_deriv(),
             batched.kinetic_deriv()),
        ]
        (vs, ws), (vb, wb) = scalar.nuclear_deriv(), batched.nuclear_deriv()
        pairs += [("nuclear_deriv", vs, vb), ("nuclear_deriv_atom", ws, wb)]
        if eri:
            pairs.append(("eri_deriv", scalar.eri_deriv(),
                          batched.eri_deriv()))
    for name, a, b in pairs:
        np.testing.assert_array_equal(
            a, b, err_msg=f"{name} differs between kernel modes"
        )


# -- fixed geometries ------------------------------------------------------

def test_water_sto3g_bit_identical():
    w = water_molecule()
    basis = build_basis(w, name="sto-3g")
    _assert_engines_identical(
        *_engines(basis, w.numbers.astype(float), w.coords)
    )


def test_two_p_centers_bit_identical():
    """Two oxygens: p shells on *different* centers, so the engine hits
    square (na == nb == 3) off-diagonal pair blocks whose transposed
    scatter image is order-sensitive — the regression geometry."""
    from repro.geometry.atoms import Geometry

    geom = Geometry(symbols=["O", "O"],
                    coords=np.array([[0.0, 0.0, 0.0], [0.0, 0.4, 2.1]]))
    basis = build_basis(geom, name="sto-3g")
    _assert_engines_identical(
        *_engines(basis, geom.numbers.astype(float), geom.coords)
    )


def test_waterbox_screened_bit_identical():
    box = water_box(2, seed=3)
    geom = box[0]
    for w in box[1:]:
        from repro.geometry.atoms import Geometry

        geom = Geometry(symbols=list(geom.symbols) + list(w.symbols),
                        coords=np.vstack([geom.coords, w.coords]))
    basis = build_basis(geom, name="sto-3g")
    _assert_engines_identical(
        *_engines(basis, geom.numbers.astype(float), geom.coords,
                  schwarz_cutoff=1e-10),
        derivs=False,
    )


def test_df_tensors_bit_identical():
    w = water_molecule()
    basis = build_basis(w, name="sto-3g")
    scalar, batched = _engines(basis, w.numbers.astype(float), w.coords)
    aux = auto_aux_basis(w, basis)
    dfs, dfb = DensityFitting(scalar, aux), DensityFitting(batched, aux)
    np.testing.assert_array_equal(dfs.j3c, dfb.j3c)
    np.testing.assert_array_equal(dfs.v2c, dfb.v2c)
    np.testing.assert_array_equal(dfs.b, dfb.b)

    naux = aux.nbf
    np.testing.assert_array_equal(
        scalar.three_center_deriv(dfs.aux_blocks, naux),
        batched.three_center_deriv(dfb.aux_blocks, naux),
    )
    np.testing.assert_array_equal(
        scalar.two_center_deriv(dfs.aux_blocks, naux),
        batched.two_center_deriv(dfb.aux_blocks, naux),
    )


# -- hypothesis corpora ----------------------------------------------------

shell_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),            # l: s/p/d
        st.integers(min_value=0, max_value=3),            # center index
        st.integers(min_value=1, max_value=3),            # n primitives
    ),
    min_size=1, max_size=6,
)


def _random_system(spec, seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2.0, 2.0, size=(4, 3))
    shells = []
    for l, ci, k in spec:
        exps = np.sort(rng.uniform(0.1, 5.0, size=k))[::-1]
        coefs = rng.uniform(0.2, 1.0, size=k)
        shells.append(make_shell(l, centers[ci], exps, coefs, atom_index=ci))
    basis = BasisSet(shells)
    charges = np.ones(4)
    return basis, charges, centers


@settings(deadline=None, max_examples=20)
@given(spec=shell_strategy, seed=st.integers(min_value=0, max_value=2**31))
def test_random_corpora_one_electron_identical(spec, seed):
    basis, charges, centers = _random_system(spec, seed)
    scalar, batched = _engines(basis, charges, centers)
    for name in ("overlap", "kinetic", "nuclear", "dipole"):
        a, b = getattr(scalar, name)(), getattr(batched, name)()
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(a, b, err_msg=name)


@settings(deadline=None, max_examples=10)
@given(spec=shell_strategy, seed=st.integers(min_value=0, max_value=2**31))
def test_random_corpora_eri_identical(spec, seed):
    basis, charges, centers = _random_system(spec, seed)
    scalar, batched = _engines(basis, charges, centers)
    np.testing.assert_array_equal(scalar.eri(), batched.eri())


@settings(deadline=None, max_examples=20)
@given(spec=shell_strategy, seed=st.integers(min_value=0, max_value=2**31))
def test_random_corpora_pair_blocks_identical(spec, seed):
    """The vectorized block builder must reproduce the loop builder's
    blocks exactly: same classes, same pair order, same packed arrays."""
    basis, _, _ = _random_system(spec, seed)
    loop = build_pair_blocks(basis.shells, basis.offsets)
    vec = build_pair_blocks_batched(basis.shells, basis.offsets)
    assert len(loop) == len(vec)
    for lb, vb in zip(loop, vec):
        assert (lb.la, lb.lb, lb.k2, lb.npair) == \
            (vb.la, vb.lb, vb.k2, vb.npair)
        for field in ("ishell", "jshell", "off_a", "off_b", "atom_a",
                      "atom_b", "a", "b", "cc", "ab_vec", "centers_a",
                      "p", "pc"):
            np.testing.assert_array_equal(
                getattr(lb, field), getattr(vb, field),
                err_msg=f"PairBlock.{field} differs for class "
                        f"({lb.la},{lb.lb})",
            )


# -- mode plumbing ---------------------------------------------------------

def test_kernels_mode_default_and_env():
    assert kernels_mode() == "batched"
    assert kernels_mode("scalar") == "scalar"     # explicit override wins
    with pytest.raises(ValueError):
        kernels_mode("typo")


def test_engine_records_gemm_accounting():
    from repro.kernels.batched import kernel_seam

    seam = kernel_seam()
    before = (seam.batches_executed, seam.flops.total("useful"))
    w = water_molecule()
    basis = build_basis(w, name="sto-3g")
    eng = IntegralEngine(basis, w.numbers.astype(float), w.coords,
                         kernels="batched")
    eng.overlap()
    assert seam.batches_executed > before[0]
    assert seam.flops.total("useful") > before[1]
