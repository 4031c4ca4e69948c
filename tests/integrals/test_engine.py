"""Vectorized engine vs the scalar reference and analytic identities."""

import numpy as np
import pytest

from repro.basis import build_basis
from repro.geometry import water_molecule
from repro.geometry.atoms import Geometry
from repro.integrals import mcmurchie as mm
from repro.integrals.engine import (
    IntegralEngine,
    boys_vec,
    components,
    e_coeffs_1d,
    hermite_combos,
    hermite_coulomb_vec,
    hermite_index,
    hermite_sum_index,
    single_shell_blocks,
)


@pytest.fixture(scope="module")
def water_engine():
    w = water_molecule()
    basis = build_basis(w)
    return w, basis, IntegralEngine(basis, w.numbers.astype(float), w.coords)


def test_components_ordering():
    assert components(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(components(3)) == 10
    for l in range(5):
        assert all(sum(c) == l for c in components(l))


def test_boys_vec_matches_scalar():
    t = np.array([0.0, 1e-14, 0.3, 2.7, 19.0, 150.0])
    f = boys_vec(4, t)
    for i, tv in enumerate(t):
        for n in range(5):
            assert f[i, n] == pytest.approx(mm.boys(n, tv), rel=1e-11)


def test_e_coeffs_match_scalar():
    rng = np.random.default_rng(2)
    a = rng.uniform(0.2, 3.0, size=6)
    b = rng.uniform(0.2, 3.0, size=6)
    qx = rng.uniform(-2.0, 2.0, size=6)
    e = e_coeffs_1d(2, 2, a, b, qx)
    for n in range(6):
        for i in range(3):
            for j in range(3):
                for t in range(i + j + 1):
                    assert e[n, i, j, t] == pytest.approx(
                        mm.hermite_e(i, j, t, qx[n], a[n], b[n]), rel=1e-11,
                        abs=1e-13,
                    )


def test_e_coeffs_zero_exponent_partner():
    """b = 0 (dummy shell): E must reduce to single-Gaussian Hermite
    coefficients without NaNs."""
    a = np.array([1.5])
    b = np.array([0.0])
    qx = np.array([0.0])
    e = e_coeffs_1d(2, 0, a, b, qx)
    assert np.all(np.isfinite(e))
    assert e[0, 0, 0, 0] == pytest.approx(1.0)
    # x^2 gaussian = (1/(2p)) Lambda_0 ... t=2 coefficient = 1/(2p)^2? check
    # against recursion: E(1,0,1) = 1/(2p)
    assert e[0, 1, 0, 1] == pytest.approx(1.0 / (2 * 1.5))


def test_hermite_coulomb_matches_scalar():
    """Every packed entry t+u+v <= L, L = 0..7, against the scalar
    recursion."""
    rng = np.random.default_rng(3)
    p = rng.uniform(0.3, 4.0, size=5)
    pq = rng.uniform(-1.5, 1.5, size=(5, 3))
    for L in range(8):
        r = hermite_coulomb_vec(L, p, pq)
        combos = hermite_combos(L, L, L, L)
        assert r.shape == (5, len(combos))
        assert len(combos) == (L + 1) * (L + 2) * (L + 3) // 6
        for n in range(5):
            for k, (t, u, v) in enumerate(combos):
                ref = mm._r_cached(
                    t, u, v, 0, p[n], pq[n, 0], pq[n, 1], pq[n, 2]
                )
                assert r[n, k] == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_hermite_index_tables_match_combos():
    for L in range(6):
        combos = hermite_combos(L, L, L, L)
        assert [hermite_index(L)[c] for c in combos] == list(range(len(combos)))
    lb, lk = 2, 3
    table = hermite_sum_index(lb, lk)
    packed = hermite_combos(lb + lk, lb + lk, lb + lk, lb + lk)
    for i, cb in enumerate(hermite_combos(lb, lb, lb, lb)):
        for j, ck in enumerate(hermite_combos(lk, lk, lk, lk)):
            assert packed[table[i, j]] == tuple(np.add(cb, ck))


def test_one_electron_vs_scalar(water_engine):
    w, basis, eng = water_engine
    nbf = basis.nbf
    s_ref = np.zeros((nbf, nbf))
    t_ref = np.zeros((nbf, nbf))
    v_ref = np.zeros((nbf, nbf))
    charges = w.numbers.astype(float)
    for i, shi in enumerate(basis.shells):
        for j, shj in enumerate(basis.shells):
            oi, oj = basis.offsets[i], basis.offsets[j]
            s_ref[oi: oi + shi.nfuncs, oj: oj + shj.nfuncs] = mm.overlap_shell(shi, shj)
            t_ref[oi: oi + shi.nfuncs, oj: oj + shj.nfuncs] = mm.kinetic_shell(shi, shj)
            v_ref[oi: oi + shi.nfuncs, oj: oj + shj.nfuncs] = mm.nuclear_shell(
                shi, shj, charges, w.coords
            )
    assert np.allclose(eng.overlap(), s_ref, atol=1e-12)
    assert np.allclose(eng.kinetic(), t_ref, atol=1e-12)
    assert np.allclose(eng.nuclear(), v_ref, atol=1e-11)


def test_nuclear_per_atom_sums_to_total(water_engine):
    _w, _basis, eng = water_engine
    per_atom = eng.nuclear(per_atom=True)
    assert per_atom.shape[0] == 3
    assert np.allclose(per_atom.sum(axis=0), eng.nuclear(), atol=1e-12)


def test_dipole_vs_scalar(water_engine):
    w, basis, eng = water_engine
    dip = eng.dipole()
    for d in range(3):
        for i, shi in enumerate(basis.shells):
            for j, shj in enumerate(basis.shells):
                oi, oj = basis.offsets[i], basis.offsets[j]
                ref = mm.dipole_shell(shi, shj, d, np.zeros(3))
                got = dip[d, oi: oi + shi.nfuncs, oj: oj + shj.nfuncs]
                assert np.allclose(got, ref, atol=1e-12)


def test_eri_vs_scalar_random_quartets(water_engine):
    _w, basis, eng = water_engine
    eri = eng.eri()
    rng = np.random.default_rng(4)
    for _ in range(10):
        i, j, k, l = rng.integers(0, basis.nshells, size=4)
        ref = mm.eri_shell(
            basis.shells[i], basis.shells[j], basis.shells[k], basis.shells[l]
        )
        oi, oj, ok, ol = (basis.offsets[x] for x in (i, j, k, l))
        got = eri[
            oi: oi + basis.shells[i].nfuncs,
            oj: oj + basis.shells[j].nfuncs,
            ok: ok + basis.shells[k].nfuncs,
            ol: ol + basis.shells[l].nfuncs,
        ]
        assert np.allclose(got, ref, atol=1e-12)


def test_eri_eightfold_symmetry(water_engine):
    _w, _basis, eng = water_engine
    eri = eng.eri()
    assert np.allclose(eri, eri.transpose(1, 0, 2, 3), atol=1e-11)
    assert np.allclose(eri, eri.transpose(0, 1, 3, 2), atol=1e-11)
    assert np.allclose(eri, eri.transpose(2, 3, 0, 1), atol=1e-11)


def test_single_shell_blocks_cover_all(water_engine):
    _w, basis, _eng = water_engine
    blocks = single_shell_blocks(basis.shells, basis.offsets)
    covered = sorted(
        int(i) for blk in blocks for i in blk.ishell
    )
    assert covered == list(range(basis.nshells))
    for blk in blocks:
        assert np.all(blk.b == 0.0)


def test_df_two_center_is_coulomb_metric(water_engine):
    """(P|Q) from dummy-paired blocks must be symmetric positive
    definite (it is a Coulomb Gram matrix)."""
    w, basis, eng = water_engine
    from repro.scf.df import auto_aux_basis

    aux = auto_aux_basis(w, basis)
    blocks = single_shell_blocks(aux.shells, aux.offsets)
    naux = aux.nbf
    v = np.zeros((naux, naux))
    for bi, bra in enumerate(blocks):
        for ket in blocks:
            vals = eng.coulomb_block(bra, ket)
            for rb in range(bra.npair):
                for rk in range(ket.npair):
                    oa, oc = bra.off_a[rb], ket.off_a[rk]
                    v[oa: oa + vals.shape[1], oc: oc + vals.shape[4]] = vals[
                        rb, :, 0, rk, :, 0
                    ]
    assert np.allclose(v, v.T, atol=1e-10)
    evals = np.linalg.eigvalsh(v)
    assert evals.min() > 0
