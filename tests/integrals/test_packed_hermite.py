"""Every caller of the packed Hermite Coulomb tensor against a reference.

``hermite_coulomb_vec(L, ...)`` returns only the entries t+u+v <= L in
packed column order, and its callers gather from that layout: the
Schwarz bounds, nuclear attraction and its derivatives, the DF
3-center/2-center derivatives and the exact ERI derivative (canonical
bra pairs with fused dA/dB variants). STO-3G stops at p shells, so a
hand-built s/p/d basis pushes the kernel to higher total orders.
"""

import numpy as np
import pytest

from repro.basis.gaussian import BasisSet, build_basis, make_shell
from repro.geometry import water_molecule
from repro.geometry.atoms import Geometry
from repro.integrals import mcmurchie as mm
from repro.integrals.engine import IntegralEngine, single_shell_blocks
from repro.scf.df import DensityFitting, auto_aux_basis

DELTA = 1.0e-5

#: (l, center index, primitive count) of the s/p/d test basis
D_SPEC = [(2, 0, 2), (1, 1, 2), (0, 2, 3), (2, 2, 1), (1, 0, 1)]
D_CENTERS = np.array([[0.0, 0.0, 0.0], [0.3, 1.1, 0.9], [-1.0, 0.2, 1.4]])
D_CHARGES = np.array([1.0, 2.0, 3.0])


def _d_basis(centers):
    rng = np.random.default_rng(7)
    shells = []
    for l, ci, k in D_SPEC:
        exps = np.sort(rng.uniform(0.2, 4.0, size=k))[::-1]
        coefs = rng.uniform(0.2, 1.0, size=k)
        shells.append(
            make_shell(l, centers[ci], exps, coefs, atom_index=ci)
        )
    return BasisSet(shells)


def _d_engine(centers=D_CENTERS):
    basis = _d_basis(centers)
    return IntegralEngine(basis, D_CHARGES, centers), basis


def _geom_engine(geom):
    basis = build_basis(geom)
    return IntegralEngine(basis, geom.numbers.astype(float), geom.coords), basis


def _p_rich_dimer():
    """Two oxygens and a nitrogen: p shells on three different centers."""
    return Geometry(
        ["O", "O", "N"],
        np.array([[0.0, 0.0, 0.0], [0.0, 0.4, 2.1], [1.2, -0.3, 1.0]]),
    )


def _scalar_diagonal(sa, sb):
    """(ab|ab) for every component pair from the scalar primitive ERI."""
    prims = [(ca * cb, a, b) for ca, a in zip(sa.coefs, sa.exps)
             for cb, b in zip(sb.coefs, sb.exps)]
    out = np.zeros((sa.nfuncs, sb.nfuncs))
    for ia, la in enumerate(sa.components):
        for ib, lb in enumerate(sb.components):
            out[ia, ib] = sum(
                c1 * c2 * mm.eri_prim(a1, la, sa.center, b1, lb, sb.center,
                                      a2, la, sa.center, b2, lb, sb.center)
                for c1, a1, b1 in prims for c2, a2, b2 in prims
            )
    return out


def test_schwarz_bounds_match_scalar_diagonal():
    eng, basis = _d_engine()
    bounds = eng.schwarz_bounds(eng.blocks)
    for blk, q in zip(eng.blocks, bounds):
        for r in range(blk.npair):
            sa = basis.shells[blk.ishell[r]]
            sb = basis.shells[blk.jshell[r]]
            diag = _scalar_diagonal(sa, sb).max()
            assert q[r] == pytest.approx(np.sqrt(diag), rel=1e-10)


def test_nuclear_matches_scalar_d_shells():
    eng, basis = _d_engine()
    v = eng.nuclear()
    for i, shi in enumerate(basis.shells):
        for j, shj in enumerate(basis.shells):
            oi, oj = basis.offsets[i], basis.offsets[j]
            ref = mm.nuclear_shell(shi, shj, D_CHARGES, D_CENTERS)
            got = v[oi: oi + shi.nfuncs, oj: oj + shj.nfuncs]
            assert np.allclose(got, ref, atol=1e-11)


@pytest.mark.parametrize("atom,axis", [(0, 1), (2, 2)])
def test_nuclear_deriv_vs_fd_d_shells(atom, axis):
    """Bra-slot plus Hellmann-Feynman terms reproduce d V / d R_atom;
    both the shell centers and the nucleus move with the atom."""
    eng, basis = _d_engine()
    dvb, dvn = eng.nuclear_deriv()
    amap = basis.function_atom_map()

    def v_at(step):
        centers = D_CENTERS.copy()
        centers[atom, axis] += step
        return _d_engine(centers)[0].nuclear()

    fd = (v_at(DELTA) - v_at(-DELTA)) / (2 * DELTA)
    sel = amap == atom
    an = dvb[axis] * sel[:, None] + dvb[axis].T * sel[None, :] + dvn[axis, atom]
    assert np.allclose(an, fd, atol=5e-8)


def _eri_deriv_fd_check(eng, basis, eri_at, atom, axis, atol=1e-8):
    deri = eng.eri_deriv()
    sel = basis.function_atom_map() == atom
    an = (
        deri[axis] * sel[:, None, None, None]
        + deri[axis].transpose(1, 0, 2, 3) * sel[None, :, None, None]
        + deri[axis].transpose(2, 3, 0, 1) * sel[None, None, :, None]
        + deri[axis].transpose(2, 3, 1, 0) * sel[None, None, None, :]
    )
    fd = (eri_at(DELTA) - eri_at(-DELTA)) / (2 * DELTA)
    assert np.allclose(an, fd, atol=atol)


@pytest.mark.parametrize("atom,axis", [(0, 2), (1, 0)])
def test_eri_deriv_vs_fd_water(atom, axis):
    w = water_molecule()
    eng, basis = _geom_engine(w)
    _eri_deriv_fd_check(
        eng, basis,
        lambda step: _geom_engine(w.displaced(atom, axis, step))[0].eri(),
        atom, axis,
    )


@pytest.mark.parametrize("atom,axis", [(1, 1), (2, 0)])
def test_eri_deriv_vs_fd_p_rich_dimer(atom, axis):
    g = _p_rich_dimer()
    eng, basis = _geom_engine(g)
    _eri_deriv_fd_check(
        eng, basis,
        lambda step: _geom_engine(g.displaced(atom, axis, step))[0].eri(),
        atom, axis,
    )


def test_eri_deriv_vs_fd_d_shells():
    atom, axis = 2, 1
    eng, basis = _d_engine()

    def eri_at(step):
        centers = D_CENTERS.copy()
        centers[atom, axis] += step
        return _d_engine(centers)[0].eri()

    _eri_deriv_fd_check(eng, basis, eri_at, atom, axis)


def test_df_derivs_vs_fd_p_rich_dimer():
    g = _p_rich_dimer()
    eng, basis = _geom_engine(g)
    aux = auto_aux_basis(g, basis)
    blocks = single_shell_blocks(aux.shells, aux.offsets)
    d3 = eng.three_center_deriv(blocks, aux.nbf)
    d2 = eng.two_center_deriv(blocks, aux.nbf)
    amap = basis.function_atom_map()
    aux_amap = aux.function_atom_map()
    atom, axis = 1, 2

    def df_at(step):
        moved = g.displaced(atom, axis, step)
        e, b = _geom_engine(moved)
        return DensityFitting(e, auto_aux_basis(moved, b))

    plus, minus = df_at(DELTA), df_at(-DELTA)
    sel = amap == atom
    sel_aux = aux_amap == atom
    fd3 = (plus.j3c - minus.j3c) / (2 * DELTA)
    an3 = (
        d3[axis] * sel[:, None, None]
        + d3[axis].transpose(1, 0, 2) * sel[None, :, None]
        + (-d3[axis] - d3[axis].transpose(1, 0, 2)) * sel_aux[None, None, :]
    )
    assert np.allclose(an3, fd3, atol=5e-8)
    fd2 = (plus.v2c - minus.v2c) / (2 * DELTA)
    an2 = d2[axis] * sel_aux[:, None] + d2[axis].T * sel_aux[None, :]
    assert np.allclose(an2, fd2, atol=5e-8)
