"""Vectorized McMurchie–Davidson integral engine.

The SCF/DFPT workloads need, per (displaced) fragment geometry:

* one-electron matrices S, T, V (+ per-nucleus V for gradients),
* dipole matrices (electric-field DFPT perturbation),
* either the exact ERI tensor (small systems) or density-fitting
  2-/3-center Coulomb integrals,
* first-derivative ("skeleton") versions of all of the above for
  analytic gradients.

Everything is batched over *shell-pair classes*: all shell pairs with
the same angular momenta (and contraction depth) are processed with one
set of numpy array operations, so the Python-level loop count is the
number of classes, not the number of integrals. This is the same
"pack similar work together" idea as the paper's elastic batching of
same-shape GEMMs (§V-C), applied at the integral level.

Validation: every public method is tested against the scalar reference
in :mod:`repro.integrals.mcmurchie` and against finite differences.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np
from scipy.special import gammainc, gammaln

from repro.basis.gaussian import BasisSet, Shell
from repro.integrals.batched import (
    build_pair_blocks_batched,
    kernels_mode,
    scatter_eri_deriv,
    scatter_ordered,
    scatter_pairs_2c,
    scatter_pairs_aux,
    scatter_symmetric,
)
from repro.obs.counters import counters
from repro.obs.tracer import get_tracer


# ---------------------------------------------------------------------------
# cartesian components, generic l
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def components(l: int) -> tuple[tuple[int, int, int], ...]:
    """Cartesian components of angular momentum ``l``.

    Ordering: lexicographically descending in (i, j) — reproduces the
    conventional (x, y, z) order for p and (xx, xy, xz, yy, yz, zz) for d.
    """
    out = []
    for i in range(l, -1, -1):
        for j in range(l - i, -1, -1):
            out.append((i, j, l - i - j))
    return tuple(out)


# ---------------------------------------------------------------------------
# Boys function, vectorized
# ---------------------------------------------------------------------------

def boys_vec(nmax: int, t: np.ndarray) -> np.ndarray:
    """F_n(t) for n = 0..nmax over an array of t. Shape (len(t), nmax+1).

    F_nmax is evaluated through the regularized incomplete gamma
    function; lower orders follow from stable downward recursion
    F_{n-1}(t) = (2 t F_n(t) + e^{-t}) / (2n - 1).
    """
    t = np.asarray(t, dtype=float).ravel()
    out = np.empty((t.size, nmax + 1))
    small = t < 1e-13
    ts = np.where(small, 1.0, t)  # placeholder to avoid 0-division
    n = nmax
    # F_n(t) = Γ(n+1/2) P(n+1/2, t) / (2 t^{n+1/2})
    log_pref = gammaln(n + 0.5) - (n + 0.5) * np.log(ts)
    fn = np.exp(log_pref) * gammainc(n + 0.5, ts) / 2.0
    fn = np.where(small, 1.0 / (2 * n + 1), fn)
    out[:, n] = fn
    if nmax > 0:
        emt = np.exp(-t)
        for m in range(nmax, 0, -1):
            out[:, m - 1] = (2.0 * t * out[:, m] + emt) / (2 * m - 1)
        # downward recursion is exact at t=0 too: F_{m-1}(0)=1/(2m-1)
    return out


# ---------------------------------------------------------------------------
# Hermite expansion coefficients, vectorized over an array of pairs
# ---------------------------------------------------------------------------

def e_coeffs_1d(la: int, lb: int, a: np.ndarray, b: np.ndarray,
                qx: np.ndarray) -> np.ndarray:
    """Hermite E coefficients for one cartesian direction.

    Returns shape ``(n, la+1, lb+1, la+lb+1)``; entry ``[.., i, j, t]``
    is E_t^{ij}(qx; a, b). Recursion identical to the scalar reference
    but with every step an array operation over the n pairs.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    qx = np.asarray(qx, dtype=float).ravel()
    n = a.size
    p = a + b
    q = a * b / p
    e = np.zeros((n, la + 1, lb + 1, la + lb + 1))
    e[:, 0, 0, 0] = np.exp(-q * qx * qx)
    inv2p = 1.0 / (2.0 * p)
    # raise i with j = 0.  q/a == b/p (avoids 0/0 for zero-exponent
    # dummy partners used by the density-fitting 2/3-center integrals)
    qq_a = (b / p) * qx
    for i in range(1, la + 1):
        for t in range(i + 1):
            val = -qq_a * e[:, i - 1, 0, t]
            if t > 0:
                val = val + inv2p * e[:, i - 1, 0, t - 1]
            if t + 1 <= i - 1:
                val = val + (t + 1) * e[:, i - 1, 0, t + 1]
            e[:, i, 0, t] = val
    # raise j for all i (q/b == a/p)
    qq_b = (a / p) * qx
    for j in range(1, lb + 1):
        for i in range(la + 1):
            for t in range(i + j + 1):
                val = qq_b * e[:, i, j - 1, t]
                if t > 0:
                    val = val + inv2p * e[:, i, j - 1, t - 1]
                if t + 1 <= i + j - 1:
                    val = val + (t + 1) * e[:, i, j - 1, t + 1]
                e[:, i, j, t] = val
    return e


def hermite_combos(lmax_total: int, tmax: int, umax: int, vmax: int
                   ) -> list[tuple[int, int, int]]:
    """Valid Hermite index triples (t, u, v) with per-dim and total bounds."""
    out = []
    for t in range(tmax + 1):
        for u in range(umax + 1):
            for v in range(vmax + 1):
                if t + u + v <= lmax_total:
                    out.append((t, u, v))
    return out


@lru_cache(maxsize=None)
def hermite_index(L: int) -> Mapping[tuple[int, int, int], int]:
    """Column of each (t, u, v) in the packed order of
    ``hermite_combos(L, L, L, L)`` — the layout of
    :func:`hermite_coulomb_vec`'s output."""
    return MappingProxyType(
        {c: k for k, c in enumerate(hermite_combos(L, L, L, L))}
    )


@lru_cache(maxsize=None)
def hermite_sum_index(lbra: int, lket: int) -> np.ndarray:
    """Packed R columns of every bra+ket Hermite index sum.

    Entry ``[i, j]`` is the column of ``combos_b[i] + combos_k[j]`` in
    ``hermite_coulomb_vec(lbra + lket, ...)``, where ``combos_b`` and
    ``combos_k`` are ``hermite_combos`` of ``lbra`` and ``lket``. Every
    sum has total order <= lbra + lket, so every entry is a real column.
    """
    index = hermite_index(lbra + lket)
    combos_b = hermite_combos(lbra, lbra, lbra, lbra)
    combos_k = hermite_combos(lket, lket, lket, lket)
    table = np.array([
        [index[(t + tt, u + uu, v + vv)] for (tt, uu, vv) in combos_k]
        for (t, u, v) in combos_b
    ], dtype=np.intp)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class _RPlan:
    """Recursion plan for R^m_{tuv}, t+u+v <= L, m <= L-(t+u+v).

    Rows of the work buffer are grouped by total order; rows 0..L are
    the Boys seeds R^m_{000}. Each later level ``(lo, hi, axis, src1,
    n2, coef, src2)`` fills rows ``lo:hi`` as
    ``PQ[axis] * buf[src1] + coef * buf[src2]``, the second term only
    for the first ``n2`` rows (the ones with a raised index >= 2).
    ``out_rows`` lists the m = 0 row of each packed (t, u, v) column.
    """

    nrows: int
    levels: tuple[tuple[int, int, np.ndarray, np.ndarray, int,
                        np.ndarray, np.ndarray], ...]
    out_rows: np.ndarray


@lru_cache(maxsize=None)
def _r_plan(L: int) -> _RPlan:
    combos = hermite_combos(L, L, L, L)
    row = {(0, 0, 0, m): m for m in range(L + 1)}
    nrows = L + 1
    levels = []
    for total in range(1, L + 1):
        # (axis, index, target, lowered-by-1, lowered-by-2) per combo,
        # recursing on the first nonzero index exactly like mcmurchie
        specs = []
        for (t, u, v) in combos:
            if t + u + v != total:
                continue
            axis = 0 if t > 0 else (1 if u > 0 else 2)
            step = [0, 0, 0]
            step[axis] = 1
            one = (t - step[0], u - step[1], v - step[2])
            two = (t - 2 * step[0], u - 2 * step[1], v - 2 * step[2])
            specs.append((axis, (t, u, v)[axis], (t, u, v), one, two))
        # rows with a second term first, so it updates a leading slice
        specs.sort(key=lambda s: s[1] < 2)
        lo = nrows
        axes, src1, src2, coef = [], [], [], []
        for axis, k, tuv, one, two in specs:
            for m in range(L - total + 1):
                row[tuv + (m,)] = nrows
                nrows += 1
                axes.append(axis)
                src1.append(row[one + (m + 1,)])
                if k >= 2:
                    src2.append(row[two + (m + 1,)])
                    coef.append(float(k - 1))
        levels.append((
            lo, nrows, np.array(axes, dtype=np.intp),
            np.array(src1, dtype=np.intp), len(src2),
            np.array(coef)[:, None], np.array(src2, dtype=np.intp),
        ))
    out_rows = np.array([row[c + (0,)] for c in combos], dtype=np.intp)
    return _RPlan(nrows=nrows, levels=tuple(levels), out_rows=out_rows)


def hermite_coulomb_vec(L: int, p: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """Hermite Coulomb entries R^0_{tuv} with t+u+v <= L over charge pairs.

    Parameters
    ----------
    L:
        Total Hermite order; the Boys function is evaluated to order L.
    p:
        Combined exponents, shape (n,).
    pq:
        Center separations P-Q, shape (n, 3).

    Returns the packed shape ``(n, ncombos)``: column k holds
    ``combos[k]`` of ``hermite_combos(L, L, L, L)`` (see
    :func:`hermite_index` / :func:`hermite_sum_index` for gathers).
    The recursion follows a cached per-L :class:`_RPlan` through one
    preallocated ``(rows, n)`` buffer.
    """
    p = np.asarray(p, dtype=float).ravel()
    pq = np.asarray(pq, dtype=float).reshape(-1, 3)
    n = p.size
    plan = _r_plan(L)
    t_arg = p * np.einsum("ij,ij->i", pq, pq)
    f = boys_vec(L, t_arg)  # (n, L+1)
    buf = np.empty((plan.nrows, n))
    # R^m_{000} = (-2p)^m F_m
    m2p = -2.0 * p
    acc = np.ones(n)
    for m in range(L + 1):
        buf[m] = acc * f[:, m]
        acc = acc * m2p
    xyz = pq.T
    for lo, hi, axes, src1, n2, coef, src2 in plan.levels:
        seg = buf[lo:hi]
        np.multiply(xyz[axes], buf[src1], out=seg)
        if n2:
            seg[:n2] += coef * buf[src2]
    return np.ascontiguousarray(buf[plan.out_rows].T)


# ---------------------------------------------------------------------------
# shell-pair blocks
# ---------------------------------------------------------------------------

@dataclass
class PairBlock:
    """All shell pairs of one (la, lb, Ka, Kb) class, primitive-flattened.

    Primitive arrays have length ``npair * K2`` (pair-major). E tensors
    are built on demand by :meth:`e_tensors`.
    """

    la: int
    lb: int
    k2: int
    ishell: np.ndarray          # (npair,)
    jshell: np.ndarray          # (npair,)
    off_a: np.ndarray           # (npair,) function offsets
    off_b: np.ndarray
    atom_a: np.ndarray          # (npair,) atom owning the bra-a shell
    atom_b: np.ndarray
    a: np.ndarray               # (npair*k2,) exponents
    b: np.ndarray
    cc: np.ndarray              # (npair*k2,) coefficient products
    ab_vec: np.ndarray          # (npair, 3) A - B
    centers_a: np.ndarray       # (npair, 3)
    p: np.ndarray               # (npair*k2,) a + b
    pc: np.ndarray              # (npair*k2, 3) product centers P

    @property
    def npair(self) -> int:
        return self.ishell.size

    @property
    def nprim(self) -> int:
        return self.a.size

    def e_tensors(self, da: int = 0, db: int = 0) -> list[np.ndarray]:
        """E coefficient tensors for the three dimensions, each of shape
        ``(nprim, la+da+1, lb+db+1, la+da+lb+db+1)``."""
        qx = np.repeat(self.ab_vec, self.k2, axis=0)
        return [
            e_coeffs_1d(self.la + da, self.lb + db, self.a, self.b, qx[:, d])
            for d in range(3)
        ]

    def subset(self, idx: np.ndarray) -> "PairBlock":
        """View of this block restricted to the pairs in ``idx``.

        Used by Schwarz screening to evaluate only surviving pairs.
        """
        k2 = self.k2

        def prim(arr: np.ndarray) -> np.ndarray:
            shaped = arr.reshape(self.npair, k2, *arr.shape[1:])
            return shaped[idx].reshape(idx.size * k2, *arr.shape[1:])

        return PairBlock(
            la=self.la, lb=self.lb, k2=k2,
            ishell=self.ishell[idx], jshell=self.jshell[idx],
            off_a=self.off_a[idx], off_b=self.off_b[idx],
            atom_a=self.atom_a[idx], atom_b=self.atom_b[idx],
            a=prim(self.a), b=prim(self.b), cc=prim(self.cc),
            ab_vec=self.ab_vec[idx], centers_a=self.centers_a[idx],
            p=prim(self.p), pc=prim(self.pc),
        )


def build_pair_blocks(
    shells: list[Shell],
    offsets: list[int],
    pairs: list[tuple[int, int]] | None = None,
    canonicalize: bool = True,
    screen: float = 1.0e-12,
) -> list[PairBlock]:
    """Group shell pairs into angular/contraction classes.

    ``pairs`` defaults to all i <= j pairs. With ``canonicalize`` the
    pair is swapped so la >= lb (fewer classes); derivative builders
    pass ordered pairs with ``canonicalize=False`` because the bra slot
    is meaningful there. Pairs whose largest primitive Gaussian-product
    prefactor exp(-q |AB|^2) falls below ``screen`` are dropped — for
    spatially extended fragments this prunes the quadratic pair count
    to near-linear.
    """
    if pairs is None:
        ns = len(shells)
        pairs = [(i, j) for i in range(ns) for j in range(i, ns)]
    if screen > 0.0:
        kept = []
        for (i, j) in pairs:  # qf: shell-loop — O(npair) screening prepass, not the kernel
            si, sj = shells[i], shells[j]
            d2 = float(np.sum((si.center - sj.center) ** 2))
            if d2 == 0.0:  # qf: exact-zero — same-center shell pair
                kept.append((i, j))
                continue
            amin, bmin = float(si.exps.min()), float(sj.exps.min())
            q = amin * bmin / (amin + bmin)
            if math.exp(-q * d2) >= screen:
                kept.append((i, j))
        pairs = kept
    groups: dict[tuple[int, int, int, int], list[tuple[int, int]]] = {}
    for (i, j) in pairs:  # qf: shell-loop — class grouping prepass, not the kernel
        si, sj = shells[i], shells[j]
        if canonicalize and si.l < sj.l:
            i, j = j, i
            si, sj = sj, si
        key = (si.l, sj.l, len(si.exps), len(sj.exps))
        groups.setdefault(key, []).append((i, j))
    blocks: list[PairBlock] = []
    for (la, lb, ka, kb), plist in sorted(groups.items()):
        npair = len(plist)
        k2 = ka * kb
        ish = np.array([p[0] for p in plist])
        jsh = np.array([p[1] for p in plist])
        off_a = np.array([offsets[i] for i in ish])
        off_b = np.array([offsets[j] for j in jsh])
        atom_a = np.array([shells[i].atom_index for i in ish])
        atom_b = np.array([shells[j].atom_index for j in jsh])
        a = np.empty((npair, k2))
        b = np.empty((npair, k2))
        cc = np.empty((npair, k2))
        ab_vec = np.empty((npair, 3))
        centers_a = np.empty((npair, 3))
        pc = np.empty((npair, k2, 3))
        for r, (i, j) in enumerate(plist):  # qf: shell-loop — one-time pair-block pack (cached per engine)
            si, sj = shells[i], shells[j]
            ea, eb = np.meshgrid(si.exps, sj.exps, indexing="ij")
            ca, cb = np.meshgrid(si.coefs, sj.coefs, indexing="ij")
            a[r] = ea.ravel()
            b[r] = eb.ravel()
            cc[r] = (ca * cb).ravel()
            ab_vec[r] = si.center - sj.center
            centers_a[r] = si.center
            psum = a[r] + b[r]
            pc[r] = (
                a[r][:, None] * si.center[None, :]
                + b[r][:, None] * sj.center[None, :]
            ) / psum[:, None]
        blocks.append(
            PairBlock(
                la=la, lb=lb, k2=k2,
                ishell=ish, jshell=jsh, off_a=off_a, off_b=off_b,
                atom_a=atom_a, atom_b=atom_b,
                a=a.ravel(), b=b.ravel(), cc=cc.ravel(),
                ab_vec=ab_vec, centers_a=centers_a,
                p=(a + b).ravel(), pc=pc.reshape(-1, 3),
            )
        )
    return blocks


def _e3_components(
    ex: list[np.ndarray],
    la: int,
    lb: int,
    combos: list[tuple[int, int, int]],
    sign: bool = False,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Collapse per-dimension E tensors into the product tensor.

    Returns shape ``(nprim, ncomp_a * ncomp_b, ncombos)`` where entry
    ``[.., (ca, cb), k]`` is ``Ex[ia,jb,t] Ey[..] Ez[..]`` for combo
    ``combos[k] = (t, u, v)``; multiplied by ``(-1)^{t+u+v}`` when
    ``sign`` and by ``weights`` (e.g. contraction coefficients) if given.
    """
    comps_a = components(la)
    comps_b = components(lb)
    nprim = ex[0].shape[0]
    out = np.zeros((nprim, len(comps_a) * len(comps_b), len(combos)))
    for ia, (ax, ay, az) in enumerate(comps_a):
        for ib, (bx, by, bz) in enumerate(comps_b):
            col = ia * len(comps_b) + ib
            for k, (t, u, v) in enumerate(combos):
                if t > ax + bx or u > ay + by or v > az + bz:
                    continue
                val = ex[0][:, ax, bx, t] * ex[1][:, ay, by, u] * ex[2][:, az, bz, v]
                if sign and (t + u + v) % 2 == 1:
                    val = -val
                out[:, col, k] = val
    if weights is not None:
        out *= weights[:, None, None]
    return out


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class IntegralEngine:
    """Integral driver for one basis set over one geometry.

    Parameters
    ----------
    basis:
        The orbital basis.
    charges, coords:
        Nuclear charges and positions (bohr) for nuclear attraction.
    schwarz_cutoff:
        Schwarz screening threshold for two-electron integrals. A
        (bra-pair, ket-pair) combination is skipped when the bound
        ``sqrt((ab|ab)) * sqrt((cd|cd))`` — a rigorous Cauchy–Schwarz
        upper bound on every |(ab|cd)| in the combination — falls below
        this value; skipped entries are exact zeros in the output, so
        the absolute ERI error per element is at most the cutoff.
        ``0`` disables screening (every combination evaluated).
        Counters in :attr:`screen_stats` record evaluated vs skipped
        pair combinations.
    """

    def __init__(self, basis: BasisSet, charges: np.ndarray, coords: np.ndarray,
                 schwarz_cutoff: float = 0.0, kernels: str | None = None):
        self.basis = basis
        self.charges = np.asarray(charges, dtype=float).ravel()
        self.coords = np.asarray(coords, dtype=float).reshape(-1, 3)
        self.nbf = basis.nbf
        #: "scalar" | "batched" — resolved from the argument or QF_KERNELS
        #: (docs/performance.md); both modes are bit-identical, batched
        #: replaces the per-pair python loops with packed array kernels
        self.kernels = kernels_mode(kernels)
        counters().inc(f"kernels.engines_{self.kernels}")
        self.blocks = self._build_blocks(basis.shells, basis.offsets)
        self.schwarz_cutoff = float(schwarz_cutoff)
        #: pair-combination counters: "evaluated" + "screened" = "total"
        self.screen_stats = {
            "pair_combinations_total": 0,
            "pair_combinations_evaluated": 0,
            "pair_combinations_screened": 0,
        }
        self._schwarz_self: list[np.ndarray] | None = None

    def _build_blocks(self, shells, offsets, pairs=None, canonicalize=True):
        """Pair blocks through the mode-selected builder (same output)."""
        if self.kernels == "batched":
            return build_pair_blocks_batched(
                shells, offsets, pairs, canonicalize=canonicalize
            )
        return build_pair_blocks(
            shells, offsets, pairs, canonicalize=canonicalize
        )

    # -- Schwarz screening ---------------------------------------------------

    def schwarz_bounds(self, blocks: list[PairBlock]) -> list[np.ndarray]:
        """Per-block Schwarz bound vectors ``Q_r = sqrt(max (ab|ab)_r)``.

        One entry per shell pair of each block: the maximum over the
        pair's function components of the diagonal Coulomb interaction
        — the quantity whose product bounds any cross interaction.
        """
        return [self._schwarz_block(blk) for blk in blocks]

    def _bounds_self(self) -> list[np.ndarray]:
        """Cached Schwarz bounds of the engine's own pair blocks."""
        if self._schwarz_self is None:
            self._schwarz_self = self.schwarz_bounds(self.blocks)
        return self._schwarz_self

    def _schwarz_block(self, blk: PairBlock,
                       element_budget: int = 200_000) -> np.ndarray:
        """Diagonal (ab|ab) bound vector of one pair block, vectorized.

        For every pair the k2 x k2 primitive cross products within the
        same pair are contracted — the diagonal of
        :meth:`coulomb_block` without the O(npair^2) off-diagonals.
        """
        la, lb = blk.la, blk.lb
        l_half = la + lb
        combos = hermite_combos(l_half, l_half, l_half, l_half)
        nk = len(combos)
        e3b = _e3_components(blk.e_tensors(), la, lb, combos, weights=blk.cc)
        e3k = _e3_components(
            blk.e_tensors(), la, lb, combos, sign=True, weights=blk.cc
        )
        npair, k2 = blk.npair, blk.k2
        nab = e3b.shape[1]
        e3b = e3b.reshape(npair, k2, nab, nk)
        e3k = e3k.reshape(npair, k2, nab, nk)
        p = blk.p.reshape(npair, k2)
        pc = blk.pc.reshape(npair, k2, 3)
        ltot = 2 * l_half
        sum_idx = hermite_sum_index(l_half, l_half)
        out = np.empty(npair)
        chunk = max(1, element_budget // max(1, k2 * k2 * nk))
        for start in range(0, npair, chunk):  # qf: shell-loop — chunked over the element budget; body vectorized
            stop = min(start + chunk, npair)
            ps = p[start:stop]
            pcs = pc[start:stop]
            pb = ps[:, :, None]
            pk = ps[:, None, :]
            alpha = pb * pk / (pb + pk)
            pref = 2.0 * math.pi ** 2.5 / (pb * pk * np.sqrt(pb + pk))
            pq = pcs[:, :, None, :] - pcs[:, None, :, :]
            r = hermite_coulomb_vec(ltot, alpha.ravel(), pq.reshape(-1, 3))
            rsel = r[:, sum_idx].reshape(stop - start, k2, k2, nk, nk)
            rsel *= pref[..., None, None]
            vals = np.einsum(
                "rixm,rijmn,rjyn->rxy",
                e3b[start:stop], rsel, e3k[start:stop], optimize=True,
            )
            diag = np.einsum("rxx->rx", vals)
            out[start:stop] = diag.max(axis=1)
        return np.sqrt(np.maximum(out, 0.0))

    # -- one-electron -------------------------------------------------------

    def overlap(self) -> np.ndarray:
        s = np.zeros((self.nbf, self.nbf))
        for blk in self.blocks:
            ex = blk.e_tensors()
            vals = self._overlap_block(blk, ex)
            self._scatter(s, blk, vals)
        return s

    def _overlap_block(self, blk: PairBlock, ex: list[np.ndarray]) -> np.ndarray:
        """(npair, na, nb) overlap values from E tensors."""
        comps_a = components(blk.la)
        comps_b = components(blk.lb)
        pref = (math.pi / blk.p) ** 1.5 * blk.cc
        out = np.empty((blk.npair, len(comps_a), len(comps_b)))
        for ia, (ax, ay, az) in enumerate(comps_a):
            for ib, (bx, by, bz) in enumerate(comps_b):
                prim = (
                    ex[0][:, ax, bx, 0] * ex[1][:, ay, by, 0] * ex[2][:, az, bz, 0]
                ) * pref
                out[:, ia, ib] = prim.reshape(blk.npair, blk.k2).sum(axis=1)
        self._record_class_gemm(
            blk.npair, len(comps_a) * len(comps_b), 1, blk.k2
        )
        return out

    def kinetic(self) -> np.ndarray:
        t = np.zeros((self.nbf, self.nbf))
        for blk in self.blocks:
            ex = blk.e_tensors(db=2)
            comps_a = components(blk.la)
            comps_b = components(blk.lb)
            pref = (math.pi / blk.p) ** 1.5 * blk.cc
            vals = np.empty((blk.npair, len(comps_a), len(comps_b)))

            def s00(axs, bxs):
                return (
                    ex[0][:, axs[0], bxs[0], 0]
                    * ex[1][:, axs[1], bxs[1], 0]
                    * ex[2][:, axs[2], bxs[2], 0]
                )

            for ia, ca in enumerate(comps_a):
                for ib, cb in enumerate(comps_b):
                    i, j, k = cb
                    term = blk.b * (2 * (i + j + k) + 3) * s00(ca, cb)
                    for d, inc in enumerate(((2, 0, 0), (0, 2, 0), (0, 0, 2))):
                        cb2 = (cb[0] + inc[0], cb[1] + inc[1], cb[2] + inc[2])
                        term = term - 2.0 * blk.b ** 2 * s00(ca, cb2)
                        if cb[d] >= 2:
                            cbm = (cb[0] - inc[0], cb[1] - inc[1], cb[2] - inc[2])
                            term = term - 0.5 * cb[d] * (cb[d] - 1) * s00(ca, cbm)
                    prim = term * pref
                    vals[:, ia, ib] = prim.reshape(blk.npair, blk.k2).sum(axis=1)
            self._record_class_gemm(
                blk.npair, len(comps_a) * len(comps_b), 1, blk.k2
            )
            self._scatter(t, blk, vals)
        return t

    def nuclear(self, per_atom: bool = False) -> np.ndarray:
        """Nuclear attraction V (negative). With ``per_atom``, returns
        shape (natoms, nbf, nbf): the contribution of each nucleus
        (needed for Hellmann–Feynman gradient terms)."""
        natm = self.charges.size
        v = np.zeros((natm, self.nbf, self.nbf)) if per_atom else np.zeros(
            (self.nbf, self.nbf)
        )
        for blk in self.blocks:
            ex = blk.e_tensors()
            vals = self._nuclear_block(blk, ex, per_atom)
            if per_atom:
                for c in range(natm):
                    self._scatter(v[c], blk, vals[c])
            else:
                self._scatter(v, blk, vals)
        return v

    def _nuclear_block(self, blk: PairBlock, ex: list[np.ndarray],
                       per_atom: bool):
        l_tot = blk.la + blk.lb
        combos = hermite_combos(l_tot, l_tot, l_tot, l_tot)
        e3 = _e3_components(ex, blk.la, blk.lb, combos, weights=blk.cc)
        # R over prim x nucleus
        natm = self.charges.size
        nprim = blk.nprim
        pc = blk.pc[:, None, :] - self.coords[None, :, :]
        p_rep = np.repeat(blk.p, natm)
        # packed columns are already in ``combos`` order
        rsel = hermite_coulomb_vec(l_tot, p_rep, pc.reshape(-1, 3)).reshape(
            nprim, natm, len(combos)
        )
        # prim-level value per nucleus: -(2 pi / p) * z_C * sum_k e3 * R
        pref = 2.0 * math.pi / blk.p
        contrib = np.einsum("nck,nak->nac", e3, rsel)  # (nprim, natm, ncomp)
        self._record_class_gemm(nprim, natm, e3.shape[1], len(combos))
        contrib *= pref[:, None, None]
        contrib = contrib.reshape(blk.npair, blk.k2, natm, -1).sum(axis=1)
        na = len(components(blk.la))
        nb = len(components(blk.lb))
        if per_atom:
            out = np.empty((natm, blk.npair, na, nb))
            for c in range(natm):
                out[c] = (-self.charges[c]) * contrib[:, c, :].reshape(
                    blk.npair, na, nb
                )
            return out
        total = -(contrib * self.charges[None, :, None]).sum(axis=1)
        return total.reshape(blk.npair, na, nb)

    def dipole(self, origin=(0.0, 0.0, 0.0)) -> np.ndarray:
        """Dipole moment integrals <mu| r_d - origin_d |nu>, shape (3, nbf, nbf)."""
        origin = np.asarray(origin, dtype=float).reshape(3)
        out = np.zeros((3, self.nbf, self.nbf))
        for blk in self.blocks:
            ex = blk.e_tensors()
            comps_a = components(blk.la)
            comps_b = components(blk.lb)
            pref = (math.pi / blk.p) ** 1.5 * blk.cc
            for d in range(3):
                vals = np.empty((blk.npair, len(comps_a), len(comps_b)))
                shift = blk.pc[:, d] - origin[d]
                for ia, ca in enumerate(comps_a):
                    for ib, cb in enumerate(comps_b):
                        e_parts = []
                        for dim in range(3):
                            e0 = ex[dim][:, ca[dim], cb[dim], 0]
                            if dim == d:
                                # moment: E^1 + (P_d - C_d) E^0
                                lmax = ca[dim] + cb[dim]
                                e1 = (
                                    ex[dim][:, ca[dim], cb[dim], 1]
                                    if lmax >= 1
                                    else np.zeros_like(e0)
                                )
                                e_parts.append(e1 + shift * e0)
                            else:
                                e_parts.append(e0)
                        prim = e_parts[0] * e_parts[1] * e_parts[2] * pref
                        vals[:, ia, ib] = prim.reshape(blk.npair, blk.k2).sum(axis=1)
                self._record_class_gemm(
                    blk.npair, len(comps_a) * len(comps_b), 1, blk.k2
                )
                self._scatter(out[d], blk, vals)
        return out

    # -- scatter helpers ----------------------------------------------------

    def _scatter(self, target: np.ndarray, blk: PairBlock, vals: np.ndarray) -> None:
        """Place (npair, na, nb) values into a symmetric matrix."""
        if self.kernels == "batched":
            scatter_symmetric(target, blk, vals)
            return
        na = vals.shape[1]
        nb = vals.shape[2]
        for r in range(blk.npair):  # qf: shell-loop — chunked over the element budget; body vectorized
            oa, ob = blk.off_a[r], blk.off_b[r]
            target[oa: oa + na, ob: ob + nb] = vals[r]
            if oa != ob:
                target[ob: ob + nb, oa: oa + na] = vals[r].T

    def _record_class_gemm(self, batch: int, m: int, n: int, k: int) -> None:
        """Account one class contraction through the batched-GEMM seam."""
        if self.kernels == "batched":
            # deferred: repro.kernels pulls in the DFPT worker stack,
            # which imports the SCF layer, which imports this module
            from repro.kernels.batched import kernel_seam

            kernel_seam().record_contraction(batch, m, n, k)

    # -- two-electron: generic Coulomb interaction of two pair sets ---------

    def coulomb_block(self, bra: PairBlock, ket: PairBlock,
                      q_bra: np.ndarray | None = None,
                      q_ket: np.ndarray | None = None) -> np.ndarray:
        """Contracted Coulomb interaction (bra_ab | ket_cd).

        Returns shape ``(npair_bra, na, nb, npair_ket, nc, nd)``.
        Used both for the exact ERI (bra and ket are orbital pair
        blocks) and for density fitting (ket pairs are aux/dummy).

        When Schwarz bound vectors ``q_bra``/``q_ket`` (from
        :meth:`schwarz_bounds`) are supplied and
        :attr:`schwarz_cutoff` is positive, pairs whose best possible
        bound product stays below the cutoff are skipped; their output
        entries are exact zeros bounded by the cutoff.
        """
        na, nb_ = len(components(bra.la)), len(components(bra.lb))
        nc, nd = len(components(ket.la)), len(components(ket.lb))
        cut = self.schwarz_cutoff
        if cut > 0.0 and q_bra is not None and q_ket is not None:
            stats = self.screen_stats
            n_total = bra.npair * ket.npair
            stats["pair_combinations_total"] += n_total
            keep_b = np.nonzero(q_bra * q_ket.max(initial=0.0) >= cut)[0]
            keep_k = np.nonzero(q_ket * q_bra.max(initial=0.0) >= cut)[0]
            n_eval = keep_b.size * keep_k.size
            stats["pair_combinations_evaluated"] += n_eval
            stats["pair_combinations_screened"] += n_total - n_eval
            # mirror the per-engine stats into the run-wide registry
            reg = counters()
            reg.inc("eri.pair_combinations_total", n_total)
            reg.inc("eri.pair_combinations_evaluated", n_eval)
            reg.inc("eri.pair_combinations_screened", n_total - n_eval)
            if n_eval == 0:
                return np.zeros((bra.npair, na, nb_, ket.npair, nc, nd))
            if keep_b.size < bra.npair or keep_k.size < ket.npair:
                # recursive call without bounds: evaluates the survivors
                # and touches no counters
                sub = self.coulomb_block(bra.subset(keep_b),
                                         ket.subset(keep_k))
                out = np.zeros((bra.npair, na, nb_, ket.npair, nc, nd))
                out[np.ix_(keep_b, np.arange(na), np.arange(nb_), keep_k)] = sub
                return out
        la, lb = bra.la, bra.lb
        lbra = la + lb
        combos_b = hermite_combos(lbra, lbra, lbra, lbra)
        e3b = _e3_components(bra.e_tensors(), la, lb, combos_b, weights=bra.cc)
        out = self._coulomb_core(bra, ket, e3b[None, :, :, :], lbra)[0]
        return out.reshape(bra.npair, na, nb_, ket.npair, nc, nd)

    def coulomb_block_deriv(self, bra: PairBlock, ket: PairBlock) -> np.ndarray:
        """Bra-a-center derivative of the Coulomb interaction.

        Returns shape ``(3, npair_bra, na, nb, npair_ket, nc, nd)`` —
        one slab per derivative direction.
        """
        la, lb = bra.la, bra.lb
        lbra = la + lb + 1
        combos_b = hermite_combos(lbra, lbra, lbra, lbra)
        exb = bra.e_tensors(da=1)
        e3d = _e3_deriv_components(exb, bra.a, la, lb, combos_b, weights=bra.cc)
        out = self._coulomb_core(bra, ket, e3d, lbra)
        na, nb_ = len(components(la)), len(components(lb))
        nc, nd = len(components(ket.la)), len(components(ket.lb))
        return out.reshape(3, bra.npair, na, nb_, ket.npair, nc, nd)

    def _coulomb_core(
        self,
        bra: PairBlock,
        ket: PairBlock,
        e3b: np.ndarray,
        lbra: int,
        element_budget: int = 400_000,
    ) -> np.ndarray:
        """Shared Coulomb contraction over stacked bra E3 variants.

        ``e3b`` has shape (nvariants, nprim_bra, nab, ncombos_b), its
        last axis in ``hermite_combos(lbra, ...)`` order. Both
        sides are chunked so the cross R tensor stays within the
        element budget (times the Hermite component count).
        """
        lket = ket.la + ket.lb
        combos_k = hermite_combos(lket, lket, lket, lket)
        e3k = _e3_components(
            ket.e_tensors(), ket.la, ket.lb, combos_k, sign=True, weights=ket.cc
        )
        nvar = e3b.shape[0]
        nab = e3b.shape[2]
        ncd = e3k.shape[1]
        ltot = lbra + lket
        # packed R column of each (bra combo + ket combo) index sum
        sum_idx = hermite_sum_index(lbra, lket)
        ncb, nck = sum_idx.shape
        out = np.zeros((nvar, bra.npair, nab, ket.npair, ncd))
        bchunk = max(1, element_budget // max(1, ket.nprim))
        bchunk = max(bra.k2, (bchunk // bra.k2) * bra.k2)
        npairs_per_chunk = max(1, bchunk // bra.k2)
        for start in range(0, bra.npair, npairs_per_chunk):  # qf: shell-loop — scalar reference scatter
            stop = min(start + npairs_per_chunk, bra.npair)
            bs = slice(start * bra.k2, stop * bra.k2)
            nbp = (stop - start) * bra.k2
            pb = bra.p[bs]
            pk = ket.p
            alpha = pb[:, None] * pk[None, :] / (pb[:, None] + pk[None, :])
            pref = 2.0 * math.pi ** 2.5 / (
                pb[:, None] * pk[None, :] * np.sqrt(pb[:, None] + pk[None, :])
            )
            pq = bra.pc[bs][:, None, :] - ket.pc[None, :, :]
            r = hermite_coulomb_vec(ltot, alpha.ravel(), pq.reshape(-1, 3))
            rsel = r[:, sum_idx].reshape(nbp, ket.nprim, ncb, nck)
            rsel *= pref[:, :, None, None]
            # vals[var, bp, ab, kp, cd]
            vals = np.einsum(
                "xpak,pqkm,qcm->xpaqc", e3b[:, bs], rsel, e3k, optimize=True
            )
            # account the einsum as its two-GEMM decomposition: one
            # batched GEMM over bra primitives, one over ket primitives
            self._record_class_gemm(nbp, nvar * nab, ket.nprim * nck, ncb)
            self._record_class_gemm(ket.nprim, nvar * nbp * nab, ncd, nck)
            vals = vals.reshape(
                nvar, stop - start, bra.k2, nab, ket.npair, ket.k2, ncd
            ).sum(axis=(2, 5))
            out[:, start:stop] = vals
        return out

    def eri(self) -> np.ndarray:
        """Exact ERI tensor (chemists' notation (ab|cd)), full nbf^4.

        Intended for small systems (tests, tiny fragments); production
        fragment SCF uses density fitting. With a positive
        :attr:`schwarz_cutoff`, shell-pair combinations bounded below
        the cutoff are skipped (their entries are exact zeros).
        """
        nbf = self.nbf
        with get_tracer().span("integrals.eri", nbf=nbf):
            out = np.zeros((nbf, nbf, nbf, nbf))
            bounds = (
                self._bounds_self() if self.schwarz_cutoff > 0.0
                else [None] * len(self.blocks)
            )
            for bi, bra in enumerate(self.blocks):
                for ki, ket in enumerate(self.blocks):
                    if ki < bi:
                        continue
                    vals = self.coulomb_block(bra, ket, q_bra=bounds[bi],
                                              q_ket=bounds[ki])
                    self._scatter_eri(out, bra, ket, vals)
        return out

    def _scatter_eri(self, out, bra: PairBlock, ket: PairBlock, vals) -> None:
        # Deliberately scalar in BOTH kernel modes: the 8-fold symmetry
        # images overlap whenever a pair repeats across the bra/ket block
        # combination (e.g. the bra==ket diagonal), and the result relies
        # on this loop's last-write-wins order. numpy fancy assignment
        # leaves the duplicate-index write order undefined, so a flat-plan
        # scatter here could silently differ between numpy builds.
        na, nb = vals.shape[1], vals.shape[2]
        nc, nd = vals.shape[4], vals.shape[5]
        for rb in range(bra.npair):  # qf: shell-loop — overlapping-image scatter needs ordered writes
            oa, ob = bra.off_a[rb], bra.off_b[rb]
            for rk in range(ket.npair):  # qf: shell-loop — overlapping-image scatter needs ordered writes
                oc, od = ket.off_a[rk], ket.off_b[rk]
                blockv = vals[rb, :, :, rk, :, :]
                for (i0, j0, v4) in (
                    (oa, ob, blockv),
                    (ob, oa, blockv.transpose(1, 0, 2, 3)),
                ):
                    for (k0, l0, v2) in (
                        (oc, od, v4),
                        (od, oc, v4.transpose(0, 1, 3, 2)),
                    ):
                        out[i0: i0 + v2.shape[0], j0: j0 + v2.shape[1],
                            k0: k0 + v2.shape[2], l0: l0 + v2.shape[3]] = v2
                        out[k0: k0 + v2.shape[2], l0: l0 + v2.shape[3],
                            i0: i0 + v2.shape[0], j0: j0 + v2.shape[1]] = (
                            v2.transpose(2, 3, 0, 1)
                        )


# ---------------------------------------------------------------------------
# dummy-paired blocks for density fitting (single functions as "pairs")
# ---------------------------------------------------------------------------

def single_shell_blocks(shells: list[Shell], offsets: list[int]) -> list[PairBlock]:
    """PairBlocks of (shell, zero-exponent dummy) pairs.

    A single contracted function phi_P can be treated as the Gaussian
    product phi_P * 1 where 1 = exp(-0 r^2) on the same center: all the
    pair machinery (E coefficients, Coulomb interaction) then yields
    2- and 3-center integrals for free.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for idx, sh in enumerate(shells):  # qf: shell-loop — class grouping prepass, not the kernel
        groups.setdefault((sh.l, len(sh.exps)), []).append(idx)
    blocks: list[PairBlock] = []
    for (l, k), idxs in sorted(groups.items()):
        n = len(idxs)
        a = np.empty((n, k))
        cc = np.empty((n, k))
        centers = np.empty((n, 3))
        off = np.empty(n, dtype=int)
        atom = np.empty(n, dtype=int)
        for r, i in enumerate(idxs):
            sh = shells[i]
            a[r] = sh.exps
            cc[r] = sh.coefs
            centers[r] = sh.center
            off[r] = offsets[i]
            atom[r] = sh.atom_index
        pc = np.repeat(centers, k, axis=0)
        blocks.append(
            PairBlock(
                la=l, lb=0, k2=k,
                ishell=np.array(idxs), jshell=np.array(idxs),
                off_a=off, off_b=np.zeros(n, dtype=int),
                atom_a=atom, atom_b=atom,
                a=a.ravel(), b=np.zeros(n * k), cc=cc.ravel(),
                ab_vec=np.zeros((n, 3)), centers_a=centers,
                p=a.ravel().copy(), pc=pc,
            )
        )
    return blocks


def _e3_deriv_components(
    ex: list[np.ndarray],
    exps_a: np.ndarray,
    la: int,
    lb: int,
    combos: list[tuple[int, int, int]],
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Bra-center derivative E3 tensors.

    ``ex`` must be built with ``da=1`` (index room for la+1). Uses
    dE(i,j,t)/dAx = 2a E(i+1,j,t) - i E(i-1,j,t) in the derivative
    dimension, plain E elsewhere. Returns shape
    ``(3, nprim, ncomp_a*ncomp_b, ncombos)``.
    """
    comps_a = components(la)
    comps_b = components(lb)
    nprim = ex[0].shape[0]
    out = np.zeros((3, nprim, len(comps_a) * len(comps_b), len(combos)))
    for ia, ca in enumerate(comps_a):
        for ib, cb in enumerate(comps_b):
            col = ia * len(comps_b) + ib
            # per-dimension plain and derivative 1D coefficient vectors
            for k, (t, u, v) in enumerate(combos):
                tuv = (t, u, v)
                for d in range(3):
                    # derivative acts on dimension d
                    parts = []
                    ok = True
                    for dim in range(3):
                        i_a, i_b, herm = ca[dim], cb[dim], tuv[dim]
                        if dim == d:
                            if herm > i_a + i_b + 1:
                                ok = False
                                break
                            val = 2.0 * exps_a * ex[dim][:, i_a + 1, i_b, herm]
                            if i_a > 0:
                                val = val - i_a * ex[dim][:, i_a - 1, i_b, herm]
                        else:
                            if herm > i_a + i_b:
                                ok = False
                                break
                            val = ex[dim][:, i_a, i_b, herm]
                        parts.append(val)
                    if not ok:
                        continue
                    out[d, :, col, k] = parts[0] * parts[1] * parts[2]
    if weights is not None:
        out *= weights[None, :, None, None]
    return out


# ---------------------------------------------------------------------------
# derivative one-electron integrals (bra-slot convention)
# ---------------------------------------------------------------------------
#
# All derivative builders return arrays D[x, mu, nu, ...] where the
# entry is the derivative of the integral with bra function mu and ket
# function nu with respect to the *center of mu's shell* ("bra slot").
# The derivative with respect to the ket center follows from symmetry:
# d(mu nu)/dB = D[x, nu, mu] for symmetric operators (S, T, V, and the
# 3-center bra pair). Gradient assembly in repro.dfpt.gradient sums the
# slots belonging to each atom.

def _ordered_blocks(engine: "IntegralEngine") -> list[PairBlock]:
    ns = len(engine.basis.shells)
    pairs = [(i, j) for i in range(ns) for j in range(ns)]
    return engine._build_blocks(
        engine.basis.shells, engine.basis.offsets, pairs, canonicalize=False
    )


class _DerivMixin:
    """Derivative integrals, mixed into IntegralEngine."""

    def _ordered(self) -> list[PairBlock]:
        if not hasattr(self, "_ordered_cache"):
            self._ordered_cache = _ordered_blocks(self)
        return self._ordered_cache

    def overlap_deriv(self) -> np.ndarray:
        """dS[x, mu, nu] = dS_{mu nu}/d(bra center), shape (3, nbf, nbf)."""
        out = np.zeros((3, self.nbf, self.nbf))
        for blk in self._ordered():
            ex = blk.e_tensors(da=1)
            comps_a = components(blk.la)
            comps_b = components(blk.lb)
            pref = (math.pi / blk.p) ** 1.5 * blk.cc
            for d in range(3):
                vals = np.empty((blk.npair, len(comps_a), len(comps_b)))
                for ia, ca in enumerate(comps_a):
                    for ib, cb in enumerate(comps_b):
                        parts = []
                        for dim in range(3):
                            if dim == d:
                                v = 2.0 * blk.a * ex[dim][:, ca[dim] + 1, cb[dim], 0]
                                if ca[dim] > 0:
                                    v = v - ca[dim] * ex[dim][:, ca[dim] - 1, cb[dim], 0]
                            else:
                                v = ex[dim][:, ca[dim], cb[dim], 0]
                            parts.append(v)
                        prim = parts[0] * parts[1] * parts[2] * pref
                        vals[:, ia, ib] = prim.reshape(blk.npair, blk.k2).sum(axis=1)
                self._scatter_ordered(out[d], blk, vals)
        return out

    def kinetic_deriv(self) -> np.ndarray:
        """dT[x, mu, nu] under the bra-slot convention."""
        out = np.zeros((3, self.nbf, self.nbf))
        for blk in self._ordered():
            ex = blk.e_tensors(da=1, db=2)
            comps_a = components(blk.la)
            comps_b = components(blk.lb)
            pref = (math.pi / blk.p) ** 1.5 * blk.cc

            def ds00(axs, bxs, d):
                parts = []
                for dim in range(3):
                    if dim == d:
                        v = 2.0 * blk.a * ex[dim][:, axs[dim] + 1, bxs[dim], 0]
                        if axs[dim] > 0:
                            v = v - axs[dim] * ex[dim][:, axs[dim] - 1, bxs[dim], 0]
                    else:
                        v = ex[dim][:, axs[dim], bxs[dim], 0]
                    parts.append(v)
                return parts[0] * parts[1] * parts[2]

            for d in range(3):
                vals = np.empty((blk.npair, len(comps_a), len(comps_b)))
                for ia, ca in enumerate(comps_a):
                    for ib, cb in enumerate(comps_b):
                        i, j, k = cb
                        term = blk.b * (2 * (i + j + k) + 3) * ds00(ca, cb, d)
                        for dd, inc in enumerate(((2, 0, 0), (0, 2, 0), (0, 0, 2))):
                            cb2 = (cb[0] + inc[0], cb[1] + inc[1], cb[2] + inc[2])
                            term = term - 2.0 * blk.b ** 2 * ds00(ca, cb2, d)
                            if cb[dd] >= 2:
                                cbm = (
                                    cb[0] - inc[0], cb[1] - inc[1], cb[2] - inc[2]
                                )
                                term = term - 0.5 * cb[dd] * (cb[dd] - 1) * ds00(
                                    ca, cbm, d
                                )
                        prim = term * pref
                        vals[:, ia, ib] = prim.reshape(blk.npair, blk.k2).sum(axis=1)
                self._scatter_ordered(out[d], blk, vals)
        return out

    def nuclear_deriv(self) -> tuple[np.ndarray, np.ndarray]:
        """Nuclear-attraction derivatives.

        Returns ``(dv_bra, dv_nuc)``:

        * ``dv_bra[x, mu, nu]`` — bra-slot derivative summed over nuclei,
        * ``dv_nuc[x, C, mu, nu]`` — Hellmann–Feynman derivative with
          respect to nucleus C's position (operator-center derivative,
          obtained from the raised-index Hermite Coulomb tensor).
        """
        natm = self.charges.size
        dv_bra = np.zeros((3, self.nbf, self.nbf))
        dv_nuc = np.zeros((3, natm, self.nbf, self.nbf))
        for blk in self._ordered():
            la, lb = blk.la, blk.lb
            l_tot = la + lb + 1
            combos = hermite_combos(l_tot, l_tot, l_tot, l_tot)
            ex = blk.e_tensors(da=1)
            e3d = _e3_deriv_components(ex, blk.a, la, lb, combos, weights=blk.cc)
            combos0 = [c for c in combos if sum(c) <= la + lb]
            e3p = _e3_components(
                [e[:, : la + 1] for e in ex], la, lb, combos0, weights=blk.cc
            )
            nprim = blk.nprim
            pc = blk.pc[:, None, :] - self.coords[None, :, :]
            p_rep = np.repeat(blk.p, natm)
            # one extra index for both the bra-derivative (l_tot) and the
            # operator derivative (raised index on the plain combos);
            # packed columns are already in ``combos`` order
            r = hermite_coulomb_vec(l_tot, p_rep, pc.reshape(-1, 3)).reshape(
                nprim, natm, len(combos)
            )
            pref = 2.0 * math.pi / blk.p
            na = len(components(la))
            nb = len(components(lb))
            index = hermite_index(l_tot)

            # bra-slot derivative
            for d in range(3):
                contrib = np.einsum("nck,nak->nac", e3d[d], r) * pref[:, None, None]
                contrib = contrib.reshape(blk.npair, blk.k2, natm, -1).sum(axis=1)
                total = -(contrib * self.charges[None, :, None]).sum(axis=1)
                self._scatter_ordered(dv_bra[d], blk, total.reshape(blk.npair, na, nb))

            # Hellmann-Feynman: d/dCx R_tuv(P - C) = -(-R_{t+1,u,v}) = R with
            # raised index and opposite sign of the P-derivative
            for d in range(3):
                raised = [
                    index[tuple(x + (axis == d) for axis, x in enumerate(tuv))]
                    for tuv in combos0
                ]
                contrib = np.einsum(
                    "nck,nak->nac", e3p, r[:, :, raised]
                ) * pref[:, None, None]
                contrib = contrib.reshape(blk.npair, blk.k2, natm, -1).sum(axis=1)
                for c in range(natm):
                    # V = -Z (ab|C); d/dC = -Z * (+R_{raised}) ... sign: the
                    # R tensor is built on (P - C), so d/dCx = -d/d(PC)_x,
                    # and d/d(PC)_x R_tuv = R_{t+1,u,v}. Hence total sign +Z.
                    vals = self.charges[c] * contrib[:, c, :].reshape(
                        blk.npair, na, nb
                    )
                    self._scatter_ordered(dv_nuc[d, c], blk, vals)
        return dv_bra, dv_nuc

    def _scatter_ordered(self, target: np.ndarray, blk: PairBlock,
                         vals: np.ndarray) -> None:
        """Scatter ordered-pair values (no symmetrization)."""
        if self.kernels == "batched":
            scatter_ordered(target, blk, vals)
            return
        na = vals.shape[1]
        nb = vals.shape[2]
        for r in range(blk.npair):  # qf: shell-loop — scalar reference scatter
            oa, ob = blk.off_a[r], blk.off_b[r]
            target[oa: oa + na, ob: ob + nb] = vals[r]


# graft the mixin onto IntegralEngine (kept separate for readability)
for _name in ("_ordered", "overlap_deriv", "kinetic_deriv", "nuclear_deriv",
              "_scatter_ordered"):
    setattr(IntegralEngine, _name, getattr(_DerivMixin, _name))


# ---------------------------------------------------------------------------
# two-electron derivative integrals (DF 3-center/2-center, exact ERI)
# ---------------------------------------------------------------------------

def _e3_deriv_components_b(
    ex: list[np.ndarray],
    exps_b: np.ndarray,
    la: int,
    lb: int,
    combos: list[tuple[int, int, int]],
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Ket-center derivative E3 tensors (dE/dBx = 2b E(i,j+1,t) - j E(i,j-1,t)).

    ``ex`` must be built with ``db=1``. Shape (3, nprim, nab, ncombos).
    """
    comps_a = components(la)
    comps_b = components(lb)
    nprim = ex[0].shape[0]
    out = np.zeros((3, nprim, len(comps_a) * len(comps_b), len(combos)))
    for ia, ca in enumerate(comps_a):
        for ib, cb in enumerate(comps_b):
            col = ia * len(comps_b) + ib
            for k, (t, u, v) in enumerate(combos):
                tuv = (t, u, v)
                for d in range(3):
                    parts = []
                    ok = True
                    for dim in range(3):
                        i_a, i_b, herm = ca[dim], cb[dim], tuv[dim]
                        if dim == d:
                            if herm > i_a + i_b + 1:
                                ok = False
                                break
                            val = 2.0 * exps_b * ex[dim][:, i_a, i_b + 1, herm]
                            if i_b > 0:
                                val = val - i_b * ex[dim][:, i_a, i_b - 1, herm]
                        else:
                            if herm > i_a + i_b:
                                ok = False
                                break
                            val = ex[dim][:, i_a, i_b, herm]
                        parts.append(val)
                    if not ok:
                        continue
                    out[d, :, col, k] = parts[0] * parts[1] * parts[2]
    if weights is not None:
        out *= weights[None, :, None, None]
    return out


def _coulomb_block_deriv_ab(self, bra: PairBlock, ket: PairBlock) -> np.ndarray:
    """Both bra-slot derivatives in one pass (shared R tensor).

    Returns (6, npb, na, nb, npk, nc, nd): slabs 0-2 are d/dA{x,y,z},
    slabs 3-5 are d/dB{x,y,z}. Roughly half the cost of two separate
    ordered-pair derivative builds because the Hermite Coulomb tensor —
    the dominant term — is computed once.
    """
    la, lb = bra.la, bra.lb
    lbra = la + lb + 1
    combos_b = hermite_combos(lbra, lbra, lbra, lbra)
    exb = bra.e_tensors(da=1, db=1)
    e3a = _e3_deriv_components(exb, bra.a, la, lb, combos_b, weights=bra.cc)
    e3bv = _e3_deriv_components_b(exb, bra.b, la, lb, combos_b, weights=bra.cc)
    stack = np.concatenate([e3a, e3bv], axis=0)
    out = self._coulomb_core(bra, ket, stack, lbra)
    na, nb_ = len(components(la)), len(components(lb))
    nc, nd = len(components(ket.la)), len(components(ket.lb))
    return out.reshape(6, bra.npair, na, nb_, ket.npair, nc, nd)


def _three_center_deriv(self, aux_blocks: list[PairBlock], naux: int
                       ) -> np.ndarray:
    """d(ab|P)/d(center of a), shape (3, nbf, nbf, naux).

    Covers *all ordered* orbital pairs, so the ket-orbital slot
    derivative is the [x, nu, mu, P] entry, and the aux-center
    derivative follows from translational invariance:
    d/dP = -(d/dA + d/dB). Built from canonical (i <= j) pairs with
    fused dA/dB variants; the [nu, mu] entries come from the dB slabs
    transposed.
    """
    out = np.zeros((3, self.nbf, self.nbf, naux))
    for bra in self.blocks:
        na = len(components(bra.la))
        nb = len(components(bra.lb))
        for ket in aux_blocks:
            nc = len(components(ket.la))
            vals = self._coulomb_block_deriv_ab(bra, ket)
            if self.kernels == "batched":
                for d in range(3):
                    scatter_pairs_aux(out[d], bra, ket,
                                      vals[d, :, :, :, :, :, 0],
                                      vals_t=vals[3 + d, :, :, :, :, :, 0])
                continue
            for rb in range(bra.npair):  # qf: shell-loop — scalar reference scatter
                oa, ob = bra.off_a[rb], bra.off_b[rb]
                for rk in range(ket.npair):  # qf: shell-loop — scalar reference scatter
                    oc = ket.off_a[rk]
                    da = vals[0:3, rb, :, :, rk, :, 0]
                    out[:, oa: oa + na, ob: ob + nb, oc: oc + nc] = da
                    if oa != ob:
                        db = vals[3:6, rb, :, :, rk, :, 0]
                        out[:, ob: ob + nb, oa: oa + na, oc: oc + nc] = (
                            db.transpose(0, 2, 1, 3)
                        )
    return out


def _two_center_deriv(self, aux_blocks: list[PairBlock], naux: int
                     ) -> np.ndarray:
    """d(P|Q)/d(center of P), shape (3, naux, naux), all ordered (P, Q)."""
    out = np.zeros((3, naux, naux))
    for bra in aux_blocks:
        na = len(components(bra.la))
        for ket in aux_blocks:
            nc = len(components(ket.la))
            vals = self.coulomb_block_deriv(bra, ket)
            if self.kernels == "batched":
                for d in range(3):
                    scatter_pairs_2c(out[d], bra, ket,
                                     vals[d, :, :, 0, :, :, 0])
                continue
            for rb in range(bra.npair):  # qf: shell-loop — scalar reference scatter
                oa = bra.off_a[rb]
                for rk in range(ket.npair):  # qf: shell-loop — scalar reference scatter
                    oc = ket.off_a[rk]
                    out[:, oa: oa + na, oc: oc + nc] = vals[:, rb, :, 0, rk, :, 0]
    return out


def _eri_deriv(self) -> np.ndarray:
    """dA-slot derivative of the exact ERI tensor.

    Shape (3, nbf, nbf, nbf, nbf): entry [x, mu, nu, lm, sg] is
    d(mu nu|lm sg)/d(center of mu), over all ordered bra pairs. Built
    from canonical bra pairs with fused dA/dB variants (one Hermite
    Coulomb evaluation serves both): the [x, nu, mu] entries of an
    off-diagonal bra pair are its dB slab, bra-transposed. Ket pairs are
    canonical and symmetrized. Small systems only (nbf^4 memory).
    """
    out = np.zeros((3, self.nbf, self.nbf, self.nbf, self.nbf))
    for bra in self.blocks:
        for ket in self.blocks:
            nc = len(components(ket.la))
            nd = len(components(ket.lb))
            vals = self._coulomb_block_deriv_ab(bra, ket)
            if self.kernels == "batched":
                for d in range(3):
                    scatter_eri_deriv(out[d], bra, ket, vals[d],
                                      vals_t=vals[3 + d])
                continue
            for rb in range(bra.npair):  # qf: shell-loop — scalar reference scatter
                oa, ob = bra.off_a[rb], bra.off_b[rb]
                for rk in range(ket.npair):  # qf: shell-loop — scalar reference scatter
                    oc, od = ket.off_a[rk], ket.off_b[rk]
                    images = [(oa, ob, vals[0:3, rb, :, :, rk])]
                    if oa != ob:
                        images.append((ob, oa, vals[3:6, rb, :, :, rk]
                                       .transpose(0, 2, 1, 3, 4)))
                    for i0, j0, v in images:
                        ni, nj = v.shape[1], v.shape[2]
                        out[:, i0: i0 + ni, j0: j0 + nj,
                            oc: oc + nc, od: od + nd] = v
                        if oc != od:
                            out[:, i0: i0 + ni, j0: j0 + nj,
                                od: od + nd, oc: oc + nc] = v.transpose(
                                0, 1, 2, 4, 3
                            )
    return out


IntegralEngine._coulomb_block_deriv_ab = _coulomb_block_deriv_ab
IntegralEngine.three_center_deriv = _three_center_deriv
IntegralEngine.two_center_deriv = _two_center_deriv
IntegralEngine.eri_deriv = _eri_deriv
