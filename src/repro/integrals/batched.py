"""Batched shell-pair kernel layer (``QF_KERNELS=batched``).

The vectorized engine in :mod:`repro.integrals.engine` already
evaluates each angular-momentum class with one einsum, but three
python-level loops over *pairs* survived: pair-block construction
(``for r, (i, j) in enumerate(plist)``), the scatter of per-pair value
blocks into matrices, and the (rb, rk) scatter loops of the
density-fitting / derivative builders. For the small fragments QF
decomposition produces (a water monomer has 5 shells and 15 pairs but
is rebuilt for every one of its ~20 displaced SCFs), that python
overhead — not FLOPs — dominates the integral wall time, which is why
the process backend lost to serial in
``benchmarks/output/bench_parallel_pipeline.json``.

This module supplies the batched replacements:

* :func:`build_pair_blocks_batched` — the whole pair list is screened,
  canonicalized, classed, and packed into contiguous pair-major
  primitive arrays with numpy gathers; the per-pair python loop is
  gone. The arrays are **bit-identical** to the scalar builder's
  (every element undergoes the same scalar arithmetic, just in array
  form), which is what lets the ``QF_KERNELS`` toggle promise
  bit-identical spectra.
* :func:`scatter_symmetric` / :func:`scatter_ordered` /
  :func:`scatter_pairs_aux` — precomputed flat-index scatter plans
  (cached per block) replacing the per-pair assignment loops. Only
  scatters whose write sets are duplicate-free are vectorized; the
  8-fold ERI image scatter keeps its sequential loop because its
  overlapping writes rely on last-write-wins ordering (see
  ``IntegralEngine._scatter_eri``).
* :func:`kernels_mode` — the ``QF_KERNELS`` toggle (``batched`` is the
  default; ``scalar`` selects the reference loops).

Class contractions are accounted through the
:func:`repro.kernels.batched.kernel_seam` executor (useful vs
stride-padded FLOPs, mirrored into ``kernels.*`` obs counters); see
docs/performance.md for the layout and the counter glossary.
"""

from __future__ import annotations

import os

import numpy as np

from repro.basis.gaussian import Shell
from repro.obs.counters import counters

__all__ = [
    "KERNELS_ENV",
    "kernels_mode",
    "build_pair_blocks_batched",
    "scatter_symmetric",
    "scatter_ordered",
    "scatter_pairs_aux",
]

KERNELS_ENV = "QF_KERNELS"
_MODES = ("scalar", "batched")


def kernels_mode(override: str | None = None) -> str:
    """Resolve the integral-kernel mode: ``scalar`` or ``batched``.

    ``override`` (e.g. an ``IntegralEngine(kernels=...)`` argument)
    wins over the ``QF_KERNELS`` environment variable; the default is
    ``batched``. Workers inherit the environment, so one setting
    governs a whole pool run.
    """
    mode = override or os.environ.get(KERNELS_ENV, "") or "batched"
    mode = mode.lower()
    if mode not in _MODES:
        raise ValueError(
            f"unknown integral kernel mode {mode!r} "
            f"(QF_KERNELS expects one of {_MODES})"
        )
    return mode


# ---------------------------------------------------------------------------
# vectorized pair-block construction
# ---------------------------------------------------------------------------

def _shell_tables(shells: list[Shell]):
    """Per-shell gather tables: one O(nshells) pass, reused for every pair.

    Contraction depths vary per shell, so exponent/coefficient rows are
    padded to the largest depth; the padding is never read because each
    class gathers exactly its own ``(ka, kb)`` columns.
    """
    ns = len(shells)
    kmax = max((len(sh.exps) for sh in shells), default=1)
    ls = np.empty(ns, dtype=np.int64)
    ks = np.empty(ns, dtype=np.int64)
    atom = np.empty(ns, dtype=np.int64)
    centers = np.empty((ns, 3))
    exps = np.zeros((ns, kmax))
    coefs = np.zeros((ns, kmax))
    emin = np.empty(ns)
    for idx, sh in enumerate(shells):  # qf: shell-loop — O(nshells) table build, not per-pair
        k = len(sh.exps)
        ls[idx] = sh.l
        ks[idx] = k
        atom[idx] = sh.atom_index
        centers[idx] = sh.center
        exps[idx, :k] = sh.exps
        coefs[idx, :k] = sh.coefs
        emin[idx] = float(sh.exps.min())
    return ls, ks, atom, centers, exps, coefs, emin


def build_pair_blocks_batched(
    shells: list[Shell],
    offsets: list[int],
    pairs: list[tuple[int, int]] | None = None,
    canonicalize: bool = True,
    screen: float = 1.0e-12,
):
    """Vectorized drop-in for :func:`repro.integrals.engine.build_pair_blocks`.

    Produces the same :class:`~repro.integrals.engine.PairBlock` list —
    same class order (sorted keys), same within-class pair order
    (original pair order), bit-identical primitive arrays — without a
    python loop over pairs. The returned blocks are the contiguous,
    pair-major "stride-padded primitive-pair arrays" of the batched
    GEMM layout: within a class every pair contributes exactly
    ``ka * kb`` consecutive primitive slots, so a class evaluates as
    one stacked array operation.
    """
    from repro.integrals.engine import PairBlock  # deferred: avoid cycle

    ls, ks, atom, centers, exps, coefs, emin = _shell_tables(shells)
    ns = len(shells)
    if pairs is None:
        ii, jj = np.triu_indices(ns)
    else:
        if len(pairs) == 0:
            return []
        parr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        ii, jj = parr[:, 0].copy(), parr[:, 1].copy()
    if ii.size == 0:
        return []

    if screen > 0.0:
        diff = centers[ii] - centers[jj]
        d2 = np.sum(diff * diff, axis=1)
        amin = emin[ii]
        bmin = emin[jj]
        q = amin * bmin / (amin + bmin)
        keep = np.exp(-q * d2) >= screen
        ii, jj = ii[keep], jj[keep]
        if ii.size == 0:
            return []

    if canonicalize:
        swap = ls[ii] < ls[jj]
        ii2 = np.where(swap, jj, ii)
        jj2 = np.where(swap, ii, jj)
        ii, jj = ii2, jj2

    # class key (la, lb, ka, kb) encoded into one sortable integer;
    # field widths are generous (l < 64, K < 4096)
    key = ((ls[ii] * 64 + ls[jj]) * 4096 + ks[ii]) * 4096 + ks[jj]
    offsets_arr = np.asarray(offsets, dtype=np.int64)
    blocks = []
    for kval in np.unique(key):
        sel = np.nonzero(key == kval)[0]  # preserves original pair order
        ish = ii[sel]
        jsh = jj[sel]
        la = int(ls[ish[0]])
        lb = int(ls[jsh[0]])
        ka = int(ks[ish[0]])
        kb = int(ks[jsh[0]])
        npair = sel.size
        k2 = ka * kb
        ea = exps[ish, :ka]                     # (npair, ka)
        eb = exps[jsh, :kb]                     # (npair, kb)
        a = np.broadcast_to(ea[:, :, None], (npair, ka, kb)).reshape(npair, k2)
        b = np.broadcast_to(eb[:, None, :], (npair, ka, kb)).reshape(npair, k2)
        cc = (coefs[ish, :ka][:, :, None]
              * coefs[jsh, :kb][:, None, :]).reshape(npair, k2)
        ctr_a = centers[ish]
        ctr_b = centers[jsh]
        psum = a + b
        # product centers, same elementwise arithmetic as the scalar
        # builder: (a*A + b*B) / p per primitive pair
        pc = (a[:, :, None] * ctr_a[:, None, :]
              + b[:, :, None] * ctr_b[:, None, :]) / psum[:, :, None]
        blocks.append(
            PairBlock(
                la=la, lb=lb, k2=k2,
                ishell=ish, jshell=jsh,
                off_a=offsets_arr[ish], off_b=offsets_arr[jsh],
                atom_a=atom[ish], atom_b=atom[jsh],
                a=np.ascontiguousarray(a).ravel(),
                b=np.ascontiguousarray(b).ravel(),
                cc=cc.ravel(),
                ab_vec=ctr_a - ctr_b, centers_a=ctr_a,
                p=psum.ravel(), pc=pc.reshape(-1, 3),
            )
        )
    counters().inc("kernels.pair_blocks_built", len(blocks))
    counters().inc("kernels.pairs_packed", int(ii.size))
    return blocks


# ---------------------------------------------------------------------------
# scatter plans
# ---------------------------------------------------------------------------
#
# A scatter plan is the flat-index image of one block's (npair, na, nb)
# value tensor in an (nbf, nbf) target. Plans depend only on the block
# and the target width, so they are computed once and stashed on the
# block (PairBlock is a plain dataclass; the cache dies with the block).

def _plan_symmetric(blk, na: int, nb: int, nbf: int):
    cache = getattr(blk, "_scatter_plans", None)
    if cache is None:
        cache = blk._scatter_plans = {}
    plan = cache.get(("sym", na, nb, nbf))
    if plan is None:
        rows = blk.off_a[:, None] + np.arange(na)[None, :]      # (npair, na)
        cols = blk.off_b[:, None] + np.arange(nb)[None, :]      # (npair, nb)
        flat = rows[:, :, None] * nbf + cols[:, None, :]        # (npair, na, nb)
        off_diag = blk.off_a != blk.off_b
        # image axes ordered (nb, na) to line up with vals.T elementwise
        flat_t = (cols[off_diag][:, :, None] * nbf
                  + rows[off_diag][:, None, :])                 # (nod, nb, na)
        plan = (flat.ravel(), off_diag, flat_t.ravel())
        cache[("sym", na, nb, nbf)] = plan
    return plan


def scatter_symmetric(target: np.ndarray, blk, vals: np.ndarray) -> None:
    """Vectorized symmetric scatter: ``vals[r]`` at ``(off_a, off_b)``
    plus the transpose image for off-diagonal pairs.

    Write sets are disjoint (each unordered shell pair appears once in
    a canonical block; diagonal pairs are masked out of the transpose
    image exactly like the scalar loop), so the assignment order cannot
    matter and the result is bit-identical to the loop.
    """
    na, nb = vals.shape[1], vals.shape[2]
    flat, off_diag, flat_t = _plan_symmetric(blk, na, nb, target.shape[1])
    out = target.reshape(-1)
    out[flat] = vals.ravel()
    if flat_t.size:
        out[flat_t] = vals[off_diag].transpose(0, 2, 1).ravel()


def scatter_ordered(target: np.ndarray, blk, vals: np.ndarray) -> None:
    """Vectorized ordered-pair scatter (no symmetrization image)."""
    na, nb = vals.shape[1], vals.shape[2]
    flat, _, _ = _plan_symmetric(blk, na, nb, target.shape[1])
    target.reshape(-1)[flat] = vals.ravel()


def _plan_aux(bra, ket, na: int, nb: int, nc: int, naux: int, nbf: int):
    cache = getattr(bra, "_scatter_plans", None)
    if cache is None:
        cache = bra._scatter_plans = {}
    key = ("aux", id(ket), na, nb, nc, naux, nbf)
    plan = cache.get(key)
    if plan is None:
        rows = bra.off_a[:, None] + np.arange(na)[None, :]      # (npb, na)
        cols = bra.off_b[:, None] + np.arange(nb)[None, :]      # (npb, nb)
        aux = ket.off_a[:, None] + np.arange(nc)[None, :]       # (npk, nc)
        # flat index into (nbf, nbf, naux): ((row*nbf)+col)*naux + aux
        pair_flat = (rows[:, :, None] * nbf + cols[:, None, :]) * naux
        flat = (pair_flat[:, :, :, None, None]
                + aux[None, None, None, :, :])   # (npb, na, nb, npk, nc)
        off_diag = bra.off_a != bra.off_b
        # image axes ordered (nb, na) to line up with the transposed vals
        pair_flat_t = (cols[off_diag][:, :, None] * nbf
                       + rows[off_diag][:, None, :]) * naux
        flat_t = (pair_flat_t[:, :, :, None, None]
                  + aux[None, None, None, :, :])    # (nod, nb, na, npk, nc)
        plan = (flat.ravel(), off_diag, flat_t.ravel())
        cache[key] = plan
    return plan


def scatter_pairs_aux(target: np.ndarray, bra, ket, vals: np.ndarray,
                      vals_t: np.ndarray | None = None) -> None:
    """Scatter 3-center values (npb, na, nb, npk, nc) into (nbf, nbf, naux).

    Replaces the (rb, rk) python loops of the density-fitting 3-center
    build and the DF derivative builders. The bra transpose image
    (masked to off-diagonal pairs, matching the scalar loop) is taken
    from ``vals_t`` when given — the derivative builders write the
    d/dB slab there — and from ``vals`` itself otherwise. All writes
    are to distinct elements, so assignment order cannot matter.
    """
    na, nb, nc = vals.shape[1], vals.shape[2], vals.shape[4]
    flat, off_diag, flat_t = _plan_aux(
        bra, ket, na, nb, nc, target.shape[2], target.shape[1]
    )
    out = target.reshape(-1)
    out[flat] = vals.ravel()
    if flat_t.size:
        src = vals if vals_t is None else vals_t
        # (nod, na, nb, npk, nc) -> transpose the bra function axes
        out[flat_t] = src[off_diag].transpose(0, 2, 1, 3, 4).ravel()


def scatter_pairs_2c(target: np.ndarray, bra, ket,
                     vals: np.ndarray) -> None:
    """Scatter (npb, na, npk, nc) aux-pair values into (naux, naux).

    Used by the DF 2-center derivative builder, which iterates all
    *ordered* (bra, ket) aux block combinations — no transpose image,
    every write distinct.
    """
    na, nc = vals.shape[1], vals.shape[3]
    naux = target.shape[1]
    cache = getattr(bra, "_scatter_plans", None)
    if cache is None:
        cache = bra._scatter_plans = {}
    key = ("2c", id(ket), na, nc, naux)
    flat = cache.get(key)
    if flat is None:
        rows = bra.off_a[:, None] + np.arange(na)[None, :]      # (npb, na)
        cols = ket.off_a[:, None] + np.arange(nc)[None, :]      # (npk, nc)
        flat = (rows[:, :, None, None] * naux
                + cols[None, None, :, :]).ravel()
        cache[key] = flat
    target.reshape(-1)[flat] = vals.ravel()


def scatter_eri_deriv(target: np.ndarray, bra, ket, vals: np.ndarray,
                      vals_t: np.ndarray) -> None:
    """Scatter (npb, na, nb, npk, nc, nd) derivative ERI values.

    ``target`` is one (nbf, nbf, nbf, nbf) derivative slab; bra and ket
    pairs are canonical. ``vals`` (the d/dA slab) lands at
    ``[a, b, c, d]``; the bra image ``[b, a, c, d]`` of off-diagonal bra
    pairs comes from ``vals_t`` (the d/dB slab), bra-transposed. Each
    carries the ket-swap image ``[., ., d, c]`` of off-diagonal ket
    pairs. Masks match the scalar loop and write sets are disjoint.
    """
    na, nb = vals.shape[1], vals.shape[2]
    nc, nd = vals.shape[4], vals.shape[5]
    nbf = target.shape[0]
    cache = getattr(bra, "_scatter_plans", None)
    if cache is None:
        cache = bra._scatter_plans = {}
    key = ("erid", id(ket), na, nb, nc, nd, nbf)
    plan = cache.get(key)
    if plan is None:
        rows = bra.off_a[:, None] + np.arange(na)[None, :]      # (npb, na)
        cols = bra.off_b[:, None] + np.arange(nb)[None, :]      # (npb, nb)
        kidx = ket.off_a[:, None] + np.arange(nc)[None, :]      # (npk, nc)
        lidx = ket.off_b[:, None] + np.arange(nd)[None, :]      # (npk, nd)
        off_b = bra.off_a != bra.off_b
        off_k = ket.off_a != ket.off_b
        # image axes ordered (nb, na) / (nd, nc) to line up with the
        # transposed vals
        bra_flat = rows[:, :, None] * nbf + cols[:, None, :]     # (npb, na, nb)
        bra_flat_t = (cols[off_b][:, :, None] * nbf
                      + rows[off_b][:, None, :])                 # (nob, nb, na)
        ket_flat = kidx[:, :, None] * nbf + lidx[:, None, :]     # (npk, nc, nd)
        ket_flat_t = (lidx[off_k][:, :, None] * nbf
                      + kidx[off_k][:, None, :])                 # (nok, nd, nc)

        def outer(bf, kf):
            return (bf[:, :, :, None, None, None] * (nbf * nbf)
                    + kf[None, None, None, :, :, :]).ravel()

        plan = (off_b, off_k,
                outer(bra_flat, ket_flat), outer(bra_flat, ket_flat_t),
                outer(bra_flat_t, ket_flat), outer(bra_flat_t, ket_flat_t))
        cache[key] = plan
    off_b, off_k, flat, flat_k, flat_b, flat_bk = plan
    out = target.reshape(-1)
    out[flat] = vals.ravel()
    if flat_k.size:
        out[flat_k] = vals[:, :, :, off_k].transpose(0, 1, 2, 3, 5, 4).ravel()
    if flat_b.size:
        img = vals_t[off_b].transpose(0, 2, 1, 3, 4, 5)
        out[flat_b] = img.ravel()
        if flat_bk.size:
            out[flat_bk] = img[:, :, :, off_k].transpose(
                0, 1, 2, 3, 5, 4
            ).ravel()
