"""Rigid-motion canonical frames and keys for fragment responses.

A 100M-atom water box is millions of *nearly identical* fragments: the
same water geometry repeated under rotations and translations. This
module gives every rigid copy the same content key, so the response
store (:class:`~repro.pipeline.cache.RunStore`) collapses them onto one
entry.

Canonicalization
----------------
:func:`canonicalize` maps a geometry to a rigid-motion-invariant
*canonical frame*:

1. translate to the center of mass;
2. enumerate candidate right-handed frames built **from the atoms
   themselves** (first axis through an anchor atom of the
   lexicographically smallest element symbol, second axis through the
   off-axis component of every other atom) — never from
   ``np.linalg.eigh`` of the inertia tensor, whose eigenvector signs
   and degenerate-subspace bases are platform lottery tickets;
3. in each candidate frame, quantize the coordinates to a fixed grid
   (:data:`CANON_DECIMALS` decimals, bohr) and sort the atoms by
   (symbol, x, y, z);
4. keep the lexicographically smallest encoding.

Because every candidate frame co-rotates with the molecule, the chosen
encoding — and hence the content key — is invariant under rotations,
translations, and atom-index permutations, and *deterministic*: ties
between symmetry-equivalent frames produce identical encodings, so any
winner yields the same key. Only proper rotations are enumerated, so
mirror images (enantiomers) keep distinct keys — an improper rotation
cannot be applied to the stored tensors by
:func:`~repro.pipeline.rigid.rotate_response`.

Degenerate geometries (linear molecules, symmetric tops, accidentally
degenerate inertia tensors) need no special eigenbasis handling, since
no eigenbasis is ever computed; exactly-linear fragments fall back to
an axis-projection frame (coordinates off the molecular axis are
sub-tolerance by construction and stored as zero). One caveat: a
linear geometry cannot pin its azimuthal orientation, so a linear
fragment's response is restored up to a rotation about the molecular
axis — exact for a physically linear system (whose true response is
axially symmetric), with any residual bounded by the finite-difference
noise that already separates two independent computations.

A rigid-copy hit is *validated* before it is trusted: the writer's and
the target's canonical coordinates must agree to
:data:`VALIDATE_RMSD_BOHR`, else the store rejects the entry — a
silently mis-rotated tensor would still produce a plausible spectrum,
so the invariance test harness
(``tests/pipeline/test_canonical_properties.py``) and this runtime
check are both load-bearing. See ``docs/caching.md``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.dfpt.hessian import FragmentResponse
from repro.geometry.atoms import Geometry

__all__ = [
    "CANON_DECIMALS",
    "CanonicalFrame",
    "VALIDATE_RMSD_BOHR",
    "canonical_key",
    "canonicalize",
    "permute_response",
]

#: quantization grid of the canonical coordinates: two geometries whose
#: canonical coordinates agree to this many decimals (bohr) share a key
CANON_DECIMALS = 6

#: an atom closer than this (bohr) to the center of mass / frame axis
#: cannot anchor a frame axis (its direction would be numerical noise)
_AXIS_TOL = 1.0e-6

#: a rigid hit is trusted only if the writer's canonical coordinates
#: match the target's within this RMSD (bohr); ties between
#: symmetry-equivalent frames differ by at most the quantization grid
VALIDATE_RMSD_BOHR = 1.0e-4


# -- canonical frame construction ------------------------------------------


def _quantize(coords: np.ndarray) -> np.ndarray:
    # `+ 0.0` collapses IEEE -0.0 onto +0.0 so the byte encoding (and
    # tuple formatting) of a zero is unique
    return np.round(np.asarray(coords, dtype=float), CANON_DECIMALS) + 0.0


def _axis_completion(e1: np.ndarray) -> np.ndarray:
    """Deterministic right-handed frame with first row ``e1``.

    Used only for exactly-linear fragments, where the rotation about
    the molecular axis is physically irrelevant (all atoms sit on it).
    """
    probe = np.zeros(3)
    probe[int(np.argmin(np.abs(e1)))] = 1.0
    e2 = probe - (probe @ e1) * e1
    e2 /= np.linalg.norm(e2)
    return np.vstack([e1, e2, np.cross(e1, e2)])


def _candidate_frames(centered: np.ndarray, symbols: list[str]
                      ) -> tuple[list[np.ndarray], bool]:
    """All atom-anchored proper frames; ``(frames, is_linear)``.

    The first axis runs through an anchor atom of the smallest element
    symbol present off-center (an exact, rotation/permutation-invariant
    class — no floating-point pruning that could flip between rigid
    copies); the second axis through each other atom's off-axis
    component. A fragment with no off-axis atom at all is linear.
    """
    n = len(symbols)
    radii = np.linalg.norm(centered, axis=1)
    anchors = [i for i in range(n) if radii[i] > _AXIS_TOL]
    if not anchors:
        # single atom (or all atoms on the COM, which valid geometries
        # exclude): the frame is arbitrary and the coordinates vanish
        return [np.eye(3)], True
    first_symbol = min(symbols[i] for i in anchors)
    frames: list[np.ndarray] = []
    axes: list[np.ndarray] = []
    for a in anchors:
        if symbols[a] != first_symbol:
            continue
        e1 = centered[a] / radii[a]
        axes.append(e1)
        for b in range(n):
            if b == a:
                continue
            off = centered[b] - (centered[b] @ e1) * e1
            norm = np.linalg.norm(off)
            if norm <= _AXIS_TOL:
                continue
            e2 = off / norm
            frames.append(np.vstack([e1, e2, np.cross(e1, e2)]))
    if frames:
        return frames, False
    return [_axis_completion(e1) for e1 in axes], True


class CanonicalFrame:
    """The canonical placement of one geometry.

    ``rotation`` maps lab-frame vectors into the canonical frame
    (``v_canon = rotation @ v_lab``); ``coords`` are the canonical
    coordinates in canonical atom order; ``perm[k]`` is the input atom
    occupying canonical slot ``k``.
    """

    __slots__ = ("key", "symbols", "coords", "rotation", "perm", "linear")

    def __init__(self, key: str, symbols: tuple, coords: np.ndarray,
                 rotation: np.ndarray, perm: np.ndarray, linear: bool):
        self.key = key
        self.symbols = symbols
        self.coords = coords
        self.rotation = rotation
        self.perm = perm
        self.linear = linear


def canonicalize(geometry: Geometry) -> CanonicalFrame:
    """Rigid-motion-invariant canonical frame of ``geometry``."""
    coords = np.asarray(geometry.coords, dtype=float)
    masses = geometry.masses
    com = (masses[:, None] * coords).sum(axis=0) / masses.sum()
    centered = coords - com
    symbols = list(geometry.symbols)
    n = len(symbols)

    frames, linear = _candidate_frames(centered, symbols)
    best = None   # (encoding, perm, canon_coords, frame)
    for frame in frames:
        canon = centered @ frame.T
        if linear:
            # off-axis components are sub-tolerance by construction;
            # zero them so the arbitrary axis completion cannot leak
            # into the encoding or the stored coordinates
            canon[:, 1:] = 0.0
        q = _quantize(canon)
        order = sorted(
            range(n),
            key=lambda i: (symbols[i], q[i, 0], q[i, 1], q[i, 2], i),
        )
        encoding = tuple(
            (symbols[i], q[i, 0], q[i, 1], q[i, 2]) for i in order
        )
        if best is None or encoding < best[0]:
            best = (encoding, np.array(order, dtype=int), canon, frame)
    encoding, perm, canon, frame = best

    h = hashlib.sha256()
    h.update(f"canon-v1|{CANON_DECIMALS}|{geometry.charge}|".encode())
    h.update(",".join(symbols[i] for i in perm).encode())
    h.update(_quantize(canon[perm]).tobytes())
    return CanonicalFrame(
        key=h.hexdigest()[:24],
        symbols=tuple(symbols[i] for i in perm),
        coords=canon[perm],
        rotation=frame,
        perm=perm,
        linear=linear,
    )


def canonical_key(
    geometry: Geometry,
    basis_name: str,
    delta: float,
    *,
    compute_raman: bool = True,
    compute_ir: bool = False,
    eri_mode: str = "auto",
    schwarz_cutoff: float = 1.0e-12,
) -> str:
    """Content hash of (canonical geometry class, full run config).

    Two fragments share a key iff they are the same geometry up to a
    proper rigid motion (within the quantization grid) *and* every
    config knob that can change the numbers matches. Nothing
    positional (task index, attempt, label) enters the hash.
    """
    h = hashlib.sha256()
    h.update(canonicalize(geometry).key.encode())
    config = {
        "basis": basis_name,
        "delta": f"{delta:.3e}",
        "raman": bool(compute_raman),
        "ir": bool(compute_ir),
        "eri": eri_mode,
        "schwarz": f"{schwarz_cutoff:.3e}",
    }
    h.update(json.dumps(config, sort_keys=True).encode())
    return h.hexdigest()[:24]


# -- response reindexing ---------------------------------------------------


def permute_response(response: FragmentResponse, perm,
                     geometry: Geometry | None = None) -> FragmentResponse:
    """Reindex a response: output atom ``j`` is input atom ``perm[j]``.

    All per-atom tensor blocks move together (Hessian rows *and*
    columns, derivative leading axes, gradient rows), so the physics is
    untouched — only the bookkeeping order changes.
    """
    perm = np.asarray(perm, dtype=int)
    src = response.geometry
    if perm.shape != (src.natoms,):
        raise ValueError(
            f"permutation length {perm.shape} does not match "
            f"{src.natoms} atoms"
        )
    idx3 = (3 * perm[:, None] + np.arange(3)).ravel()
    if geometry is None:
        geometry = Geometry(
            [src.symbols[i] for i in perm], src.coords[perm],
            charge=src.charge,
            labels=[src.labels[i] for i in perm] if src.labels else [],
        )

    def take(arr):
        return None if arr is None else arr[idx3]

    return FragmentResponse(
        geometry=geometry,
        energy=response.energy,
        hessian=response.hessian[np.ix_(idx3, idx3)],
        dalpha_dr=take(response.dalpha_dr),
        alpha=response.alpha,
        gradient=response.gradient[perm],
        dmu_dr=take(response.dmu_dr),
        meta=dict(response.meta),
    )
