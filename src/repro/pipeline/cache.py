"""The response store: the one place finished fragment responses live.

A production QF run is hours of independent piece calculations; loss of
a process should not lose finished work (the paper's master re-queues
unfinished fragments — finished ones live in its result store). This
module is that result store for the laptop pipeline.

:class:`RunStore` keeps one ``<key>.npz`` per entry, where ``<key>`` is
:func:`~repro.pipeline.canonical.canonical_key`: the fragment's
rigid-motion class plus every config field that can change the numbers
(basis, delta, raman/IR flags, ERI mode, Schwarz cutoff). An entry holds
the response in the *writer's* lab frame together with the writer's
symbols, coordinates, and charge. A load has three outcomes:

* the target is bit-equal to the writer — the stored arrays are returned
  untouched (the npz round trip is bitwise for float64, so a resumed run
  reproduces the uninterrupted spectrum exactly);
* the target is a rigid copy — after validation (same species and
  charge, canonical coordinates within
  :data:`~repro.pipeline.canonical.VALIDATE_RMSD_BOHR`) the response is
  moved with one permutation and one rotation ``F_targetᵀ·F_writer``
  (:func:`~repro.pipeline.rigid.rotate_response`);
* anything else — torn, foreign, or mismatched — is a counted miss, and
  the fragment is recomputed: a silently mis-rotated tensor would still
  produce a plausible spectrum.

Writes are atomic (tmp + rename), so concurrent runs may share one
directory and a killed writer leaves only ignorable ``*.tmp.npz``
debris. See ``docs/caching.md``.
"""

from __future__ import annotations

import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.dfpt.hessian import FragmentResponse
from repro.geometry.atoms import Geometry
from repro.obs.counters import counters
from repro.pipeline.canonical import (
    VALIDATE_RMSD_BOHR,
    canonical_key,
    canonicalize,
    permute_response,
)
from repro.pipeline.rigid import rotate_response

__all__ = ["RunStore"]

#: optional FragmentResponse array fields persisted when present
_OPTIONAL_FIELDS = ("dalpha_dr", "alpha", "dmu_dr")

#: what a torn, truncated, or foreign ``.npz`` raises on open or read
_UNREADABLE = (OSError, EOFError, ValueError, KeyError,
               zipfile.BadZipFile, zlib.error)


def response_payload(response: FragmentResponse) -> dict[str, np.ndarray]:
    """The array dict an ``.npz`` snapshot of ``response`` holds."""
    payload = {
        "energy": np.array(response.energy),
        "hessian": response.hessian,
        "gradient": response.gradient,
    }
    for name in _OPTIONAL_FIELDS:
        val = getattr(response, name)
        if val is not None:
            payload[name] = val
    return payload


def response_from_npz(data, geometry: Geometry,
                      meta: dict) -> FragmentResponse:
    """Rebuild a :class:`FragmentResponse` from a loaded ``.npz``."""

    def opt(name):
        return data[name] if name in data.files else None

    return FragmentResponse(
        geometry=geometry,
        energy=float(data["energy"]),
        hessian=data["hessian"],
        dalpha_dr=opt("dalpha_dr"),
        alpha=opt("alpha"),
        gradient=data["gradient"],
        dmu_dr=opt("dmu_dr"),
        meta=dict(meta),
    )


def write_npz_atomic(path: Path, payload: dict[str, np.ndarray]) -> Path:
    """Write ``payload`` to ``path`` via tmp-file + rename.

    The rename is atomic on POSIX: a reader (or a resumed run) either
    sees the complete file or no file — never half a snapshot. A crash
    mid-write leaves only a ``*.tmp.npz`` stray, which loaders ignore.
    """
    tmp = path.with_suffix(".tmp.npz")
    np.savez_compressed(tmp, **payload)
    tmp.replace(path)
    return path


class RunStore:
    """Content-addressed on-disk store of finished fragment responses.

    ``load(task)`` / ``store(task, response)`` take a
    :class:`~repro.pipeline.executor.FragmentTask`; see the module
    docstring for the key, the entry format, and the three load
    outcomes. Per-instance hit/miss/rotation/write/reject statistics
    are mirrored into the ``store.*`` counters of :mod:`repro.obs`.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.rotations = 0
        self.writes = 0
        self.rejects = 0

    def key_for(self, task) -> str:
        return canonical_key(
            task.geometry, task.basis_name, task.delta,
            compute_raman=task.compute_raman, compute_ir=task.compute_ir,
            eri_mode=task.eri_mode, schwarz_cutoff=task.schwarz_cutoff,
        )

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    def store(self, task, response: FragmentResponse) -> Path:
        """Persist ``response`` in the writer's (``task``'s) lab frame."""
        geometry = task.geometry
        payload = response_payload(response)
        payload["symbols"] = np.array(geometry.symbols, dtype="U4")
        payload["coords"] = geometry.coords
        payload["charge"] = np.array(geometry.charge)
        self.writes += 1
        counters().inc("store.writes")
        return write_npz_atomic(self._path(self.key_for(task)), payload)

    def load(self, task) -> FragmentResponse | None:
        """The stored response in ``task``'s lab frame and atom order,
        or None on a miss (absent, unreadable, or failed validation)."""
        path = self._path(self.key_for(task))
        if not path.exists():
            return self._miss()
        try:
            # our own handle: np.load leaks the file it opened when the
            # zip directory is torn
            with open(path, "rb") as fh, \
                    np.load(fh, allow_pickle=False) as data:
                resp = self._resolve(data, task.geometry)
        except _UNREADABLE:
            # a torn or foreign file can only appear if something wrote
            # past the atomic tmp+rename protocol; treat it as absent
            return self._reject()
        if resp is None:
            return self._reject()
        self.hits += 1
        counters().inc("store.hits")
        return resp

    def _resolve(self, data, target: Geometry) -> FragmentResponse | None:
        symbols = [str(s) for s in data["symbols"]]
        coords = np.asarray(data["coords"], dtype=float)
        charge = int(data["charge"])
        meta = {"run_store": True}
        if symbols == list(target.symbols) and charge == target.charge \
                and np.array_equal(coords, target.coords):
            return response_from_npz(data, target, meta=meta)
        writer = Geometry(symbols, coords, charge=charge)
        fw, ft = canonicalize(writer), canonicalize(target)
        if fw.symbols != ft.symbols or charge != target.charge:
            return None
        rmsd = float(np.sqrt(np.mean(
            np.sum((fw.coords - ft.coords) ** 2, axis=1)
        )))
        if rmsd > VALIDATE_RMSD_BOHR:
            # the guard against the silent-wrong-answer failure mode: a
            # key collision or a quantization-edge geometry must become
            # a recompute, never a mis-rotated tensor
            return None
        # both frames place atoms in the same canonical slots: target
        # atom ft.perm[k] is writer atom fw.perm[k]
        perm = np.empty_like(ft.perm)
        perm[ft.perm] = fw.perm
        in_order = permute_response(response_from_npz(data, writer, meta),
                                    perm)
        resp = rotate_response(in_order, ft.rotation.T @ fw.rotation, target)
        self.rotations += 1
        counters().inc("store.rotations")
        return resp

    def _miss(self) -> None:
        self.misses += 1
        counters().inc("store.misses")

    def _reject(self) -> None:
        self.rejects += 1
        counters().inc("store.rejects")
        self._miss()

    def stats(self) -> dict:
        """Per-instance hit accounting (for manifests and benchmarks)."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "rotations": self.rotations,
            "writes": self.writes,
            "rejects": self.rejects,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def _complete(self) -> list[Path]:
        # "*.npz" also matches "<key>.tmp.npz" debris a killed writer
        # left behind — only fully renamed files count
        return [p for p in self.directory.glob("*.npz")
                if not p.name.endswith(".tmp.npz")]

    def keys(self) -> set[str]:
        return {p.stem for p in self._complete()}

    def __len__(self) -> int:
        return len(self._complete())
