"""Durability tests for the shared response store.

The response store is *global*: several runs — possibly several
processes — share one directory across sessions. That only works if

* a reader racing a writer never sees a torn entry (the atomic
  tmp+rename protocol),
* a writer killed mid-write leaves nothing that a later run could
  mistake for a checkpoint — reloading after a kill returns exactly
  what an uninterrupted run would have stored,
* stray debris and corrupt files degrade to a miss (a recompute),
  never to an exception or a wrong tensor.
"""

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.dfpt.hessian import FragmentResponse
from repro.geometry.atoms import Geometry
from repro.pipeline.cache import RunStore
from repro.pipeline.canonical import canonicalize
from repro.pipeline.executor import FragmentTask

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _geometry(i: int) -> Geometry:
    return Geometry(["O", "H", "H"],
                    np.array([[0.0, 0.0, 0.0],
                              [1.8 + 0.01 * i, 0.0, 0.0],
                              [-0.45, 1.75, 0.0]]))


def _task(geometry: Geometry) -> FragmentTask:
    return FragmentTask(index=0, label="w", geometry=geometry)


def _response(i: int) -> FragmentResponse:
    rng = np.random.default_rng(1000 + i)
    h = rng.standard_normal((9, 9))
    return FragmentResponse(
        geometry=_geometry(i),
        energy=float(rng.standard_normal()),
        hessian=0.5 * (h + h.T),
        dalpha_dr=rng.standard_normal((9, 3, 3)),
        alpha=rng.standard_normal((3, 3)),
        gradient=rng.standard_normal((3, 3)),
        dmu_dr=rng.standard_normal((9, 3)),
    )


_WRITER = """
import sys
import numpy as np
sys.path.insert(0, {src!r})
from repro.dfpt.hessian import FragmentResponse
from repro.geometry.atoms import Geometry
from repro.pipeline.cache import RunStore
from repro.pipeline.executor import FragmentTask


def _task(i):
    return FragmentTask(index=i, label="w", geometry=_geometry(i))


def _geometry(i):
    return Geometry(["O", "H", "H"],
                    np.array([[0.0, 0.0, 0.0],
                              [1.8 + 0.01 * i, 0.0, 0.0],
                              [-0.45, 1.75, 0.0]]))


def _response(i):
    rng = np.random.default_rng(1000 + i)
    h = rng.standard_normal((9, 9))
    return FragmentResponse(
        geometry=_geometry(i), energy=float(rng.standard_normal()),
        hessian=0.5 * (h + h.T),
        dalpha_dr=rng.standard_normal((9, 3, 3)),
        alpha=rng.standard_normal((3, 3)),
        gradient=rng.standard_normal((3, 3)),
        dmu_dr=rng.standard_normal((9, 3)),
    )


store = RunStore(sys.argv[1])
mode = sys.argv[2]
if mode == "sweep":
    for i in range(20):
        store.store(_task(i), _response(i))
    print("done", flush=True)
else:   # hammer one entry forever (until killed)
    print("ready", flush=True)
    while True:
        store.store(_task(0), _response(0))
""".format(src=SRC)


def _assert_entry_exact(store: RunStore, i: int) -> None:
    """A loaded entry for the *identical* geometry must match the
    written response bit for bit (no rotation, no permutation)."""
    got = store.load(_task(_geometry(i)))
    assert got is not None
    ref = _response(i)
    np.testing.assert_array_equal(got.hessian, ref.hessian)
    np.testing.assert_array_equal(got.dalpha_dr, ref.dalpha_dr)
    np.testing.assert_array_equal(got.dmu_dr, ref.dmu_dr)
    assert got.energy == ref.energy


def test_reader_never_sees_torn_entries_while_writer_runs():
    """A second process sweeps 20 entries into the store while this
    process polls every entry: each load is either a clean miss or the
    complete, correct response — never a torn read."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.Popen(
            [sys.executable, "-c", _WRITER, tmp, "sweep"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            store = RunStore(tmp)
            seen: set[int] = set()
            deadline = time.monotonic() + 120.0
            while len(seen) < 20 and time.monotonic() < deadline:
                for i in range(20):
                    got = store.load(_task(_geometry(i)))
                    if got is not None:
                        np.testing.assert_allclose(
                            got.hessian, _response(i).hessian,
                            rtol=0.0, atol=1.0e-12,
                        )
                        seen.add(i)
            out, err = proc.communicate(timeout=60)
            assert "done" in out, err
            assert seen == set(range(20))
            assert store.rejects == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


def test_kill_mid_write_leaves_store_consistent():
    """SIGKILL a process hammering one entry, then reload: the store
    holds either nothing or exactly the uninterrupted entry — compared
    bitwise against a store written without interruption."""
    with tempfile.TemporaryDirectory() as tmp:
        shared = Path(tmp) / "shared"
        proc = subprocess.Popen(
            [sys.executable, "-c", _WRITER, str(shared), "hammer"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "ready"
            # let some writes land, then kill at an arbitrary moment
            deadline = time.monotonic() + 60.0
            while not any(shared.glob("*.npz")) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.05)
            os.kill(proc.pid, signal.SIGKILL)
            proc.communicate()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        # a fresh process opening the directory after the crash
        store = RunStore(shared)
        assert len(store) in (0, 1)
        if len(store) == 1:
            _assert_entry_exact(store, 0)
            # bitwise identical to what an uninterrupted writer stores
            clean_dir = Path(tmp) / "clean"
            clean = RunStore(clean_dir)
            clean.store(_task(_geometry(0)), _response(0))
            (survivor,) = store._complete()
            (reference,) = clean._complete()
            with np.load(survivor) as a, np.load(reference) as b:
                assert sorted(a.files) == sorted(b.files)
                for name in a.files:
                    np.testing.assert_array_equal(a[name], b[name])


def test_tmp_debris_is_invisible(tmp_path):
    store = RunStore(tmp_path)
    store.store(_task(_geometry(0)), _response(0))
    key = store.key_for(_task(_geometry(1)))
    (tmp_path / f"{key}.tmp.npz").write_bytes(b"\x00half a write")
    assert len(store) == 1
    assert store.load(_task(_geometry(1))) is None
    _assert_entry_exact(store, 0)


def test_corrupt_entry_degrades_to_miss(tmp_path):
    store = RunStore(tmp_path)
    path = store.store(_task(_geometry(0)), _response(0))
    path.write_bytes(path.read_bytes()[: 40])     # truncate the zip
    assert store.load(_task(_geometry(0))) is None
    assert store.rejects == 1
    path.write_bytes(b"")                         # and an empty file
    assert store.load(_task(_geometry(0))) is None
    assert store.rejects == 2 and store.misses == 2


def test_load_leaves_no_open_handle(tmp_path):
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("needs /proc/self/fd")
    store = RunStore(tmp_path)
    path = store.store(_task(_geometry(0)), _response(0))
    rotated = Geometry(["O", "H", "H"], _geometry(0).coords[:, [1, 0, 2]]
                       * np.array([-1.0, 1.0, 1.0]))
    assert store.load(_task(_geometry(0))) is not None
    assert store.load(_task(rotated)) is not None
    assert store.rotations == 1
    open_files = set()
    for fd in fds.iterdir():
        try:
            open_files.add(os.readlink(fd))
        except OSError:
            continue
    assert str(path.resolve()) not in open_files


def test_frame_mismatch_is_rejected_not_misrotated(tmp_path):
    """An entry whose stored writer geometry is not a rigid copy of the
    target's (a key collision or tampering) must become a miss — the
    silent-wrong-answer guard."""
    store = RunStore(tmp_path)
    path = store.store(_task(_geometry(0)), _response(0))
    with np.load(path) as data:
        payload = {k: data[k].copy() for k in data.files}
    payload["coords"][1] += 0.05                  # deform the writer
    tmp = path.with_suffix(".tmp.npz")
    np.savez_compressed(tmp, **payload)
    tmp.replace(path)
    assert store.load(_task(_geometry(0))) is None
    assert store.rejects == 1


def test_bit_equal_target_returns_stored_arrays_untouched(tmp_path):
    store = RunStore(tmp_path)
    store.store(_task(_geometry(0)), _response(0))
    _assert_entry_exact(store, 0)
    assert store.rotations == 0
    # a rotated copy hits the same entry through one rotation
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    g = _geometry(0)
    rotated = Geometry(list(g.symbols), g.coords @ rot.T)
    got = store.load(_task(rotated))
    assert got is not None and store.rotations == 1
    np.testing.assert_allclose(
        got.hessian[:3, :3], rot @ _response(0).hessian[:3, :3] @ rot.T,
        rtol=0.0, atol=1.0e-12,
    )


def test_stats_and_keys_accounting(tmp_path):
    store = RunStore(tmp_path)
    store.store(_task(_geometry(0)), _response(0))
    store.load(_task(_geometry(0)))
    store.load(_task(_geometry(1)))
    stats = store.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["writes"] == 1 and stats["rejects"] == 0
    assert stats["hit_rate"] == 0.5
    assert store.keys() == {store.key_for(_task(_geometry(0)))}
    assert canonicalize(_geometry(0)).key != canonicalize(_geometry(1)).key
