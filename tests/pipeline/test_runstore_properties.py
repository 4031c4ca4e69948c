"""Property-based tests for the RunStore and its content-hash keys.

Two invariants carry the checkpoint/resume guarantee:

* any interleaving of writes, crashes (stray partial temp files), and
  reloads round-trips every stored response bit for bit — a reader
  never sees a half-written checkpoint;
* the content-hash key depends only on what determines the numerical
  result (geometry class + computation config), never on bookkeeping
  such as fragment ordering, indices, attempt numbers, or labels — so
  a resumed run with reshuffled work still hits.

The key is per rigid-motion class (translated copies share a key), so
the synthetic fragments below are told apart by their charge.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfpt.hessian import FragmentResponse
from repro.geometry.atoms import Geometry
from repro.pipeline.cache import RunStore
from repro.pipeline.canonical import canonical_key
from repro.pipeline.executor import FragmentTask

# -- strategies -----------------------------------------------------------

finite = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False,
                   allow_infinity=False, width=64)
coords3 = st.lists(st.tuples(finite, finite, finite),
                   min_size=1, max_size=3)


def _geometry(coords, charge: int = 0) -> Geometry:
    return Geometry(["H"] * len(coords), np.array(coords, dtype=float),
                    charge=charge)


def _task(idx: int, coords) -> FragmentTask:
    return FragmentTask(index=idx, label=f"frag[{idx}]",
                        geometry=_geometry(coords, charge=idx))


def _response(task: FragmentTask, seed: int) -> FragmentResponse:
    """A synthetic but shape-correct response with arbitrary float64s."""
    rng = np.random.default_rng(seed)
    n = task.geometry.natoms
    h = rng.standard_normal((3 * n, 3 * n))
    return FragmentResponse(
        geometry=task.geometry,
        energy=float(rng.standard_normal()),
        hessian=0.5 * (h + h.T),
        dalpha_dr=rng.standard_normal((3 * n, 3, 3)),
        alpha=rng.standard_normal((3, 3)),
        gradient=rng.standard_normal((n, 3)),
    )


def _assert_identical(got: FragmentResponse, ref: FragmentResponse):
    assert got.energy == ref.energy
    assert np.array_equal(got.hessian, ref.hessian)
    assert np.array_equal(got.dalpha_dr, ref.dalpha_dr)
    assert np.array_equal(got.alpha, ref.alpha)
    assert np.array_equal(got.gradient, ref.gradient)


# -- write / crash / reload interleavings ---------------------------------

# an op is ("write", frag_id) | ("crash", frag_id) | ("reload",)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 3)),
        st.tuples(st.just("crash"), st.integers(0, 3)),
        st.just(("reload",)),
    ),
    min_size=1, max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(ops=_ops, coords=coords3)
def test_write_crash_reload_round_trips_exactly(ops, coords):
    """Whatever the interleaving, a (re)loaded store returns exactly
    the responses that were fully written — crash debris (partial temp
    files) is never visible."""
    tasks = {i: _task(i, [(c[0] + i, c[1], c[2]) for c in coords])
             for i in range(4)}
    with tempfile.TemporaryDirectory() as tmp:
        store = RunStore(tmp)
        model: dict[int, FragmentResponse] = {}
        for op in ops:
            if op[0] == "write":
                i = op[1]
                resp = _response(tasks[i], seed=i)
                store.store(tasks[i], resp)
                model[i] = resp
            elif op[0] == "crash":
                # a killed writer leaves a partial temp file behind —
                # same prefix the atomic writer uses before rename
                i = op[1]
                key = store.key_for(tasks[i])
                stray = Path(tmp) / f"{key}.tmp.npz"
                stray.write_bytes(b"\x00truncated checkpoint")
            else:
                store = RunStore(tmp)   # a fresh process opening the dir
            for i, task in tasks.items():
                loaded = store.load(task)
                if i in model:
                    assert loaded is not None
                    _assert_identical(loaded, model[i])
                else:
                    assert loaded is None
        assert len(store) == len(model)


@settings(max_examples=40, deadline=None)
@given(coords=coords3, seed=st.integers(0, 2**31))
def test_store_overwrite_keeps_latest(coords, seed):
    task = _task(0, coords)
    with tempfile.TemporaryDirectory() as tmp:
        store = RunStore(tmp)
        store.store(task, _response(task, seed))
        newer = _response(task, seed + 1)
        store.store(task, newer)
        assert len(store) == 1
        _assert_identical(RunStore(tmp).load(task), newer)


# -- key invariance -------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(coords=coords3, perm_seed=st.integers(0, 2**31),
       index=st.integers(0, 100), attempt=st.integers(1, 10))
def test_task_key_ignores_bookkeeping(coords, perm_seed, index, attempt):
    """Keys are invariant to everything that cannot change the numbers:
    fragment order in the work list, the piece index, the attempt
    counter, and the label."""
    tasks = [_task(i, [(c[0] + i, c[1], c[2]) for c in coords])
             for i in range(3)]
    with tempfile.TemporaryDirectory() as tmp:
        store = RunStore(tmp)
        baseline = [store.key_for(t) for t in tasks]
        rng = np.random.default_rng(perm_seed)
        order = rng.permutation(len(tasks))
        shuffled = {int(i): store.key_for(tasks[int(i)]) for i in order}
        assert all(shuffled[i] == baseline[i] for i in range(len(tasks)))
        t = tasks[0]
        assert store.key_for(
            replace(t, index=index, attempt=attempt, label="other")
        ) == baseline[0]
        # distinct geometry classes get distinct keys
        assert len(set(baseline)) == len(baseline)


def test_task_key_sensitive_to_config():
    """Every config field that can change the numbers is in the key."""
    geom = _geometry([(0.0, 0.0, 0.0), (0.0, 0.0, 1.4)])
    kw = dict(compute_raman=True, compute_ir=False, eri_mode="auto",
              schwarz_cutoff=1.0e-12)
    base = canonical_key(geom, "sto-3g", 5.0e-3, **kw)
    assert canonical_key(geom, "6-31g", 5.0e-3, **kw) != base
    assert canonical_key(geom, "sto-3g", 1.0e-3, **kw) != base
    for field, value in (("compute_raman", False), ("compute_ir", True),
                         ("eri_mode", "exact"), ("eri_mode", "df"),
                         ("schwarz_cutoff", 1.0e-10)):
        assert canonical_key(geom, "sto-3g", 5.0e-3,
                             **{**kw, field: value}) != base, field
