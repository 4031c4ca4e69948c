"""Real parallel execution of fragment response tasks.

The QF decomposition produces embarrassingly parallel work — the paper
dispatches it over 576,000 processes (§V-A). :mod:`repro.hpc` *models*
that dispatch on simulated machines; this module *performs* it on the
local one. Three backends share one interface:

``serial``
    The single-process loop (reference behavior; zero overhead).
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor` over whole
    fragments: tasks are dispatched largest-first (big pieces dominate
    the makespan, so starting them early avoids tail stragglers — the
    same descending-cost rule as the simulated balancer's task pool)
    and in chunks to amortize inter-process overhead. Best when the
    workload has at least as many pieces as cores.
``displacement``
    Parallelism *inside* :func:`repro.dfpt.hessian.fragment_response`:
    the ~3N coordinate jobs of each fragment go to the pool while
    fragments themselves run in order. Best for workloads with few
    large fragments, where fragment-level parallelism would idle most
    workers.

All backends produce numerically identical responses (same code path,
same SCF seeds); tests assert agreement to 1e-10. A worker exception
does not hang the pool: it is re-raised in the parent as
:class:`FragmentExecutorError` carrying the fragment label and the
worker traceback.

Every run yields a :class:`ThroughputReport` (fragments/s, per-task
wall times, worker utilization) that the pipeline attaches to its
:class:`~repro.pipeline.qf_raman.PipelineResult` — the measurable perf
trajectory asked for by the ROADMAP.
"""

from __future__ import annotations

import ctypes
import os
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.devtools.contracts import (
    ContractViolation,
    check_response,
    determinism_check_enabled,
    response_digest,
)
from repro.dfpt.hessian import FragmentResponse, fragment_response
from repro.geometry.atoms import Geometry
from repro.obs.counters import counters
from repro.obs.tracer import get_tracer, telemetry_shipment
from repro.pipeline.faults import (
    active_fault_plan,
    apply_post_fault,
    apply_pre_fault,
)
from repro.pipeline.shm import pack_tasks, rebuild_task, shm_enabled
from repro.utils.timing import Stopwatch


@dataclass(frozen=True)
class FragmentTask:
    """One picklable unit of fragment work.

    ``index`` keys the result back to the originating QF piece, so
    completion order never matters.
    """

    index: int
    label: str
    geometry: Geometry
    delta: float = 5.0e-3
    compute_raman: bool = True
    compute_ir: bool = False
    basis_name: str = "sto-3g"
    eri_mode: str = "auto"
    schwarz_cutoff: float = 1.0e-12
    #: 1-based execution attempt — set by the resilience layer on
    #: retries/reissues; keys the deterministic fault-injection plan
    #: (never enters content hashes: a retry computes the same result)
    attempt: int = 1

    @property
    def natoms(self) -> int:
        return self.geometry.natoms


@dataclass
class FragmentTaskResult:
    """A finished task plus its execution record.

    ``spans`` and ``counters`` carry the telemetry a pool worker
    captured while executing the task (empty when the task ran in the
    parent process, where spans flow into the ambient tracer
    directly); the parent merges them at join.
    """

    index: int
    label: str
    natoms: int
    response: FragmentResponse | None
    wall_s: float
    worker: int                      # pid of the executing process
    error: tuple[str, str] | None = None   # (repr(exc), traceback text)
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)


@dataclass
class ThroughputReport:
    """Execution statistics of one ``run`` call.

    ``worker_utilization`` is the summed busy time divided by
    ``wall_s * max_workers`` — 1.0 means no worker ever idled.
    """

    backend: str
    max_workers: int
    n_tasks: int
    wall_s: float
    fragments_per_s: float
    worker_utilization: float
    tasks: list[dict] = field(default_factory=list)
    phase_wall_s: dict = field(default_factory=dict)
    #: retry/reissue/skip accounting when the run was fault-tolerant
    #: (a ResilienceReport dict; flows into the RunManifest)
    resilience: dict | None = None

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "max_workers": self.max_workers,
            "n_tasks": self.n_tasks,
            "wall_s": self.wall_s,
            "fragments_per_s": self.fragments_per_s,
            "worker_utilization": self.worker_utilization,
            "tasks": self.tasks,
            "phase_wall_s": self.phase_wall_s,
            "resilience": self.resilience,
        }

    def summary(self) -> str:
        return (
            f"{self.backend}[{self.max_workers}]: {self.n_tasks} fragments "
            f"in {self.wall_s:.2f}s ({self.fragments_per_s:.3f} frag/s, "
            f"utilization {100.0 * self.worker_utilization:.0f}%)"
        )


class FragmentExecutorError(RuntimeError):
    """A fragment task failed in a worker; carries label + traceback."""

    def __init__(self, label: str, error: str, worker_traceback: str = ""):
        self.label = label
        self.worker_traceback = worker_traceback
        msg = f"fragment task {label!r} failed: {error}"
        if worker_traceback:
            msg += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(msg)


def _run_task(task: "FragmentTask | tuple") -> FragmentTaskResult:
    """Execute one task (or shm wire tuple), capturing errors not raising.

    Module-level so it pickles into worker processes; the parent turns
    a captured error into :class:`FragmentExecutorError`. Telemetry
    (spans under a per-task ``fragment`` span, counter increments) is
    captured by the shipment and travels back inside the result.
    """
    sw = Stopwatch()
    with telemetry_shipment() as shipment:
        if not isinstance(task, FragmentTask):
            # shared-memory wire tuple: rebuild inside the shipment so
            # the attach/rebuild counters travel back to the parent
            task = rebuild_task(task)
        plan = active_fault_plan()
        fault = plan.lookup(task.label, task.attempt) \
            if plan is not None else None
        with get_tracer().span(
            "fragment", label=task.label, natoms=task.natoms,
            attempt=task.attempt,
        ) as sp:
            try:
                if fault is not None:
                    counters().inc("resilience.faults_injected")
                    apply_pre_fault(fault)
                resp = fragment_response(
                    task.geometry,
                    delta=task.delta,
                    compute_raman=task.compute_raman,
                    compute_ir=task.compute_ir,
                    basis_name=task.basis_name,
                    eri_mode=task.eri_mode,
                    schwarz_cutoff=task.schwarz_cutoff,
                )
                apply_post_fault(fault, resp)
                error = None
            except Exception as exc:  # qf: broad-except — captured + re-raised in parent
                resp = None
                error = (repr(exc), traceback.format_exc())
            sp.set(ok=error is None)
    return FragmentTaskResult(
        index=task.index,
        label=task.label,
        natoms=task.natoms,
        response=resp,
        wall_s=sw.elapsed(),
        worker=os.getpid(),
        error=error,
        spans=shipment.spans,
        counters=shipment.counters,
    )


def _run_chunk(tasks: list[FragmentTask]) -> list[FragmentTaskResult]:
    return [_run_task(t) for t in tasks]


def _run_shm_chunk(wires: list) -> list[FragmentTaskResult]:
    """Worker entry for shared-memory dispatch: wire tuples in, results out.

    Each :class:`~repro.pipeline.shm.ShmTaskDescriptor` wire tuple is
    rebuilt into a bit-identical ``FragmentTask`` from the arena mapped
    into this worker (attached once per process), so the compute path
    is the same as pickled dispatch — only the transport differs.
    """
    return [_run_task(w) for w in wires]


def largest_first(tasks: list[FragmentTask]) -> list[FragmentTask]:
    """Descending-size dispatch order (stable for equal sizes)."""
    return sorted(tasks, key=lambda t: -t.natoms)


#: (set, get) thread-count entry points of the OpenBLAS builds that the
#: numpy (ILP64, ``64_`` suffix) and scipy (LP64) wheels each bundle
OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def _openblas_thread_functions() -> list[tuple[str, object, object]]:
    """``(getter name, set, get)`` of every loaded OpenBLAS.

    Libraries are found in this process's memory map (Linux); anywhere
    else, or for a BLAS without these symbols, the list is empty.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                # void set(int); int get(void) — in both integer widths
                setter, getter = lib[set_name], lib[get_name]
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found.append((get_name, setter, getter))
    return found


def blas_thread_counts() -> dict[str, int]:
    """Thread count of every loaded OpenBLAS, keyed by its getter."""
    return {name: getter() for name, _, getter in _openblas_thread_functions()}


def cap_blas_threads(max_workers: int) -> None:
    """Pool-worker initializer: share the visible cores among the pool.

    ``max_workers`` processes each running a multithreaded BLAS on the
    same cores oversubscribe them; every loaded OpenBLAS gets
    ``cores // max_workers`` threads (at least one). Runs only in pool
    workers — the parent's BLAS keeps its own setting.
    """
    functions = _openblas_thread_functions()
    if not functions:
        return
    n = max(1, len(os.sched_getaffinity(0)) // max_workers)
    for _, setter, _ in functions:
        setter(n)


def new_pool(max_workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers cap their BLAS threads on start."""
    return ProcessPoolExecutor(
        max_workers=max_workers, initializer=cap_blas_threads,
        initargs=(max_workers,),
    )


def merge_telemetry(result: FragmentTaskResult) -> None:
    """Fold telemetry a pool worker shipped back into the parent.

    A parent-executed task reported into the ambient tracer/counters
    directly, so only foreign pids are merged.
    """
    if result.worker != os.getpid():
        get_tracer().adopt(result.spans)
        counters().merge(result.counters)


def _check(result: FragmentTaskResult,
           phase: str = "executor") -> FragmentTaskResult:
    # merge before the error check, so a failed task still leaves its
    # trace
    merge_telemetry(result)
    if result.error is not None:
        raise FragmentExecutorError(result.label, *result.error)
    # runtime sanitizer (QF_SANITIZE=1): re-validate the response with
    # the fragment label attached so a violation names its producer
    check_response(result.response, label=result.label, phase=phase)
    return result


def verify_determinism(
    tasks: list[FragmentTask],
    computed: dict[int, FragmentResponse],
    phase: str = "executor",
) -> None:
    """Serial-vs-pool digest comparison (``QF_SANITIZE_DETERMINISM=1``).

    Recomputes every task in the parent process and compares content
    hashes of the float64 payloads. The backends promise bitwise
    identical numerics; a mismatch means cross-process nondeterminism
    (BLAS thread effects, stale worker state) and raises a
    :class:`~repro.devtools.contracts.ContractViolation` naming the
    fragment. This doubles the compute — it is a debugging mode, not a
    production default.
    """
    for task in tasks:
        serial = _run_task(task)
        if serial.error is not None:
            raise FragmentExecutorError(task.label, *serial.error)
        pool_digest = response_digest(computed[task.index])
        serial_digest = response_digest(serial.response)
        if pool_digest != serial_digest:
            raise ContractViolation(
                f"pool result diverges from the serial reference "
                f"(serial {serial_digest[:12]} != pool {pool_digest[:12]})",
                name="response", rule="determinism",
                context=f"fragment={task.label} phase={phase}",
            )


class FragmentExecutor:
    """Common interface: ``run(tasks) -> (responses, report)``.

    ``responses`` maps ``task.index`` to its
    :class:`~repro.dfpt.hessian.FragmentResponse`. Executors are
    context managers; ``close()`` releases any worker pool.
    """

    name = "base"

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers or os.cpu_count() or 1

    def run(self, tasks: list[FragmentTask]
            ) -> tuple[dict[int, FragmentResponse], ThroughputReport]:
        raise NotImplementedError

    def run_one(self, task: FragmentTask) -> FragmentTaskResult:
        """Execute one task, capturing failure in the result.

        The per-attempt seam the resilience layer drives: never raises
        for a task-level failure (``result.error`` carries it), so the
        caller decides between retry, skip, and abort.
        """
        raise NotImplementedError

    def restart_pool(self) -> None:
        """Replace a broken worker pool (no-op for poolless backends).

        After a hard worker death (``BrokenProcessPool``) the pool
        rejects all further submissions; the resilience layer calls
        this before retrying.
        """

    def close(self) -> None:
        pass

    def __enter__(self) -> "FragmentExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _report(self, results: list[FragmentTaskResult], wall_s: float,
                busy_s: float | None = None) -> ThroughputReport:
        n = len(results)
        if busy_s is None:
            busy_s = sum(r.wall_s for r in results)
        denom = max(wall_s, 1e-12) * self.max_workers
        return ThroughputReport(
            backend=self.name,
            max_workers=self.max_workers,
            n_tasks=n,
            wall_s=wall_s,
            fragments_per_s=n / max(wall_s, 1e-12),
            worker_utilization=min(1.0, busy_s / denom),
            tasks=[
                {"label": r.label, "natoms": r.natoms,
                 "wall_s": r.wall_s, "worker": r.worker}
                for r in results
            ],
        )


class SerialExecutor(FragmentExecutor):
    """In-process loop — the reference backend."""

    name = "serial"

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers=1)

    def run_one(self, task):
        return _run_task(task)

    def run(self, tasks):
        sw = Stopwatch()
        results = [_check(_run_task(t), phase="serial") for t in tasks]
        report = self._report(results, sw.elapsed())
        return {r.index: r.response for r in results}, report


class ProcessExecutor(FragmentExecutor):
    """Fragment-level process pool, largest-first chunked dispatch."""

    name = "process"

    def __init__(self, max_workers: int | None = None, chunksize: int = 1):
        super().__init__(max_workers)
        self.chunksize = max(1, chunksize)
        self._pool = new_pool(self.max_workers)

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)

    def restart_pool(self) -> None:
        self.close()
        self._pool = new_pool(self.max_workers)
        counters().inc("resilience.pool_restarts")

    def run_one(self, task):
        try:
            return self._pool.submit(_run_task, task).result()
        except BrokenProcessPool as exc:
            # the worker died without returning (segfault, OOM-kill,
            # os._exit); synthesize a failed result naming the fragment
            return FragmentTaskResult(
                index=task.index, label=task.label, natoms=task.natoms,
                response=None, wall_s=0.0, worker=0,
                error=(f"worker process died before returning ({exc!r})",
                       ""),
            )

    def run(self, tasks):
        ordered = largest_first(tasks)
        sw = Stopwatch()
        # shared-memory dispatch (QF_SHM, default on): geometry arrays
        # go into one arena, the pool receives index-only descriptors —
        # kilobytes per task instead of a pickled Geometry. The arena
        # outlives every submission and is unlinked in the finally.
        arena = None
        if shm_enabled() and ordered:
            arena, descs = pack_tasks(ordered)
            units, entry = descs, _run_shm_chunk
        else:
            units, entry = ordered, _run_chunk
        chunks = [
            units[i: i + self.chunksize]
            for i in range(0, len(units), self.chunksize)
        ]
        results: list[FragmentTaskResult] = []
        pending = {
            self._pool.submit(
                entry,
                [d.to_wire() for d in c] if arena is not None else c,
            ): c
            for c in chunks
        }
        try:
            while pending:
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for fut in finished:
                    chunk = pending.pop(fut)
                    try:
                        chunk_results = fut.result()
                    except BrokenProcessPool as exc:
                        # without this, a hard worker death surfaces as
                        # a bare BrokenProcessPool with no hint of what
                        # was running; name the fragment(s) and phase
                        labels = ",".join(t.label for t in chunk)
                        raise FragmentExecutorError(
                            labels,
                            f"worker process died before returning "
                            f"({exc!r}) [phase=process]",
                        ) from exc
                    results.extend(
                        _check(r, phase="process") for r in chunk_results
                    )
        except Exception:
            for fut in pending:
                fut.cancel()
            raise
        finally:
            if arena is not None:
                arena.close()
        responses = {r.index: r.response for r in results}
        if determinism_check_enabled():
            verify_determinism(tasks, responses, phase="process")
        report = self._report(results, sw.elapsed())
        return responses, report


class DisplacementExecutor(FragmentExecutor):
    """Fragments in order, coordinate jobs fanned out to the pool.

    The right choice when the workload is a handful of large fragments:
    each fragment's ~6N displaced SCF/CPHF jobs saturate the pool even
    when the fragment count is below the core count.
    """

    name = "displacement"

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._pool = new_pool(self.max_workers)

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)

    def restart_pool(self) -> None:
        self.close()
        self._pool = new_pool(self.max_workers)
        counters().inc("resilience.pool_restarts")

    def run_one(self, task):
        sw_task = Stopwatch()
        plan = active_fault_plan()
        fault = plan.lookup(task.label, task.attempt) \
            if plan is not None else None
        with get_tracer().span(
            "fragment", label=task.label, natoms=task.natoms,
            attempt=task.attempt,
        ) as sp:
            try:
                if fault is not None:
                    counters().inc("resilience.faults_injected")
                    apply_pre_fault(fault)
                resp = fragment_response(
                    task.geometry,
                    delta=task.delta,
                    compute_raman=task.compute_raman,
                    compute_ir=task.compute_ir,
                    basis_name=task.basis_name,
                    eri_mode=task.eri_mode,
                    schwarz_cutoff=task.schwarz_cutoff,
                    pool=self._pool,
                )
                apply_post_fault(fault, resp)
                error = None
            except Exception as exc:  # qf: broad-except — captured for the caller
                resp = None
                error = (repr(exc), traceback.format_exc())
            sp.set(ok=error is None)
        return FragmentTaskResult(
            index=task.index, label=task.label, natoms=task.natoms,
            response=resp, wall_s=sw_task.elapsed(), worker=os.getpid(),
            error=error,
        )

    def run(self, tasks):
        sw = Stopwatch()
        results: list[FragmentTaskResult] = []
        busy_s = 0.0
        for task in tasks:
            result = self.run_one(task)
            if result.error is not None:
                raise FragmentExecutorError(task.label, *result.error)
            resp = result.response
            timer = resp.meta.get("timer")
            if timer is not None:
                busy_s += sum(
                    timer.total(k) for k in
                    ("scf_displaced", "gradient_displaced", "cphf_displaced")
                )
            check_response(resp, label=task.label, phase="displacement")
            results.append(result)
        responses = {r.index: r.response for r in results}
        if determinism_check_enabled():
            verify_determinism(tasks, responses, phase="displacement")
        report = self._report(results, sw.elapsed(), busy_s=busy_s)
        return responses, report


_BACKENDS = {
    "serial": SerialExecutor,
    "process": ProcessExecutor,
    "displacement": DisplacementExecutor,
}


def make_executor(
    backend: str = "serial",
    max_workers: int | None = None,
    chunksize: int = 1,
    resilience=None,
    run_store=None,
    canonical: str | None = None,
) -> FragmentExecutor:
    """Instantiate an executor backend by name.

    ``max_workers`` defaults to the CPU count for the parallel
    backends (ignored by ``serial``); ``chunksize`` only affects
    ``process``. Passing a
    :class:`~repro.pipeline.resilience.ResiliencePolicy` (or True for
    the defaults) and/or a ``run_store`` directory wraps the backend in
    the fault-tolerant :class:`~repro.pipeline.resilience.ResilientExecutor`
    (retries, timeouts, checkpoint/resume; see docs/resilience.md).
    ``canonical`` selects the run store's rigid-motion cache mode
    (``off``/``exact``/``rigid``; default resolves ``QF_CANON`` — see
    docs/caching.md) and is ignored when ``run_store`` is already a
    :class:`~repro.pipeline.resilience.RunStore` instance.
    """
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown executor backend {backend!r}; "
            f"expected one of {sorted(_BACKENDS)}"
        )
    if resilience is not None or run_store is not None:
        from repro.pipeline.resilience import ResiliencePolicy, ResilientExecutor

        policy = None if resilience in (None, True) else resilience
        if policy is not None and not isinstance(policy, ResiliencePolicy):
            raise TypeError(
                f"resilience must be a ResiliencePolicy, got {policy!r}"
            )
        return ResilientExecutor(
            base=backend, max_workers=max_workers, policy=policy,
            store=run_store, canonical=canonical,
        )
    cls = _BACKENDS[backend]
    if cls is ProcessExecutor:
        return cls(max_workers=max_workers, chunksize=chunksize)
    return cls(max_workers=max_workers)
