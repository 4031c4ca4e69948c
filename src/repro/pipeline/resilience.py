"""Fault-tolerant fragment execution: retries, timeouts, checkpoint/resume.

The paper's master/leader/worker machinery survives straggling and
dying workers across 96,000 nodes by reissuing unfinished tasks —
finished fragments live in the master's result store and are never
recomputed (§V-A). QF fragment methods make this cheap: every piece is
an independent, restartable unit. This module brings those semantics
to the *real* executors of :mod:`repro.pipeline.executor`:

:class:`~repro.pipeline.cache.RunStore`
    The response store (one content-addressed ``.npz`` per fragment
    class and config). Writes are atomic (tmp + rename), so an
    interrupted run — SIGKILL'd driver, dead worker, power loss —
    resumes with only the unfinished fragments, and the resumed
    spectrum is bit-identical to an uninterrupted run.

:class:`ResiliencePolicy`
    Per-fragment retry with exponential backoff and deterministic
    jitter, per-attempt wall-clock timeouts with speculative reissue
    of stragglers (process backend), and a failure policy:
    ``fail_fast`` aborts on the first exhausted fragment;
    ``skip_and_report`` degrades gracefully — the run completes, the
    partial Eq. (1) assembly omits the missing pieces, and the skipped
    fragments are flagged in the RunManifest.

:class:`ResilientExecutor`
    The driver threading both through all three backends. Process
    base: fully asynchronous — failures, corrupted results (validated
    with :func:`repro.devtools.contracts.check_response`, always on in
    resilient mode), worker deaths (``BrokenProcessPool`` → pool
    restart), and timeouts are handled per fragment while the rest of
    the pool keeps working. Serial / displacement bases: the same
    retry machinery around the synchronous ``run_one`` seam (timeouts
    are detected post-hoc there — an in-process attempt cannot be
    preempted — and the late-but-valid result is kept).

Every recovery path is deterministic and exercisable via the
``QF_FAULTS`` injection seam (:mod:`repro.pipeline.faults`); semantics
and the fault grammar are documented in ``docs/resilience.md``.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.devtools.contracts import ContractViolation, check_response
from repro.dfpt.hessian import FragmentResponse
from repro.obs.counters import counters
from repro.pipeline.cache import RunStore
from repro.pipeline.executor import (
    DisplacementExecutor,
    FragmentExecutor,
    FragmentExecutorError,
    FragmentTask,
    FragmentTaskResult,
    SerialExecutor,
    _run_task,
    largest_first,
    merge_telemetry,
    new_pool,
)
from repro.utils.timing import Stopwatch

__all__ = [
    "FAIL_FAST",
    "SKIP_AND_REPORT",
    "ResiliencePolicy",
    "ResilienceReport",
    "ResilientExecutor",
]

FAIL_FAST = "fail_fast"
SKIP_AND_REPORT = "skip_and_report"
_POLICIES = (FAIL_FAST, SKIP_AND_REPORT)

#: lower bound on the pool-loop wait slice — keeps deadline checks
#: responsive without busy-spinning
_MIN_TICK_S = 0.01
_MAX_TICK_S = 0.5


@dataclass(frozen=True)
class ResiliencePolicy:
    """How hard to try before declaring a fragment lost.

    ``max_attempts`` counts the first execution: 1 means no retries.
    Backoff before attempt ``k >= 2`` is
    ``backoff_s * backoff_factor**(k - 2)``, stretched by a
    deterministic jitter fraction derived from (seed, label, attempt)
    — reproducible run-to-run, decorrelated across fragments.
    ``timeout_s`` bounds one attempt's wall clock: the process backend
    speculatively reissues a straggler the moment it exceeds it (the
    first valid result wins); the in-process backends detect the
    overrun only after the attempt returns and keep the valid result.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25
    timeout_s: float | None = None
    failure_policy: str = FAIL_FAST
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, "
                             f"got {self.max_attempts}")
        if self.failure_policy not in _POLICIES:
            raise ValueError(
                f"failure_policy must be one of {_POLICIES}, "
                f"got {self.failure_policy!r}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, "
                             f"got {self.timeout_s}")
        if self.backoff_s < 0 or self.backoff_factor < 1 or self.jitter < 0:
            raise ValueError("backoff_s >= 0, backoff_factor >= 1, "
                             "jitter >= 0 required")

    def backoff(self, label: str, attempt: int) -> float:
        """Seconds to wait before launching ``attempt`` (1-based)."""
        if attempt <= 1 or self.backoff_s == 0.0:  # qf: exact-zero — disabled-backoff guard
            return 0.0
        base = self.backoff_s * self.backoff_factor ** (attempt - 2)
        digest = hashlib.sha256(
            f"{self.seed}|{label}|{attempt}".encode()
        ).digest()
        frac = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return base * (1.0 + self.jitter * frac)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class ResilienceReport:
    """What the fault-tolerance layer did during one ``run``.

    Embedded (as a dict) in the run's
    :class:`~repro.pipeline.executor.ThroughputReport`, and through it
    in the :class:`~repro.obs.manifest.RunManifest` — production runs
    must be auditable for how many results needed a second chance.
    """

    policy: dict = field(default_factory=dict)
    n_tasks: int = 0
    store_hits: int = 0
    store_writes: int = 0
    retries: int = 0
    reissues: int = 0
    timeouts: int = 0
    corrupted: int = 0
    pool_restarts: int = 0
    attempts: dict = field(default_factory=dict)     # label -> attempts used
    failures: dict = field(default_factory=dict)     # label -> [descriptions]
    skipped: list = field(default_factory=list)      # [{label, index, ...}]

    def as_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        bits = [f"{self.n_tasks} tasks", f"{self.store_hits} from store",
                f"{self.retries} retries", f"{self.reissues} reissues"]
        if self.skipped:
            bits.append(f"{len(self.skipped)} SKIPPED")
        return "resilience: " + ", ".join(bits)


@dataclass
class _FragmentState:
    """Pool-mode bookkeeping for one fragment."""

    task: FragmentTask
    attempts: int = 0        # attempts submitted so far
    live: int = 0            # in-flight attempts not yet timed out
    scheduled: int = 0       # queued (re)submissions not yet launched
    done: bool = False
    dead: bool = False       # exhausted; skipped under skip_and_report


class ResilientExecutor(FragmentExecutor):
    """Retry/timeout/checkpoint wrapper around an executor backend.

    ``run`` never hangs on a lost worker and never discards finished
    work: completed fragments go to the :class:`RunStore` (when
    configured) the moment they validate, and failures are retried per
    the :class:`ResiliencePolicy` before the failure policy decides
    between aborting and degrading.
    """

    name = "resilient"

    def __init__(
        self,
        base: str = "process",
        max_workers: int | None = None,
        policy: ResiliencePolicy | None = None,
        store: RunStore | str | Path | None = None,
    ):
        if base not in ("serial", "process", "displacement"):
            raise ValueError(
                f"unknown resilient base backend {base!r}; "
                "expected serial, process, or displacement"
            )
        super().__init__(max_workers=1 if base == "serial" else max_workers)
        self.base_name = base
        self.name = f"resilient+{base}"
        self.policy = policy if policy is not None else ResiliencePolicy()
        if store is not None and not isinstance(store, RunStore):
            store = RunStore(store)
        self.store = store
        self.last_report: ResilienceReport | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._base: FragmentExecutor | None = None
        if base == "process":
            self._pool = new_pool(self.max_workers)
        elif base == "serial":
            self._base = SerialExecutor()
        else:
            self._base = DisplacementExecutor(max_workers=self.max_workers)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        if self._base is not None:
            self._base.close()

    def restart_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = new_pool(self.max_workers)
            counters().inc("resilience.pool_restarts")
        elif self._base is not None:
            self._base.restart_pool()

    # -- run ---------------------------------------------------------------

    def run(self, tasks):
        sw = Stopwatch()
        report = ResilienceReport(policy=self.policy.as_dict(),
                                  n_tasks=len(tasks))
        self.last_report = report
        responses: dict[int, FragmentResponse] = {}
        results: list[FragmentTaskResult] = []
        todo: list[FragmentTask] = []
        for task in largest_first(tasks):
            stored = self.store.load(task) if self.store is not None else None
            if stored is not None:
                report.store_hits += 1
                responses[task.index] = stored
                continue
            todo.append(task)
        if todo:
            if self.base_name == "process":
                self._run_pool(todo, responses, results, report)
            else:
                self._run_sync(todo, responses, results, report)
        throughput = self._report(results, sw.elapsed())
        throughput.n_tasks = len(tasks)
        throughput.resilience = report.as_dict()
        return responses, throughput

    # -- shared helpers ----------------------------------------------------

    def _failure_of(self, result: FragmentTaskResult,
                    report: ResilienceReport) -> str | None:
        """Why this attempt cannot be accepted (None = it can).

        Corrupted-array detection is always on here — in resilient
        mode a silently wrong result must feed the retry path, not the
        spectrum — hence ``force=True`` regardless of ``QF_SANITIZE``.
        """
        if result.error is not None:
            return f"worker raised: {result.error[0]}"
        try:
            check_response(result.response, label=result.label,
                           phase="resilient", force=True)
        except ContractViolation as exc:
            report.corrupted += 1
            counters().inc("resilience.corrupted")
            return f"corrupted result: {exc}"
        return None

    def _record_failure(self, report: ResilienceReport, label: str,
                        attempt: int, why: str) -> None:
        report.failures.setdefault(label, []).append(
            f"attempt {attempt}: {why}"
        )

    def _accept(self, task: FragmentTask, result: FragmentTaskResult,
                responses, results, report: ResilienceReport) -> None:
        responses[task.index] = result.response
        results.append(result)
        if self.store is not None:
            self.store.store(task, result.response)
            report.store_writes += 1

    def _give_up(self, task: FragmentTask,
                 report: ResilienceReport) -> None:
        failures = report.failures.get(task.label, [])
        counters().inc("resilience.skipped")
        entry = {
            "label": task.label,
            "index": task.index,
            "attempts": report.attempts.get(task.label, 0),
            "errors": list(failures),
        }
        report.skipped.append(entry)
        if self.policy.failure_policy == FAIL_FAST:
            raise FragmentExecutorError(
                task.label,
                f"retries exhausted after "
                f"{report.attempts.get(task.label, 0)} attempt(s): "
                + ("; ".join(failures) or "no attempt completed"),
            )

    # -- synchronous bases (serial, displacement) --------------------------

    def _run_sync(self, tasks, responses, results,
                  report: ResilienceReport) -> None:
        policy = self.policy
        for task in tasks:
            for attempt in range(1, policy.max_attempts + 1):
                report.attempts[task.label] = attempt
                if attempt > 1:
                    report.retries += 1
                    counters().inc("resilience.retries")
                    delay = policy.backoff(task.label, attempt)
                    if delay > 0:
                        time.sleep(delay)
                result = self._base.run_one(replace(task, attempt=attempt))
                merge_telemetry(result)
                failure = self._failure_of(result, report)
                if failure is None:
                    if policy.timeout_s is not None \
                            and result.wall_s > policy.timeout_s:
                        # post-hoc straggler detection: an in-process
                        # attempt cannot be preempted, so the (valid)
                        # late result is kept and only recorded
                        report.timeouts += 1
                        counters().inc("resilience.timeouts")
                    self._accept(task, result, responses, results, report)
                    break
                self._record_failure(report, task.label, attempt, failure)
                if "BrokenProcessPool" in failure:
                    # the displacement base shares one pool across
                    # fragments; replace it or every retry inherits
                    # the corpse
                    self._base.restart_pool()
                    report.pool_restarts += 1
            else:
                self._give_up(task, report)

    # -- asynchronous pool base (process) ----------------------------------

    def _run_pool(self, tasks, responses, results,
                  report: ResilienceReport) -> None:
        policy = self.policy
        clock = Stopwatch()
        state = {t.index: _FragmentState(task=t) for t in tasks}
        ready: list[tuple[float, int]] = [(0.0, t.index) for t in tasks]
        pending: dict = {}   # future -> [index, attempt, deadline, reissued]

        def submit(index: int) -> None:
            st = state[index]
            if st.done or st.dead or st.attempts >= policy.max_attempts:
                return
            st.attempts += 1
            st.live += 1
            report.attempts[st.task.label] = st.attempts
            fut = self._pool.submit(
                _run_task, replace(st.task, attempt=st.attempts)
            )
            deadline = (clock.elapsed() + policy.timeout_s
                        if policy.timeout_s is not None else None)
            pending[fut] = [index, st.attempts, deadline, False]

        def schedule_retry(st: _FragmentState, *, backoff: bool) -> None:
            """Queue the next attempt (ordinary retry or reissue)."""
            at = clock.elapsed()
            if backoff:
                report.retries += 1
                counters().inc("resilience.retries")
                at += policy.backoff(st.task.label, st.attempts + 1)
            else:
                report.reissues += 1
                counters().inc("resilience.reissues")
            st.scheduled += 1
            ready.append((at, st.task.index))

        def on_failure(st: _FragmentState, attempt: int, why: str) -> None:
            self._record_failure(report, st.task.label, attempt, why)
            if not st.done and not st.dead \
                    and st.attempts + st.scheduled < policy.max_attempts:
                schedule_retry(st, backoff=True)

        def settle_dead() -> None:
            """Declare fragments with no remaining path to success."""
            for st in state.values():
                if st.done or st.dead:
                    continue
                if st.attempts >= policy.max_attempts and st.live == 0 \
                        and st.scheduled == 0:
                    st.dead = True
                    self._give_up(st.task, report)   # raises on fail_fast

        try:
            while any(not (st.done or st.dead) for st in state.values()):
                now = clock.elapsed()
                # launch everything whose backoff has elapsed
                still_waiting = []
                for at, index in ready:
                    if at <= now:
                        state[index].scheduled = max(
                            0, state[index].scheduled - 1)
                        submit(index)
                    else:
                        still_waiting.append((at, index))
                ready[:] = still_waiting
                settle_dead()
                if not any(not (st.done or st.dead)
                           for st in state.values()):
                    break
                if not pending:
                    if not ready:       # pragma: no cover - defensive
                        raise RuntimeError(
                            "resilient pool loop stalled with unfinished "
                            "fragments and nothing in flight"
                        )
                    time.sleep(max(_MIN_TICK_S,
                                   min(at for at, _ in ready) - now))
                    continue
                # wait slice: the nearest deadline or queued launch
                horizons = [at - now for at, _ in ready]
                horizons += [rec[2] - now for rec in pending.values()
                             if rec[2] is not None and not rec[3]]
                tick = min(horizons) if horizons else _MAX_TICK_S
                tick = min(max(tick, _MIN_TICK_S), _MAX_TICK_S)
                finished, _ = wait(list(pending), timeout=tick,
                                   return_when=FIRST_COMPLETED)
                pool_broke = False
                for fut in finished:
                    index, attempt, _deadline, reissued = pending.pop(fut)
                    st = state[index]
                    if not reissued:
                        st.live -= 1
                    try:
                        result = fut.result()
                    except BrokenProcessPool as exc:
                        pool_broke = True
                        on_failure(st, attempt,
                                   f"worker process died before returning "
                                   f"({exc!r})")
                        continue
                    except CancelledError:      # pragma: no cover
                        continue
                    merge_telemetry(result)
                    if st.done or st.dead:
                        # a straggler's result arriving after the
                        # fragment was settled by a reissue
                        counters().inc("resilience.late_results")
                        continue
                    failure = self._failure_of(result, report)
                    if failure is None:
                        st.done = True
                        self._accept(st.task, result, responses, results,
                                     report)
                    else:
                        on_failure(st, attempt, failure)
                if pool_broke:
                    # every other in-flight future died with the pool
                    for fut, rec in list(pending.items()):
                        index, attempt, _d, reissued = rec
                        st = state[index]
                        if not reissued:
                            st.live -= 1
                        on_failure(st, attempt,
                                   "worker pool broke while task was in "
                                   "flight (BrokenProcessPool)")
                    pending.clear()
                    self.restart_pool()
                    report.pool_restarts += 1
                # speculative reissue of stragglers past their deadline
                if policy.timeout_s is not None:
                    now = clock.elapsed()
                    for fut, rec in pending.items():
                        index, attempt, deadline, reissued = rec
                        if reissued or deadline is None or now <= deadline:
                            continue
                        st = state[index]
                        rec[3] = True       # the attempt is written off
                        st.live -= 1
                        report.timeouts += 1
                        counters().inc("resilience.timeouts")
                        self._record_failure(
                            report, st.task.label, attempt,
                            f"timed out after {policy.timeout_s:.3g}s "
                            "(speculative reissue)",
                        )
                        if not st.done and not st.dead \
                                and st.attempts + st.scheduled \
                                < policy.max_attempts:
                            schedule_retry(st, backoff=False)
                settle_dead()
        except Exception:
            for fut in pending:
                fut.cancel()
            raise
