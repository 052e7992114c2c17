"""Supervised process-pool execution with retry, timeout, and fallback.

:func:`run_supervised` is the fault-tolerant engine behind
``repro.experiments.parallel.map_deterministic``: an order-preserving map
over independent work units that survives the three classic worker
failures —

- **crash** (an OOM-killed or ``os._exit``-ing worker breaks the pool):
  the pool is torn down, surviving units are resubmitted to a fresh pool,
  and the crashed unit's attempt counter advances;
- **hang** (a unit exceeds its wall-clock ``task_timeout``): hung workers
  cannot be cancelled through :class:`~concurrent.futures.ProcessPoolExecutor`,
  so the pool is killed and rebuilt, charging the timeout to the
  over-deadline unit(s) only;
- **transient exception**: retried in place with deterministic exponential
  backoff (:meth:`RetryPolicy.delay` is a pure function of ``(seed, key,
  attempt)``, so retry scheduling never perturbs the bit-identical
  ``--jobs``/``--workers`` results contract).

After ``max_pool_restarts`` pool failures the supervisor degrades
gracefully to in-process serial execution, where crash/hang faults from
the injection harness (:mod:`repro.runtime.faults`) demote to ordinary
exceptions and the same retry budget applies.

Retry accounting distinguishes *attributed* failures (an exception raised
by the unit itself, or its own timeout) from *collateral* ones (a sibling
crashed the shared pool): only attributed failures consume the per-unit
``retries`` budget, while pool breakage is bounded separately by
``max_pool_restarts`` — so one crashy unit cannot exhaust an innocent
neighbour's budget.

Completed units are journaled through an optional
:class:`~repro.runtime.checkpoint.CheckpointJournal` the moment they
finish; on a later run the journal pre-fills those units and the pool
only executes the remainder (``repro all --resume``).
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Generic, Iterable, Sequence, TypeVar

from .checkpoint import CheckpointJournal, stable_fraction
from .faults import FaultPlan

__all__ = [
    "RetryPolicy",
    "SupervisedOutcome",
    "TaskError",
    "resolve_workers",
    "run_supervised",
]

T = TypeVar("T")
R = TypeVar("R")

#: Default extra attempts per unit after the first.
DEFAULT_RETRIES = 2

#: Default pool rebuilds tolerated before degrading to serial execution.
DEFAULT_MAX_POOL_RESTARTS = 3


def resolve_workers(workers: int) -> int:
    """Normalize a worker count: ``0`` means "all cores", ``1`` serial."""
    if workers < 0:
        raise ValueError("worker count must be non-negative")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff + jitter.

    ``delay`` is a pure function of ``(seed, key, attempt)`` — no clock,
    no ambient RNG — so the backoff schedule of any unit is reproducible
    and unit-testable, and sleeping between retries can never change a
    result (only wall-clock time).
    """

    retries: int = DEFAULT_RETRIES
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    jitter: float = 0.25
    seed: int = 2008

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.backoff_cap < 0:
            raise ValueError("invalid backoff parameters")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")

    def delay(self, key: str, attempt: int) -> float:
        """Seconds to back off before retry ``attempt`` (>= 1) of ``key``."""
        if attempt < 1:
            return 0.0
        raw = min(
            self.backoff_cap, self.backoff_base * self.backoff_factor ** (attempt - 1)
        )
        return raw * (1.0 + self.jitter * stable_fraction(self.seed, key, attempt))


class TaskError(RuntimeError):
    """A work unit exhausted its retry budget."""

    def __init__(self, key: str, attempts: int, cause: BaseException):
        super().__init__(
            f"work unit {key!r} failed after {attempts} attempt(s): {cause!r}"
        )
        self.key = key
        self.attempts = attempts
        self.cause = cause


class _TaskTimeout(RuntimeError):
    """Internal marker: a unit exceeded its wall-clock timeout."""


@dataclass(slots=True)
class SupervisedOutcome(Generic[R]):
    """Results plus the supervision bookkeeping the tests assert on."""

    results: list[R]
    attempts: dict[str, int] = field(default_factory=dict)
    """Per-key attempts executed this run (0 for journal-resumed units)."""
    resumed: tuple[str, ...] = ()
    """Keys pre-filled from the checkpoint journal, in input order."""
    delays: tuple[float, ...] = ()
    """Backoff delays slept, in scheduling order."""
    pool_restarts: int = 0
    serial_fallback: bool = False


def _invoke_unit(
    fn: Callable[[T], R],
    item: T,
    key: str,
    attempt: int,
    plan: FaultPlan | None,
    in_worker: bool,
) -> R:
    """The (picklable) unit entrypoint every dispatch path funnels through.

    Runs inside a pool worker (``in_worker=True``) or in the supervising
    process (serial mode / fallback).  The fault-injection hook fires
    first, so an injected crash kills the worker before any real work —
    the harshest point in the unit's lifetime.
    """
    if plan is not None:
        plan.inject(key, attempt, in_worker=in_worker)
    return fn(item)


def _identity(value: Any) -> Any:
    return value


def _init_worker() -> None:
    """Reset inherited signal handlers in a freshly forked pool worker.

    The supervising process may translate SIGTERM into KeyboardInterrupt
    (see ``repro.experiments.runner``); a worker inheriting that handler
    would print a spurious traceback every time the supervisor reaps its
    pool.  Workers die quietly on SIGTERM and leave Ctrl-C handling to the
    parent.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class _Supervisor(Generic[T, R]):
    """One ``run_supervised`` call's mutable state."""

    def __init__(
        self,
        fn: Callable[[T], R],
        work: list[T],
        keys: list[str],
        *,
        workers: int,
        task_timeout: float | None,
        policy: RetryPolicy,
        faults: FaultPlan | None,
        journal: CheckpointJournal | None,
        encode: Callable[[R], Any],
        decode: Callable[[Any], R],
        max_pool_restarts: int,
        sleep: Callable[[float], None],
    ) -> None:
        self.fn = fn
        self.work = work
        self.keys = keys
        self.workers = workers
        self.task_timeout = task_timeout
        self.policy = policy
        self.faults = faults
        self.journal = journal
        self.encode = encode
        self.decode = decode
        self.max_pool_restarts = max_pool_restarts
        self.sleep = sleep

        self.results: list[Any] = [None] * len(work)
        self.done: list[bool] = [False] * len(work)
        #: concluded failed attempts per index (drives injection + backoff)
        self.attempt_no: list[int] = [0] * len(work)
        #: attributed failures per index (consumes the retry budget)
        self.budget_used: list[int] = [0] * len(work)
        self.executed_attempts: dict[str, int] = {}
        self.delays: list[float] = []
        self.pool_restarts = 0
        self.serial_fallback = False

    # -- shared bookkeeping ---------------------------------------------------

    def _complete(self, index: int, result: R) -> None:
        self.results[index] = result
        self.done[index] = True
        key = self.keys[index]
        self.executed_attempts[key] = self.attempt_no[index] + 1
        if self.journal is not None:
            self.journal.record(key, self.encode(result))

    def _backoff(self, index: int) -> None:
        delay = self.policy.delay(self.keys[index], self.attempt_no[index])
        if delay > 0:
            self.delays.append(delay)
            self.sleep(delay)

    def _fail_attempt(
        self, index: int, exc: BaseException, *, attributed: bool
    ) -> None:
        """Charge one failed attempt; raise TaskError past the budget."""
        self.attempt_no[index] += 1
        if attributed:
            self.budget_used[index] += 1
            if self.budget_used[index] > self.policy.retries:
                raise TaskError(
                    self.keys[index], self.attempt_no[index], exc
                ) from exc
        self._backoff(index)

    # -- serial execution (workers <= 1, and the degraded fallback) ----------

    def run_serial(self, indices: Iterable[int]) -> None:
        for index in indices:
            while not self.done[index]:
                try:
                    result = _invoke_unit(
                        self.fn,
                        self.work[index],
                        self.keys[index],
                        self.attempt_no[index],
                        self.faults,
                        False,
                    )
                except Exception as exc:  # noqa: BLE001 — every unit failure retries
                    self._fail_attempt(index, exc, attributed=True)
                else:
                    self._complete(index, result)

    # -- pool execution -------------------------------------------------------

    def run_pool(self, indices: list[int]) -> None:
        pending: deque[int] = deque(indices)
        in_flight: dict[Future[R], tuple[int, float]] = {}
        pool: ProcessPoolExecutor | None = None
        pool_size = min(self.workers, len(indices))
        try:
            while pending or in_flight:
                if self.pool_restarts > self.max_pool_restarts:
                    # degraded mode: reap whatever the pool had and go serial
                    pending.extend(i for i, _ in in_flight.values())
                    in_flight.clear()
                    self.serial_fallback = True
                    self.run_serial(sorted(pending))
                    return
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=pool_size, initializer=_init_worker
                    )
                try:
                    while pending and len(in_flight) < pool_size:
                        index = pending[0]
                        future = pool.submit(
                            _invoke_unit,
                            self.fn,
                            self.work[index],
                            self.keys[index],
                            self.attempt_no[index],
                            self.faults,
                            True,
                        )
                        # popped only after submit succeeds: a submit-time
                        # BrokenProcessPool must not drop the unit
                        pending.popleft()
                        deadline = (
                            time.monotonic() + self.task_timeout
                            if self.task_timeout is not None
                            else float("inf")
                        )
                        in_flight[future] = (index, deadline)
                except BrokenProcessPool:
                    pool = self._restart_pool(pool, in_flight, pending)
                    continue
                if not in_flight:
                    continue
                timeout = self._wait_timeout(in_flight)
                finished, _ = wait(
                    set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                now = time.monotonic()
                broken = False
                for future in finished:
                    index, _ = in_flight.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        # a worker died; attempt advances but the budget is
                        # charged to the pool-restart bound, not the unit
                        broken = True
                        self.attempt_no[index] += 1
                        self._backoff(index)
                        pending.append(index)
                    except Exception as exc:  # noqa: BLE001 — in-band unit failure
                        self._fail_attempt(index, exc, attributed=True)
                        pending.append(index)
                    else:
                        self._complete(index, result)
                if broken:
                    pool = self._restart_pool(pool, in_flight, pending)
                    continue
                timed_out = [
                    future
                    for future, (_, deadline) in in_flight.items()
                    if now >= deadline
                ]
                if timed_out:
                    # hung workers cannot be cancelled: charge the timeout to
                    # the over-deadline units and rebuild the pool for the rest
                    for future in timed_out:
                        index, _ = in_flight.pop(future)
                        self._fail_attempt(
                            index,
                            _TaskTimeout(
                                f"unit {self.keys[index]!r} exceeded "
                                f"{self.task_timeout}s"
                            ),
                            attributed=True,
                        )
                        pending.append(index)
                    pool = self._restart_pool(pool, in_flight, pending)
        finally:
            if pool is not None:
                _kill_pool(pool)

    def _restart_pool(
        self,
        pool: ProcessPoolExecutor,
        in_flight: dict[Future[R], tuple[int, float]],
        pending: deque[int],
    ) -> ProcessPoolExecutor | None:
        """Tear the pool down and requeue survivors collaterally (no budget
        charge, no attempt advance — their fault schedule is untouched).
        Returns None so the caller's ``pool`` binding forces a lazy rebuild.
        """
        for index, _ in in_flight.values():
            pending.append(index)
        in_flight.clear()
        _kill_pool(pool)
        self.pool_restarts += 1
        return None

    def _wait_timeout(
        self, in_flight: dict[Future[R], tuple[int, float]]
    ) -> float | None:
        earliest = min(deadline for _, deadline in in_flight.values())
        if earliest == float("inf"):
            return None
        return max(0.01, earliest - time.monotonic())


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a (possibly hung or broken) pool down hard: cancel queued work,
    terminate worker processes, and reap them."""
    worker_map = getattr(pool, "_processes", None)  # CPython internal, best effort
    processes = list(worker_map.values()) if isinstance(worker_map, dict) else []
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError, AttributeError):
            pass
    for process in processes:
        try:
            process.join(timeout=1.0)
        except (OSError, ValueError, AssertionError):
            pass


def run_supervised(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    workers: int = 1,
    keys: Sequence[str] | None = None,
    journal: CheckpointJournal | None = None,
    encode: Callable[[R], Any] | None = None,
    decode: Callable[[Any], R] | None = None,
    task_timeout: float | None = None,
    retries: int | None = None,
    policy: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    max_pool_restarts: int = DEFAULT_MAX_POOL_RESTARTS,
    sleep: Callable[[float], None] = time.sleep,
) -> SupervisedOutcome[R]:
    """Order-preserving, fault-tolerant map over independent work units.

    ``fn`` and every item must be picklable (module-level) when
    ``workers > 1``.  ``keys`` are the stable per-unit identities used for
    fault scheduling, backoff jitter, and journaling — pass
    :func:`~repro.runtime.checkpoint.unit_key` keys when a ``journal`` is
    supplied (they are required then), otherwise positional defaults are
    generated.  ``encode``/``decode`` translate results to and from the
    journal's JSON payloads.  ``faults`` defaults to the ambient
    ``REPRO_FAULTS`` plan when unset.  With ``workers > 1`` each call
    forks and reaps its own pool.
    """
    work = list(items)
    n_workers = resolve_workers(workers)
    if keys is None:
        if journal is not None:
            raise ValueError(
                "journaling needs content-addressed keys; pass keys= "
                "(see repro.runtime.checkpoint.unit_key)"
            )
        key_list = [f"unit-{i}" for i in range(len(work))]
    else:
        key_list = [str(k) for k in keys]
        if len(key_list) != len(work):
            raise ValueError(
                f"got {len(key_list)} keys for {len(work)} work items"
            )
    if task_timeout is not None and task_timeout <= 0:
        raise ValueError("task_timeout must be positive (or None for no limit)")
    if max_pool_restarts < 0:
        raise ValueError("max_pool_restarts must be non-negative")
    active_policy = policy if policy is not None else RetryPolicy()
    if retries is not None:
        if retries < 0:
            raise ValueError("retries must be non-negative")
        active_policy = replace(active_policy, retries=retries)
    plan = faults if faults is not None else FaultPlan.from_env()

    supervisor: _Supervisor[T, R] = _Supervisor(
        fn,
        work,
        key_list,
        workers=n_workers,
        task_timeout=task_timeout,
        policy=active_policy,
        faults=plan,
        journal=journal,
        encode=encode if encode is not None else _identity,
        decode=decode if decode is not None else _identity,
        max_pool_restarts=max_pool_restarts,
        sleep=sleep,
    )

    resumed: list[str] = []
    if journal is not None:
        for index, key in enumerate(key_list):
            if key in journal:
                supervisor.results[index] = supervisor.decode(journal.payload(key))
                supervisor.done[index] = True
                supervisor.executed_attempts[key] = 0
                resumed.append(key)
    remaining = [i for i, is_done in enumerate(supervisor.done) if not is_done]

    if n_workers <= 1 or len(remaining) <= 1:
        supervisor.run_serial(remaining)
    else:
        supervisor.run_pool(remaining)

    dropped = [key_list[i] for i, is_done in enumerate(supervisor.done) if not is_done]
    if dropped:
        raise RuntimeError(
            f"supervisor invariant violated: {len(dropped)} unit(s) were never "
            f"completed nor raised (first: {dropped[:3]!r})"
        )

    return SupervisedOutcome(
        results=list(supervisor.results),
        attempts=dict(supervisor.executed_attempts),
        resumed=tuple(resumed),
        delays=tuple(supervisor.delays),
        pool_restarts=supervisor.pool_restarts,
        serial_fallback=supervisor.serial_fallback,
    )
