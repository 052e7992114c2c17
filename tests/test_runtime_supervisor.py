"""Tests for the supervised worker pool (``repro.runtime.supervisor``).

The fault seams — crash (``os._exit`` in a pool worker), hang (sleep past
the task timeout), transient (fail the first k attempts, then succeed) —
are driven through the deterministic :class:`FaultPlan` schedule, so every
assertion here is reproducible: retry counts, backoff delays, pool
restarts, and the serial-fallback activation are pure functions of the
plan's seed.
"""

from __future__ import annotations

import pytest

from repro.runtime import (
    CheckpointJournal,
    FaultPlan,
    RetryPolicy,
    TaskError,
    run_supervised,
)

#: Backoff sleeps are injected away — tests assert on recorded delays
#: instead of wall-clock time.
NO_SLEEP = {"sleep": lambda _s: None}


def _double(x: int) -> int:
    return x * 2


def _boom(x: int) -> int:
    raise ValueError(f"bad unit {x}")


class TestSerialBasics:
    def test_order_preserving_map(self):
        outcome = run_supervised(_double, [3, 1, 2], workers=1)
        assert outcome.results == [6, 2, 4]
        assert outcome.pool_restarts == 0
        assert not outcome.serial_fallback
        assert set(outcome.attempts.values()) == {1}

    def test_empty_input(self):
        assert run_supervised(_double, [], workers=4).results == []

    def test_real_failure_exhausts_budget(self):
        with pytest.raises(TaskError) as info:
            run_supervised(_boom, [7], workers=1, retries=2, **NO_SLEEP)
        assert info.value.attempts == 3  # 1 try + 2 retries
        assert isinstance(info.value.cause, ValueError)

    def test_zero_retries_fails_fast(self):
        with pytest.raises(TaskError) as info:
            run_supervised(_boom, [7], workers=1, retries=0, **NO_SLEEP)
        assert info.value.attempts == 1


class TestValidation:
    def test_journal_requires_keys(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        with pytest.raises(ValueError, match="keys"):
            run_supervised(_double, [1], journal=journal)

    def test_key_count_must_match(self):
        with pytest.raises(ValueError, match="keys"):
            run_supervised(_double, [1, 2], keys=["only-one"])

    def test_task_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="task_timeout"):
            run_supervised(_double, [1], task_timeout=0.0)

    def test_retries_must_be_non_negative(self):
        with pytest.raises(ValueError, match="retries"):
            run_supervised(_double, [1], retries=-1)


class TestRetryAccounting:
    def test_transient_faults_retry_to_success(self):
        plan = FaultPlan(seed=5, rate=1.0, kinds=("transient",), max_failures=2)
        keys = [f"u{i}" for i in range(6)]
        outcome = run_supervised(
            _double, list(range(6)), keys=keys, retries=2, faults=plan, **NO_SLEEP
        )
        assert outcome.results == [0, 2, 4, 6, 8, 10]
        for key in keys:
            assert outcome.attempts[key] == plan.planned_failures(key) + 1

    def test_backoff_delays_are_deterministic(self):
        plan = FaultPlan(seed=5, rate=1.0, kinds=("transient",), max_failures=2)
        keys = [f"u{i}" for i in range(4)]
        runs = [
            run_supervised(
                _double, list(range(4)), keys=keys, retries=2, faults=plan, **NO_SLEEP
            )
            for _ in range(2)
        ]
        assert runs[0].delays == runs[1].delays
        assert len(runs[0].delays) > 0
        assert all(d > 0 for d in runs[0].delays)

    def test_retries_flag_bounds_transients(self):
        plan = FaultPlan(seed=3, rate=1.0, kinds=("transient",), max_failures=5)
        key = "victim"
        needed = plan.planned_failures(key)
        assert needed >= 1
        with pytest.raises(TaskError):
            run_supervised(
                _double, [1], keys=[key], retries=needed - 1, faults=plan, **NO_SLEEP
            )
        outcome = run_supervised(
            _double, [1], keys=[key], retries=needed, faults=plan, **NO_SLEEP
        )
        assert outcome.results == [2]


class TestRetryPolicy:
    def test_no_delay_before_first_retry(self):
        assert RetryPolicy().delay("k", 0) == 0.0

    def test_growth_and_cap(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_cap=0.4, jitter=0.0)
        assert policy.delay("k", 1) == pytest.approx(0.1)
        assert policy.delay("k", 2) == pytest.approx(0.2)
        assert policy.delay("k", 3) == pytest.approx(0.4)
        assert policy.delay("k", 9) == pytest.approx(0.4)  # capped

    def test_jitter_bounded_and_deterministic(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=1.0, jitter=0.5)
        d1 = policy.delay("k", 1)
        assert 0.1 <= d1 <= 0.1 * 1.5
        assert d1 == policy.delay("k", 1)
        assert policy.delay("other", 1) != d1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


class TestJournalResume:
    def test_resume_skips_completed_units(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        keys = [f"u{i}" for i in range(5)]
        first = run_supervised(_double, list(range(5)), keys=keys, journal=journal)
        assert first.resumed == ()
        assert len(journal) == 5

        second = run_supervised(
            _double, list(range(5)), keys=keys, journal=CheckpointJournal(tmp_path / "j")
        )
        assert second.results == first.results
        assert second.resumed == tuple(keys)
        assert all(second.attempts[k] == 0 for k in keys)

    def test_partial_resume_runs_only_missing(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        keys = [f"u{i}" for i in range(4)]
        journal.record("u0", 0)
        journal.record("u2", 4)
        outcome = run_supervised(
            _double, list(range(4)), keys=keys, journal=journal
        )
        assert outcome.results == [0, 2, 4, 6]
        assert outcome.resumed == ("u0", "u2")
        assert outcome.attempts["u0"] == 0 and outcome.attempts["u1"] == 1

    def test_encode_decode_round_trip(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        keys = ["a", "b"]
        run_supervised(
            _double,
            [1, 2],
            keys=keys,
            journal=journal,
            encode=lambda r: {"value": r},
            decode=lambda p: int(p["value"]),  # type: ignore[index]
        )
        resumed = run_supervised(
            _double,
            [1, 2],
            keys=keys,
            journal=CheckpointJournal(tmp_path / "j"),
            encode=lambda r: {"value": r},
            decode=lambda p: int(p["value"]),  # type: ignore[index]
        )
        assert resumed.results == [2, 4]
        assert resumed.resumed == ("a", "b")


@pytest.mark.slow
class TestPoolSupervision:
    def test_pool_matches_serial(self):
        serial = run_supervised(_double, list(range(12)), workers=1)
        pooled = run_supervised(_double, list(range(12)), workers=4)
        assert pooled.results == serial.results

    def test_crash_recovery_restarts_pool(self):
        plan = FaultPlan(seed=2, rate=1.0, kinds=("crash",), max_failures=1)
        outcome = run_supervised(
            _double,
            list(range(4)),
            workers=2,
            keys=[f"c{i}" for i in range(4)],
            retries=2,
            faults=plan,
            max_pool_restarts=20,
            **NO_SLEEP,
        )
        assert outcome.results == [0, 2, 4, 6]
        assert outcome.pool_restarts >= 1
        assert not outcome.serial_fallback

    def test_transient_faults_do_not_restart_pool(self):
        plan = FaultPlan(seed=2, rate=1.0, kinds=("transient",), max_failures=1)
        outcome = run_supervised(
            _double,
            list(range(4)),
            workers=2,
            keys=[f"t{i}" for i in range(4)],
            retries=2,
            faults=plan,
            **NO_SLEEP,
        )
        assert outcome.results == [0, 2, 4, 6]
        assert outcome.pool_restarts == 0

    def test_hang_reaped_by_timeout(self):
        plan = FaultPlan(
            seed=2, rate=1.0, kinds=("hang",), max_failures=1, hang_seconds=30.0
        )
        outcome = run_supervised(
            _double,
            list(range(2)),
            workers=2,
            keys=["h0", "h1"],
            retries=2,
            task_timeout=0.8,
            faults=plan,
            max_pool_restarts=20,
            **NO_SLEEP,
        )
        assert outcome.results == [0, 2]
        assert outcome.pool_restarts >= 1

    def test_serial_fallback_after_repeated_pool_failure(self):
        plan = FaultPlan(seed=2, rate=1.0, kinds=("crash",), max_failures=2)
        outcome = run_supervised(
            _double,
            list(range(4)),
            workers=2,
            keys=[f"f{i}" for i in range(4)],
            retries=4,
            faults=plan,
            max_pool_restarts=0,
            **NO_SLEEP,
        )
        # the pool broke more often than allowed; the supervisor degraded to
        # in-process execution where crashes demote to transients and the
        # retry budget still completes every unit
        assert outcome.results == [0, 2, 4, 6]
        assert outcome.serial_fallback

    def test_submit_time_pool_breakage_loses_no_unit(self, monkeypatch):
        # Regression: a BrokenProcessPool raised by submit() itself (worker
        # died between scheduler iterations) used to drop the popped unit,
        # leaving a None hole in the results.
        from concurrent.futures import process
        from concurrent.futures.process import BrokenProcessPool

        real_pool = process.ProcessPoolExecutor
        state = {"broken": False}

        class _FlakySubmitPool(real_pool):  # type: ignore[valid-type, misc]
            def submit(self, *args, **kwargs):
                if not state["broken"]:
                    state["broken"] = True
                    raise BrokenProcessPool("simulated submit-time breakage")
                return super().submit(*args, **kwargs)

        # the supervisor looks the pool class up in its defining module
        # each time it opens a pool
        monkeypatch.setattr(process, "ProcessPoolExecutor", _FlakySubmitPool)
        outcome = run_supervised(_double, list(range(6)), workers=3, **NO_SLEEP)
        assert outcome.results == [0, 2, 4, 6, 8, 10]
        assert outcome.pool_restarts == 1
