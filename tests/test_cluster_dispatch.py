"""Unit tests for the concurrent sub-query dispatcher."""

import threading
import time

import pytest

from repro.cluster import (
    Cluster,
    DEGRADE,
    FAIL_FAST,
    InProcessTransport,
    ParallelDispatcher,
    Site,
    SiteHealth,
    Transport,
)
from repro.engine.stats import QueryResult
from repro.errors import DispatchError
from repro.partix.decomposer import SubQuery
from repro.partix.driver import PartixDriver
from repro.plan.spec import SubQueryTarget
from tests.fake_clock import FakeClock


def _query_result(text: str = "ok") -> QueryResult:
    return QueryResult(
        items=[],
        result_text=text,
        result_bytes=len(text.encode()),
        elapsed_seconds=0.001,
        parse_seconds=0.0,
        documents_parsed=0,
        bytes_parsed=0,
        documents_scanned=0,
        documents_pruned=0,
    )


class StubDriver(PartixDriver):
    """Scriptable driver: optional sleep, optional failures, call log."""

    def __init__(
        self,
        delay=0.0,
        fail_times=0,
        error=RuntimeError("boom"),
        sleep=time.sleep,
    ):
        self.delay = delay
        self.fail_times = fail_times
        self.error = error
        self.sleep = sleep
        self.calls = []
        self.active = 0
        self.max_active = 0
        self._lock = threading.Lock()

    def create_collection(self, name):
        pass

    def store_document(self, collection, document, name=None, origin=None):
        pass

    def document_count(self, collection):
        return 0

    def collection_bytes(self, collection):
        return 0

    def execute(self, query, default_collection=None, use_indexes=None):
        with self._lock:
            self.calls.append(query)
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        try:
            if self.delay:
                self.sleep(self.delay)
            with self._lock:
                remaining = self.fail_times
                if remaining > 0:
                    self.fail_times -= 1
            if remaining > 0:
                raise self.error
            return _query_result(f"result:{query}")
        finally:
            with self._lock:
                self.active -= 1


def _cluster(drivers):
    return Cluster(
        Site(f"site{i}", driver=driver) for i, driver in enumerate(drivers)
    )


def _subqueries(count, site_for=None):
    site_for = site_for or (lambda i: f"site{i}")
    return [
        SubQuery(
            fragment=f"F{i}", site=site_for(i), collection="C", query=f"q{i}"
        )
        for i in range(count)
    ]


class TestDispatchBasics:
    def test_all_subqueries_run_and_stay_in_plan_order(self):
        drivers = [StubDriver() for _ in range(3)]
        outcome = ParallelDispatcher().dispatch(
            _cluster(drivers), _subqueries(3)
        )
        assert outcome.complete
        assert [e.fragment for e in outcome.round.executions] == [
            "F0",
            "F1",
            "F2",
        ]
        assert [
            e.result.result_text for e in outcome.executions_by_index
        ] == ["result:q0", "result:q1", "result:q2"]
        assert outcome.round.measured_wall_seconds > 0.0

    def test_sites_actually_overlap(self):
        drivers = [StubDriver(delay=0.15) for _ in range(4)]
        started = time.perf_counter()
        outcome = ParallelDispatcher().dispatch(
            _cluster(drivers), _subqueries(4)
        )
        wall = time.perf_counter() - started
        assert outcome.complete
        # Four 150ms sub-queries: sequential would be >= 600ms.
        assert wall < 0.45
        assert outcome.round.measured_wall_seconds < 0.45

    def test_same_site_subqueries_serialize_in_one_lane(self):
        driver = StubDriver(delay=0.02)
        outcome = ParallelDispatcher().dispatch(
            _cluster([driver]), _subqueries(4, site_for=lambda i: "site0")
        )
        assert outcome.complete
        assert driver.max_active == 1
        assert driver.calls == ["q0", "q1", "q2", "q3"]

    def test_max_workers_one_still_completes(self):
        drivers = [StubDriver() for _ in range(3)]
        outcome = ParallelDispatcher(max_workers=1).dispatch(
            _cluster(drivers), _subqueries(3)
        )
        assert outcome.complete
        assert len(outcome.round.executions) == 3

    def test_empty_round(self):
        outcome = ParallelDispatcher().dispatch(Cluster(), [])
        assert outcome.complete
        assert outcome.round.executions == []

    def test_hanging_prober_cannot_stall_a_lane_beyond_the_budget(self):
        """Regression: probes run on a background worker with a per-lane
        wait budget. A prober that blocks (a dead TCP site's connect
        timeout) must not stall the calling lane for its full duration —
        and its late success must still readmit the site."""
        health = SiteHealth(
            ejection_threshold=1,
            probe_interval_seconds=0.0,
            probe_wait_seconds=0.05,
        )
        health.record_failure("s0")
        release = threading.Event()

        def slow_prober():
            release.wait(5.0)
            return True

        started = time.monotonic()
        usable = health.check("s0", prober=slow_prober)
        waited = time.monotonic() - started
        assert not usable  # verdict not in within the budget
        assert waited < 1.0  # the lane did not wait out the hang
        assert health.is_ejected("s0")

        release.set()  # the probe finishes late, in the background
        deadline = time.monotonic() + 2.0
        while health.is_ejected("s0") and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not health.is_ejected("s0")  # late success readmitted it

    def test_concurrent_lanes_share_one_probe_in_flight(self):
        """While a probe is on the worker, other lanes return ejected
        immediately instead of piling up duplicate pings."""
        health = SiteHealth(
            ejection_threshold=1,
            probe_interval_seconds=0.0,
            probe_wait_seconds=0.02,
        )
        health.record_failure("s0")
        release = threading.Event()
        calls = []

        def slow_prober():
            calls.append(threading.get_ident())
            release.wait(2.0)
            return True

        assert not health.check("s0", prober=slow_prober)
        started = time.monotonic()
        assert not health.check("s0", prober=slow_prober)
        assert time.monotonic() - started < 0.5
        release.set()
        deadline = time.monotonic() + 2.0
        while health.is_ejected("s0") and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(calls) == 1

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ParallelDispatcher(failure_policy="shrug")
        with pytest.raises(ValueError):
            ParallelDispatcher(max_workers=0)
        with pytest.raises(ValueError):
            ParallelDispatcher(retries=-1)


class TestRetries:
    def test_transient_failure_retried_with_backoff(self):
        waits = []
        drivers = [StubDriver(fail_times=2)]
        dispatcher = ParallelDispatcher(
            retries=2,
            backoff_seconds=0.01,
            backoff_multiplier=2.0,
            sleep=waits.append,
        )
        outcome = dispatcher.dispatch(
            _cluster(drivers), _subqueries(1, site_for=lambda i: "site0")
        )
        assert outcome.complete
        assert drivers[0].calls == ["q0", "q0", "q0"]
        assert waits == [pytest.approx(0.01), pytest.approx(0.02)]

    def test_retries_exhausted_fails(self):
        drivers = [StubDriver(fail_times=3)]
        dispatcher = ParallelDispatcher(retries=1, sleep=lambda s: None)
        with pytest.raises(DispatchError) as info:
            dispatcher.dispatch(
                _cluster(drivers), _subqueries(1, site_for=lambda i: "site0")
            )
        (failure,) = info.value.failures
        assert failure.attempts == 2
        assert failure.fragment == "F0"
        assert "boom" in str(info.value)


class TestFailurePolicies:
    def test_fail_fast_cancels_rest_of_lane(self):
        driver = StubDriver(fail_times=1)
        dispatcher = ParallelDispatcher(retries=0, failure_policy=FAIL_FAST)
        with pytest.raises(DispatchError):
            dispatcher.dispatch(
                _cluster([driver]),
                _subqueries(3, site_for=lambda i: "site0"),
            )
        # q0 failed; q1/q2 never dispatched.
        assert driver.calls == ["q0"]

    def test_degrade_drops_failed_fragment_and_notes_it(self):
        failing = StubDriver(fail_times=5)
        healthy = StubDriver()
        dispatcher = ParallelDispatcher(
            retries=1, failure_policy=DEGRADE, sleep=lambda s: None
        )
        outcome = dispatcher.dispatch(
            _cluster([failing, healthy]), _subqueries(2)
        )
        assert not outcome.complete
        assert [e.fragment for e in outcome.round.executions] == ["F1"]
        assert outcome.executions_by_index[0] is None
        (failure,) = outcome.failures
        assert failure.attempts == 2
        assert any("degraded" in note and "F0" in note for note in outcome.notes)

    def test_unknown_site_raises_regardless_of_policy(self):
        from repro.errors import ClusterError

        dispatcher = ParallelDispatcher(failure_policy=DEGRADE)
        with pytest.raises(ClusterError):
            dispatcher.dispatch(Cluster(), _subqueries(1))


class TestBackoffJitter:
    def _waits_for(self, jitter, seed):
        waits = []
        drivers = [StubDriver(fail_times=3)]
        dispatcher = ParallelDispatcher(
            retries=3,
            backoff_seconds=0.1,
            backoff_multiplier=2.0,
            backoff_jitter=jitter,
            jitter_seed=seed,
            sleep=waits.append,
        )
        dispatcher.dispatch(
            _cluster(drivers), _subqueries(1, site_for=lambda i: "site0")
        )
        return waits

    def test_jitter_defaults_off(self):
        assert ParallelDispatcher().backoff_jitter == 0.0

    def test_jitter_is_deterministic_for_a_seed(self):
        assert self._waits_for(0.5, seed=7) == self._waits_for(0.5, seed=7)

    def test_different_seeds_desynchronize(self):
        assert self._waits_for(0.5, seed=1) != self._waits_for(0.5, seed=2)

    def test_jittered_waits_stay_within_the_spread(self):
        waits = self._waits_for(0.25, seed=3)
        for attempt, wait in enumerate(waits):
            base = 0.1 * 2.0 ** attempt
            assert base * 0.75 <= wait <= base * 1.25
        # And the spread actually moved something off the exact schedule.
        assert waits != [0.1, 0.2, 0.4]

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValueError):
            ParallelDispatcher(backoff_jitter=1.5)
        with pytest.raises(ValueError):
            ParallelDispatcher(backoff_jitter=-0.1)


class TestRetryDeadline:
    def test_backoff_never_overshoots_the_subquery_deadline(self):
        waits = []
        drivers = [StubDriver(fail_times=10)]
        dispatcher = ParallelDispatcher(
            retries=5,
            subquery_timeout=0.05,
            backoff_seconds=0.1,  # first backoff alone exceeds the budget
            failure_policy=DEGRADE,
            sleep=waits.append,
        )
        outcome = dispatcher.dispatch(
            _cluster(drivers), _subqueries(1, site_for=lambda i: "site0")
        )
        (failure,) = outcome.failures
        assert failure.timed_out
        assert failure.attempts == 1  # no retry was taken
        assert "retry budget exhausted" in str(failure.error)
        assert "boom" in str(failure.error)  # the last real error survives
        assert waits == []  # the overshooting sleep never happened

    def test_retries_within_budget_still_happen(self):
        waits = []
        drivers = [StubDriver(fail_times=2)]
        dispatcher = ParallelDispatcher(
            retries=3,
            subquery_timeout=10.0,
            backoff_seconds=0.001,
            sleep=waits.append,
        )
        outcome = dispatcher.dispatch(
            _cluster(drivers), _subqueries(1, site_for=lambda i: "site0")
        )
        assert outcome.complete
        assert len(waits) == 2


def _replicated_subquery(sites, fragment="F0", query="q0"):
    return SubQuery(
        fragment=fragment,
        site=sites[0],
        collection="C",
        query=query,
        replicas=tuple(
            SubQueryTarget(site=site, collection="C", query=query)
            for site in sites[1:]
        ),
    )


class TestReplicaFailover:
    def test_retry_rotates_to_the_next_replica(self):
        drivers = [StubDriver(fail_times=10), StubDriver()]
        dispatcher = ParallelDispatcher(retries=1, sleep=lambda s: None)
        outcome = dispatcher.dispatch(
            _cluster(drivers), [_replicated_subquery(["site0", "site1"])]
        )
        assert outcome.complete
        (execution,) = outcome.round.executions
        assert execution.site == "site1"
        assert execution.failover_count == 1
        assert execution.attempt_sites == ["site0", "site1"]
        assert drivers[0].calls == ["q0"]  # dead primary tried exactly once
        assert drivers[1].calls == ["q0"]
        assert any("failover" in note for note in outcome.notes)

    def test_rotation_walks_replicas_in_declared_order(self):
        drivers = [
            StubDriver(fail_times=10),
            StubDriver(fail_times=10),
            StubDriver(),
        ]
        dispatcher = ParallelDispatcher(retries=2, sleep=lambda s: None)
        outcome = dispatcher.dispatch(
            _cluster(drivers),
            [_replicated_subquery(["site0", "site1", "site2"])],
        )
        assert outcome.complete
        (execution,) = outcome.round.executions
        assert execution.attempt_sites == ["site0", "site1", "site2"]
        assert execution.failover_count == 2
        assert execution.site == "site2"

    def test_all_replicas_dead_fails_and_names_every_site_tried(self):
        drivers = [StubDriver(fail_times=10), StubDriver(fail_times=10)]
        dispatcher = ParallelDispatcher(retries=1, sleep=lambda s: None)
        with pytest.raises(DispatchError) as info:
            dispatcher.dispatch(
                _cluster(drivers), [_replicated_subquery(["site0", "site1"])]
            )
        (failure,) = info.value.failures
        assert failure.attempts == 2
        assert failure.attempt_sites == ["site0", "site1"]
        assert "tried sites site0, site1" in failure.describe()

    def test_rotation_skips_an_ejected_replica(self):
        health = SiteHealth(ejection_threshold=3, clock=lambda: 0.0)
        for _ in range(3):
            health.record_failure("site1")
        assert health.is_ejected("site1")
        drivers = [StubDriver(fail_times=10), StubDriver(), StubDriver()]
        dispatcher = ParallelDispatcher(
            retries=1, site_health=health, sleep=lambda s: None
        )
        outcome = dispatcher.dispatch(
            _cluster(drivers),
            [_replicated_subquery(["site0", "site1", "site2"])],
        )
        assert outcome.complete
        (execution,) = outcome.round.executions
        assert execution.site == "site2"
        assert execution.attempt_sites == ["site0", "site2"]
        assert drivers[1].calls == []  # the ejected replica was never hit

    def test_due_probe_readmits_an_ejected_replica(self):
        now = [0.0]
        health = SiteHealth(
            ejection_threshold=3,
            probe_interval_seconds=5.0,
            clock=lambda: now[0],
        )
        for _ in range(3):
            health.record_failure("site1")
        now[0] = 6.0  # probe timer expired; InProcessTransport PING is up
        drivers = [StubDriver(fail_times=10), StubDriver()]
        dispatcher = ParallelDispatcher(
            retries=1, site_health=health, sleep=lambda s: None
        )
        outcome = dispatcher.dispatch(
            _cluster(drivers), [_replicated_subquery(["site0", "site1"])]
        )
        assert outcome.complete
        (execution,) = outcome.round.executions
        assert execution.site == "site1"
        assert not health.is_ejected("site1")

    def test_successful_primary_reports_no_failover(self):
        drivers = [StubDriver(), StubDriver()]
        outcome = ParallelDispatcher().dispatch(
            _cluster(drivers), [_replicated_subquery(["site0", "site1"])]
        )
        (execution,) = outcome.round.executions
        assert execution.failover_count == 0
        assert execution.attempt_sites == ["site0"]
        assert drivers[1].calls == []


class TestSiteHealthTracker:
    def test_ejects_after_consecutive_failures(self):
        health = SiteHealth(ejection_threshold=2, clock=lambda: 0.0)
        assert not health.record_failure("s0")
        assert health.record_failure("s0")  # crossing returns True
        assert health.is_ejected("s0")
        assert health.ejected_sites() == ["s0"]

    def test_success_resets_the_streak(self):
        health = SiteHealth(ejection_threshold=2)
        health.record_failure("s0")
        health.record_success("s0")
        health.record_failure("s0")
        assert not health.is_ejected("s0")

    def test_probe_gates_readmission_on_the_timer_and_the_prober(self):
        now = [0.0]
        health = SiteHealth(
            ejection_threshold=1,
            probe_interval_seconds=5.0,
            clock=lambda: now[0],
        )
        health.record_failure("s0")
        assert not health.check("s0", prober=lambda: True)  # timer not due
        now[0] = 5.0
        assert not health.check("s0", prober=lambda: False)  # probe fails
        now[0] = 9.0
        assert not health.probe_due("s0")  # failed probe re-armed the timer
        now[0] = 10.0
        assert health.check("s0", prober=lambda: True)  # probe readmits
        assert not health.is_ejected("s0")

    def test_healthy_site_checks_true_without_probing(self):
        health = SiteHealth()
        probed = []
        assert health.check("s0", prober=lambda: probed.append(True))
        assert probed == []

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            SiteHealth(ejection_threshold=0)
        with pytest.raises(ValueError):
            SiteHealth(probe_interval_seconds=-1.0)


class _BudgetRecorder(Transport):
    """Wraps another transport and records the timeout of each execute."""

    def __init__(self, inner):
        self.inner = inner
        self.timeouts = []

    def resolve(self, site_names):
        self.inner.resolve(site_names)

    def ping(self, site):
        return self.inner.ping(site)

    def execute(self, subquery, default_collection=None, timeout=None, on_chunk=None):
        self.timeouts.append(timeout)
        return self.inner.execute(
            subquery,
            default_collection=default_collection,
            timeout=timeout,
            on_chunk=on_chunk,
        )


class TestRetryBudget:
    def test_each_attempt_receives_only_the_remaining_budget(self):
        clock = FakeClock()
        drivers = [
            StubDriver(delay=0.03, fail_times=1, sleep=clock.sleep),
            StubDriver(sleep=clock.sleep),
        ]
        recorder = _BudgetRecorder(InProcessTransport(_cluster(drivers)))
        dispatcher = ParallelDispatcher(
            retries=2,
            subquery_timeout=1.0,
            backoff_seconds=0.001,
            sleep=clock.sleep,
            clock=clock,
        )
        outcome = dispatcher.dispatch(
            recorder, [_replicated_subquery(["site0", "site1"])]
        )
        assert outcome.complete
        assert len(recorder.timeouts) == 2
        # The first attempt gets the whole budget; the retry exactly what
        # the failed attempt (0.03) and the backoff (0.001) left over.
        assert recorder.timeouts[0] == pytest.approx(1.0)
        assert recorder.timeouts[1] == pytest.approx(1.0 - 0.03 - 0.001)

    def test_total_wall_stays_within_the_budget_plus_slack(self):
        # Dead primary that burns 60ms per attempt, dead replica too: the
        # old code gave every attempt a fresh full timeout (~(retries+1)×
        # overshoot); the shared deadline keeps the whole envelope near
        # subquery_timeout + one attempt's overshoot. On the fake clock
        # the bound is exact, not slack-padded.
        clock = FakeClock()
        drivers = [
            StubDriver(delay=0.06, fail_times=50, sleep=clock.sleep),
            StubDriver(delay=0.06, fail_times=50, sleep=clock.sleep),
        ]
        dispatcher = ParallelDispatcher(
            retries=8,
            subquery_timeout=0.2,
            backoff_seconds=0.005,
            backoff_multiplier=1.0,
            failure_policy=DEGRADE,
            sleep=clock.sleep,
            clock=clock,
        )
        started = clock()
        outcome = dispatcher.dispatch(
            _cluster(drivers), [_replicated_subquery(["site0", "site1"])]
        )
        wall = clock() - started
        (failure,) = outcome.failures
        assert failure.timed_out
        # Budget 0.2s + at most one in-flight attempt (0.06s), exactly.
        assert wall <= 0.2 + 0.06


class TestJitterPerTarget:
    def test_jitter_schedule_differs_across_replica_targets(self):
        dispatcher = ParallelDispatcher(backoff_jitter=0.5, jitter_seed=7)
        subquery = _replicated_subquery(["site0", "site1"])
        waits_primary = [
            dispatcher._backoff_wait(subquery, attempt, "site0")
            for attempt in range(3)
        ]
        waits_replica = [
            dispatcher._backoff_wait(subquery, attempt, "site1")
            for attempt in range(3)
        ]
        assert waits_primary != waits_replica

    def test_jitter_defaults_to_the_primary_site(self):
        dispatcher = ParallelDispatcher(backoff_jitter=0.5, jitter_seed=7)
        subquery = _replicated_subquery(["site0", "site1"])
        assert dispatcher._backoff_wait(subquery, 1) == dispatcher._backoff_wait(
            subquery, 1, "site0"
        )


class TestTimeouts:
    def test_overbudget_subquery_counts_as_timeout(self):
        clock = FakeClock()
        drivers = [StubDriver(delay=0.05, sleep=clock.sleep)]
        dispatcher = ParallelDispatcher(
            subquery_timeout=0.005,
            retries=0,
            failure_policy=DEGRADE,
            sleep=clock.sleep,
            clock=clock,
        )
        outcome = dispatcher.dispatch(
            _cluster(drivers), _subqueries(1, site_for=lambda i: "site0")
        )
        (failure,) = outcome.failures
        assert failure.timed_out
        assert isinstance(failure.error, TimeoutError)
        assert any("timed out" in note for note in outcome.notes)

    def test_fast_subquery_passes_timeout(self):
        drivers = [StubDriver()]
        dispatcher = ParallelDispatcher(subquery_timeout=5.0)
        outcome = dispatcher.dispatch(
            _cluster(drivers), _subqueries(1, site_for=lambda i: "site0")
        )
        assert outcome.complete
