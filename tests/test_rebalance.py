"""The online-rebalancing battery: Rebalancer, QueryLog, WorkloadAdvisor.

The core property mirrors the fuzz ``migrate`` oracle: every
migration — split, move, promote, replicate, merge — must preserve
query answers across the catalog swap. Answers are byte-identical
except where a split legitimately reorders a multi-fragment
concatenation, in which case the line multiset must match.
"""

import threading

import pytest

from repro.cluster.site import Cluster
from repro.coordinate import Coordinator, CoordinatorClient
from repro.errors import CatalogContention, RebalanceError
from repro.partix.advisor import RebalanceAction, WorkloadAdvisor
from repro.partix.middleware import Partix
from repro.plan.cache import PlanCache
from repro.rebalance import QueryLog, Rebalancer
from repro.workloads.queries import items_queries
from repro.workloads.virtual_store import (
    build_items_collection,
    items_horizontal_fragmentation,
)


def _published_partix(fragment_count=2, item_count=24, sites=4, **kwargs):
    collection = build_items_collection(item_count, kind="small", seed=11)
    cluster = Cluster.with_sites(sites)
    partix = Partix(cluster, **kwargs)
    partix.publish(collection, items_horizontal_fragmentation(fragment_count))
    return partix, collection


def _baselines(partix, collection):
    """qid -> (query text, serial answer) before any migration."""
    return {
        query.qid: (
            query.text,
            partix.execute(
                query.text,
                collection=collection.name,
                execution_mode="simulated",
            ).result_text,
        )
        for query in items_queries(collection.name)
    }


def _assert_answers_preserved(partix, collection, baselines):
    for qid, (text, expected) in baselines.items():
        actual = partix.execute(
            text, collection=collection.name, execution_mode="simulated"
        ).result_text
        if actual != expected:
            assert sorted(actual.splitlines()) == sorted(
                expected.splitlines()
            ), f"{qid} diverged beyond reordering"


def _fill_log(partix, collection, repetitions=3):
    """Execute the bench workload and record it like the coordinator."""
    log = QueryLog()
    catalog = partix.distribution_catalog
    for _ in range(repetitions):
        for query in items_queries(collection.name):
            result = partix.execute(
                query.text,
                collection=collection.name,
                execution_mode="simulated",
            )
            log.record_result(
                query.text,
                collection.name,
                result,
                elapsed_seconds=0.01,
                catalog_version=catalog.version,
                catalog=catalog,
            )
    return log


class TestSplit:
    def test_split_preserves_answers_and_bumps_version(self):
        partix, collection = _published_partix()
        baselines = _baselines(partix, collection)
        catalog = partix.distribution_catalog
        version = catalog.version

        report = Rebalancer(partix).split(collection.name, "F1")

        assert report.completed
        assert report.kind == "split"
        assert report.catalog_version_before == version
        assert catalog.version > version
        assert report.catalog_version_after == catalog.version
        design = catalog.fragmentation(collection.name)
        names = design.fragment_names()
        assert "F1" not in names
        for child in report.new_fragments:
            assert child in names
        _assert_answers_preserved(partix, collection, baselines)

    def test_split_halves_are_both_non_empty(self):
        partix, collection = _published_partix()
        catalog = partix.distribution_catalog
        parent_docs = catalog.statistics(
            collection.name, "F1", catalog.allocation(collection.name, "F1").site
        ).documents

        report = Rebalancer(partix).split(collection.name, "F1")

        assert report.documents_moved == parent_docs
        assert report.split_path == "/Item/Section"
        assert report.split_values
        for child in report.new_fragments:
            primary = catalog.allocation(collection.name, child)
            stats = catalog.statistics(collection.name, child, primary.site)
            assert stats is not None and stats.documents >= 1

    def test_split_respects_explicit_target_sites(self):
        partix, collection = _published_partix()
        report = Rebalancer(partix).split(
            collection.name, "F1", target_sites=("site2", "site3")
        )
        catalog = partix.distribution_catalog
        assert report.target_sites == ["site2", "site3"]
        placed = {
            catalog.allocation(collection.name, child).site
            for child in report.new_fragments
        }
        assert placed == {"site2", "site3"}

    def test_split_invalidates_cached_plans_via_version_bump(self):
        partix, collection = _published_partix(plan_cache=PlanCache())
        query = items_queries(collection.name)[0].text
        baseline = partix.execute(
            query, collection=collection.name, execution_mode="simulated"
        ).result_text

        Rebalancer(partix).split(collection.name, "F1")
        after = partix.execute(
            query, collection=collection.name, execution_mode="simulated"
        )

        assert after.result_text == baseline
        # The replan saw the new design: no lane scans the dead parent.
        assert all(
            execution.fragment != "F1"
            for execution in after.round.executions
        )

    def test_split_unknown_fragment_raises_typed_error(self):
        partix, collection = _published_partix()
        with pytest.raises(RebalanceError):
            Rebalancer(partix).split(collection.name, "nope")

    def test_split_needs_exactly_two_targets(self):
        partix, collection = _published_partix()
        with pytest.raises(RebalanceError, match="exactly 2 target sites"):
            Rebalancer(partix).split(
                collection.name, "F1", target_sites=("site2",)
            )


class TestMoveAndReplicate:
    def test_move_re_places_the_primary(self):
        partix, collection = _published_partix()
        baselines = _baselines(partix, collection)
        catalog = partix.distribution_catalog
        version = catalog.version

        report = Rebalancer(partix).move(collection.name, "F1", "site2")

        assert report.completed and report.kind == "move"
        assert catalog.allocation(collection.name, "F1").site == "site2"
        assert catalog.version > version
        assert report.documents_moved > 0
        _assert_answers_preserved(partix, collection, baselines)

    def test_move_to_replica_site_promotes_without_copying(self):
        partix, collection = _published_partix()
        rebalancer = Rebalancer(partix)
        rebalancer.replicate(collection.name, "F1", "site3")

        report = rebalancer.move(collection.name, "F1", "site3")

        assert report.kind == "promote"
        assert report.documents_moved == 0
        catalog = partix.distribution_catalog
        assert catalog.allocation(collection.name, "F1").site == "site3"

    def test_move_to_current_primary_rejected(self):
        partix, collection = _published_partix()
        primary = partix.distribution_catalog.allocation(
            collection.name, "F1"
        ).site
        with pytest.raises(RebalanceError, match="already primary"):
            Rebalancer(partix).move(collection.name, "F1", primary)

    def test_replicate_adds_a_replica_and_preserves_answers(self):
        partix, collection = _published_partix()
        baselines = _baselines(partix, collection)
        report = Rebalancer(partix).replicate(collection.name, "F1", "site3")

        assert report.completed and report.kind == "replicate"
        replicas = partix.distribution_catalog.replicas(
            collection.name, "F1"
        )
        assert [r.site for r in replicas][-1] == "site3"
        _assert_answers_preserved(partix, collection, baselines)

    def test_replicate_duplicate_site_rejected(self):
        partix, collection = _published_partix()
        rebalancer = Rebalancer(partix)
        rebalancer.replicate(collection.name, "F1", "site3")
        with pytest.raises(RebalanceError, match="already has a replica"):
            rebalancer.replicate(collection.name, "F1", "site3")


class TestMerge:
    def test_merge_fuses_two_siblings(self):
        partix, collection = _published_partix(fragment_count=4)
        baselines = _baselines(partix, collection)
        catalog = partix.distribution_catalog
        before = len(catalog.fragmentation(collection.name).fragments)

        report = Rebalancer(partix).merge(collection.name, "F1", "F2")

        assert report.completed and report.kind == "merge"
        design = catalog.fragmentation(collection.name)
        assert len(design.fragments) == before - 1
        assert "F1" not in design.fragment_names()
        assert "F2" not in design.fragment_names()
        assert report.new_fragments[0] in design.fragment_names()
        _assert_answers_preserved(partix, collection, baselines)

    def test_apply_merge_without_partner_rejected(self):
        partix, collection = _published_partix(fragment_count=4)
        action = RebalanceAction(
            kind="merge", collection=collection.name, fragment="F1"
        )
        with pytest.raises(RebalanceError, match="partner fragment"):
            Rebalancer(partix).apply(action)

    def test_apply_unknown_kind_rejected(self):
        partix, collection = _published_partix()
        action = RebalanceAction(
            kind="defragment", collection=collection.name, fragment="F1"
        )
        with pytest.raises(RebalanceError, match="unknown rebalance action"):
            Rebalancer(partix).apply(action)


class TestQueryLog:
    def test_ring_buffer_bounds_and_counts(self):
        log = QueryLog(capacity=3)
        partix, collection = _published_partix()
        result = partix.execute(
            "doc('i')", collection=collection.name, execution_mode="simulated"
        )
        for index in range(5):
            log.record_result(
                f"q{index}", collection.name, result, 0.01, catalog_version=1
            )
        assert len(log) == 3
        assert log.stats_payload()["recorded"] == 5
        assert [e.query for e in log.entries()] == ["q2", "q3", "q4"]

    def test_record_result_builds_lanes_with_selectivity(self):
        partix, collection = _published_partix()
        log = _fill_log(partix, collection, repetitions=1)
        entry = log.entries(collection.name)[0]
        assert entry.lanes, "executions should become lane observations"
        for lane in entry.lanes:
            assert lane.site and lane.fragment
            assert lane.selectivity is None or 0.0 <= lane.selectivity <= 1.0

    def test_frequencies_and_stats_payload(self):
        partix, collection = _published_partix()
        log = _fill_log(partix, collection, repetitions=2)
        tally = log.frequencies(collection.name)
        assert all(count == 2 for count in tally.values())
        payload = log.stats_payload()
        assert payload["distinct_queries"] == len(tally)
        assert payload["busiest_sites"]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            QueryLog(capacity=0)


class TestWorkloadAdvisor:
    def _advisor(self, partix, log):
        return WorkloadAdvisor(
            partix.distribution_catalog,
            partix.cost_model,
            log,
            partix.cluster.site_names(),
        )

    def test_empty_log_advises_nothing(self):
        partix, collection = _published_partix()
        assert self._advisor(partix, QueryLog()).advise() == []

    def test_ranked_actions_lead_with_a_positive_score(self):
        partix, collection = _published_partix()
        log = _fill_log(partix, collection)
        actions = self._advisor(partix, log).advise(collection=collection.name)
        assert actions
        scores = [action.score for action in actions]
        assert scores == sorted(scores, reverse=True)
        top = actions[0]
        assert top.kind in ("split", "move")
        assert top.score > 0.0
        assert top.projected_bottleneck_seconds < top.current_bottleneck_seconds
        assert top.rationale

    def test_split_targets_keep_the_bottleneck_and_use_a_cold_site(self):
        partix, collection = _published_partix()
        log = _fill_log(partix, collection)
        actions = self._advisor(partix, log).advise(collection=collection.name)
        split = next(a for a in actions if a.kind == "split")
        assert len(split.target_sites) == 2
        # The second target is a site holding no fragment yet.
        catalog = partix.distribution_catalog
        primaries = {
            catalog.allocation(collection.name, name).site
            for name in catalog.fragmentation(collection.name).fragment_names()
        }
        assert split.target_sites[1] not in primaries

    def test_replicate_is_scored_at_zero_latency_benefit(self):
        partix, collection = _published_partix()
        log = _fill_log(partix, collection)
        actions = self._advisor(partix, log).advise(collection=collection.name)
        replicate = next(a for a in actions if a.kind == "replicate")
        assert replicate.score == 0.0
        assert (
            replicate.projected_bottleneck_seconds
            == replicate.current_bottleneck_seconds
        )

    def test_top_limits_the_ranking(self):
        partix, collection = _published_partix()
        log = _fill_log(partix, collection)
        actions = self._advisor(partix, log).advise(
            collection=collection.name, top=1
        )
        assert len(actions) == 1

    def test_action_round_trips_through_dict(self):
        action = RebalanceAction(
            kind="split",
            collection="C",
            fragment="F1",
            target_sites=("a", "b"),
            score=1.25,
            current_bottleneck_seconds=3.0,
            projected_bottleneck_seconds=1.75,
            rationale="because",
            split_path="/Item/Section",
        )
        assert RebalanceAction.from_dict(action.to_dict()) == action

    def test_advised_top_action_is_applicable(self):
        partix, collection = _published_partix()
        log = _fill_log(partix, collection)
        top = self._advisor(partix, log).advise(collection=collection.name)[0]
        baselines = _baselines(partix, collection)
        report = Rebalancer(partix).apply(top)
        assert report.completed
        _assert_answers_preserved(partix, collection, baselines)


class TestCoordinatorRebalanceFrames:
    def _serve(self, partix):
        return Coordinator(
            partix, execution_mode="threads", max_active=4, queue_limit=64
        ).serve_in_thread()

    def test_advise_and_rebalance_over_the_wire(self):
        partix, collection = _published_partix()
        baselines = _baselines(partix, collection)
        coordinator = self._serve(partix)
        client = None
        try:
            client = CoordinatorClient(
                coordinator.host, coordinator.port, site="test"
            )
            for _ in range(2):
                for qid, (text, expected) in baselines.items():
                    payload = client.query(text, collection=collection.name)
                    assert payload["result_text"] == expected, qid

            advice = client.advise(collection=collection.name)
            assert advice["actions"]
            assert advice["query_log"]["entries"] > 0
            version = advice["catalog_version"]

            reply = client.rebalance(
                collection=collection.name, read_timeout=60.0
            )
            assert reply["report"]["completed"]
            assert reply["catalog_version"] > version
            assert (
                reply["action"]["kind"] == advice["actions"][0]["kind"]
            )

            for qid, (text, expected) in baselines.items():
                payload = client.query(text, collection=collection.name)
                actual = payload["result_text"]
                if actual != expected:
                    assert sorted(actual.splitlines()) == sorted(
                        expected.splitlines()
                    ), qid
        finally:
            if client is not None:
                client.close()
            coordinator.close()

    def test_rebalance_with_empty_log_raises_typed_error(self):
        partix, collection = _published_partix()
        coordinator = self._serve(partix)
        client = None
        try:
            client = CoordinatorClient(
                coordinator.host, coordinator.port, site="test"
            )
            with pytest.raises(RebalanceError, match="no rebalance action"):
                client.rebalance(collection=collection.name)
        finally:
            if client is not None:
                client.close()
            coordinator.close()

    def test_rebalance_with_bogus_action_raises_typed_error(self):
        partix, collection = _published_partix()
        coordinator = self._serve(partix)
        client = None
        try:
            client = CoordinatorClient(
                coordinator.host, coordinator.port, site="test"
            )
            action = RebalanceAction(
                kind="defragment", collection=collection.name, fragment="F1"
            ).to_dict()
            with pytest.raises(RebalanceError, match="unknown"):
                client.rebalance(collection=collection.name, action=action)
        finally:
            if client is not None:
                client.close()
            coordinator.close()


class _ChurningCatalog:
    """Delegates to a real catalog but reports a new version per read —
    the shape of a replace/rebalance storm racing the planner."""

    def __init__(self, inner):
        self._inner = inner
        self._reads = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    @property
    def version(self):
        self._reads += 1
        return self._inner.version + self._reads


class TestPlanRetryBound:
    def test_catalog_contention_is_typed_and_bounded(self):
        partix, collection = _published_partix(plan_cache=PlanCache())
        query = items_queries(collection.name)[0].text
        partix.distribution_catalog = _ChurningCatalog(
            partix.distribution_catalog
        )
        with pytest.raises(CatalogContention, match="consecutive planning"):
            partix.execute(
                query, collection=collection.name, execution_mode="simulated"
            )

    def test_settled_catalog_plans_normally_through_the_cache(self):
        partix, collection = _published_partix(plan_cache=PlanCache())
        query = items_queries(collection.name)[0].text
        first = partix.execute(
            query, collection=collection.name, execution_mode="simulated"
        )
        second = partix.execute(
            query, collection=collection.name, execution_mode="simulated"
        )
        assert first.result_text == second.result_text
        assert partix.plan_cache.stats()["hits"] >= 1
