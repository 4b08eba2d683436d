"""Tests for the benchmark's own helpers.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
from measure import (MIN_BEYOND, OpenLoop, Tally,  # noqa: E402
                     better_quartile, covered_ns, percentile,
                     quartile_spread, self_times, slice_values,
                     worse_decile)


class TestPercentile:
    def test_nearest_rank_and_counts(self):
        values = list(range(1, 101))  # 1..100
        p = percentile(values, 50)
        assert (p.value, p.samples, p.beyond) == (50, 100, 50)
        p99 = percentile(values, 99)
        assert (p99.value, p99.beyond) == (99, 1)
        assert not p99.supported

    def test_order_does_not_matter(self):
        assert percentile([5, 1, 4, 2, 3], 60).value == 3

    def test_ten_beyond_rule(self):
        # p99 of 1000 samples has exactly 10 beyond: supported; 999 not.
        assert percentile(range(1000), 99).beyond == MIN_BEYOND
        assert percentile(range(1000), 99).supported
        assert not percentile(range(999), 99).supported
        assert percentile(range(100), 90).supported
        assert not percentile(range(99), 90).supported

    def test_empty_and_invalid(self):
        p = percentile([], 50)
        assert (p.value, p.samples, p.supported) == (0.0, 0, False)
        with pytest.raises(ValueError):
            percentile([1], 0)

    def test_slices(self):
        buckets = slice_values([0, 9, 10, 99, 100, -1], [1, 2, 3, 4, 5, 6],
                               0, 100, 10)
        assert buckets[0] == [1, 2] and buckets[1] == [3]
        assert buckets[9] == [4]
        assert sum(len(b) for b in buckets) == 4  # 100 and -1 dropped

    def test_better_quartile_ignores_slices_hit_by_interference(self):
        figures = [1.0] * 15 + [50.0] * 5  # a quarter of slices disturbed
        assert better_quartile(figures, "lower") == 1.0
        assert better_quartile([5.0] * 15 + [0.1] * 5, "higher") == 5.0
        assert better_quartile([1, 2, 3, 4, 5, 6, 7], "lower") == 2
        assert better_quartile([1, 2, 3, 4, 5, 6, 7], "higher") == 6
        assert better_quartile([], "lower") == 0.0
        assert better_quartile([3.0], "higher") == 3.0

    def test_worse_decile_rests_on_the_slower_slices(self):
        slow_tenth = [1.0] * 17 + [2.0] * 3  # the fast state covers most
        assert worse_decile(slow_tenth, "lower") == 2.0
        assert worse_decile([9.0] * 17 + [4.0] * 3, "higher") == 4.0
        # One disturbed slice of twenty does not set it.
        assert worse_decile([1.0] * 19 + [50.0], "lower") == 1.0
        assert worse_decile(list(range(1, 21)), "lower") == pytest.approx(
            18.9)
        assert worse_decile(list(range(1, 21)), "higher") == pytest.approx(
            2.1)
        assert worse_decile([], "higher") == 0.0
        assert worse_decile([3.0], "lower") == 3.0

    def test_quartile_spread(self):
        assert quartile_spread([10.0] * 5) == 0.0
        assert quartile_spread([8, 9, 10, 11, 12]) == pytest.approx(0.3)


class TestSelfTime:
    def test_nested_children(self):
        # root [0,100) with children [10,30) and [50,60); grandchild
        # [12,20) inside the first child.
        spans_ = [(1, None, 0, 100), (2, 1, 10, 30), (3, 1, 50, 60),
                  (4, 2, 12, 20)]
        assert self_times(spans_) == {1: 70, 2: 12, 3: 10, 4: 8}

    def test_overlapping_children_count_once(self):
        # Two concurrent children on other threads overlap in [20,30).
        spans_ = [(1, None, 0, 100), (2, 1, 10, 30), (3, 1, 20, 40)]
        assert self_times(spans_)[1] == 70

    def test_child_outliving_parent_is_clipped(self):
        spans_ = [(1, None, 0, 50), (2, 1, 40, 90)]
        assert self_times(spans_) == {1: 40, 2: 50}

    def test_covered(self):
        assert covered_ns(0, 10, [(2, 4), (3, 6), (8, 20)]) == 6
        assert covered_ns(0, 10, []) == 0


class TestOpenLoop:
    def test_due_times_are_absolute(self):
        sched = OpenLoop(start_ns=1_000, rate_per_s=1000.0)
        assert [sched.due_ns(i) for i in range(3)] == \
            [1_000, 1_001_000, 2_001_000]

    def test_lateness(self):
        sched = OpenLoop(start_ns=0, rate_per_s=10.0)
        # Event 2 is due at 200 ms; sent 30 ms late.
        assert sched.lateness_ns(2, sent_ns=230_000_000) == 30_000_000
        # Sent on time (or early): no lateness.
        assert sched.lateness_ns(2, sent_ns=199_000_000) == 0

    def test_a_late_event_does_not_shift_the_next(self):
        sched = OpenLoop(start_ns=0, rate_per_s=10.0)
        assert sched.lateness_ns(0, sent_ns=150_000_000) == 150_000_000
        assert sched.due_ns(1) == 100_000_000
        assert sched.lateness_ns(1, sent_ns=160_000_000) == 60_000_000


class TestTally:
    def test_failed_ratio(self):
        t = Tally()
        assert t.failed_ratio == 0.0
        t.ok(7)
        t.fail("timeout")
        t.fail("error_frame", 2)
        assert (t.attempted, t.failed, t.succeeded) == (10, 3, 7)
        assert t.failed_ratio == pytest.approx(0.3)
        assert t.reasons == {"timeout": 1, "error_frame": 2}

    def test_refail_keeps_attempted(self):
        t = Tally()
        t.ok(4)
        t.refail("oracle_mismatch")
        assert (t.attempted, t.failed) == (4, 1)
        assert t.to_dict()["failed_ratio"] == 0.25


class TestLayerMetrics:
    def test_request_path_waits(self):
        # One BLOCK frame: frame [0,100), decode [5,10), router call
        # [20,80) -> submit [21,79) -> kernel task on a thread [40,70)
        # -> table walk [45,65); reply encode [90,95).
        S = [
            [1, None, "server.frame", 0, 100, 7, {"op": 0x83}],
            [2, 1, "wire.decode_block", 5, 10, 7, None],
            [3, 1, "shard.route_block", 20, 80, 7, {"rows": 256}],
            [4, 3, "batcher.submit_block", 21, 79, 7, {"rows": 256}],
            [5, 4, "workers.route_task", 40, 70, 7, {"rows": 256}],
            [6, 5, "routing.route_with_table", 45, 65, 7, {"rows": 256}],
            [7, 1, "wire.encode_frame", 90, 95, 7, None],
        ]
        m = spans.layer_metrics(S, [0], 0, 1000, routes=256)
        assert m["wire.frames"] == 1
        assert m["server.dispatch_wait_us"] == pytest.approx(20 / 1e3)
        assert m["server.reply_wait_us"] == pytest.approx(10 / 1e3)
        assert m["batcher.queue_wait_us"] == pytest.approx(19 / 1e3)
        assert m["batcher.entries_per_batch"] == 1
        assert m["batcher.rows_per_batch"] == 256
        assert m["workers.route_task_self_us"] == pytest.approx(10 / 1e3)
        # server self time: 100 - (5 + 60 + 5) covered by its children.
        assert m["self.server.ms_per_kroute"] == \
            pytest.approx(30 / 1e6 / 0.256)
        assert spans.largest_self_stage(m) == "server"
        # Idle layers report 0.
        assert m["levels.ms_per_trial.q12"] == 0.0
        assert m["epoch.spare_hit_ratio"] == 0.0

    def test_queue_wait_matches_the_task_that_served_the_submit(self):
        # Kernel tasks ran [0,5) and [12,20); the second is parented to a
        # stale submit, as under steady load.  Submit [8,22) was served by
        # the task that ended last before it returned: wait 12 - 8.
        tasks = [[1, None, "workers.route_task", 0, 5, None, {"rows": 1}],
                 [2, 99, "workers.route_task", 12, 20, None, {"rows": 1}]]
        subs = [[3, None, "batcher.submit", 8, 22, None, None],
                # Returned before any task ended: unmatched.
                [4, None, "batcher.submit", 1, 4, None, None],
                # Started after the last task that ended before it
                # returned: unmatched.
                [5, None, "batcher.submit", 14, 30, None, None]]
        assert spans.queue_waits(subs, tasks) == [4]

    def test_window_filter(self):
        S = [[1, None, "workers.route_task", 5, 6, None, {"rows": 1}],
             [2, None, "workers.route_task", 50, 60, None, {"rows": 1}]]
        m = spans.layer_metrics(S, [5, 50, 55], 10, 100, routes=1)
        assert m["batcher.batches"] == 1
        assert m["wire.frames"] == 2

    def test_sampled_requests_normalise_their_own_layers(self):
        # One sampled single-route frame out of 16; the kernel span of its
        # batch served 16 routes.  Per-request self time is per sampled
        # route, batch-level self time per answered route.
        S = [
            [1, None, "server.frame", 0, 100, 16, {"op": 0x82}],
            [2, 1, "shard.route", 10, 90, 16, None],
            [3, None, "routing.route_with_table", 20, 36, None,
             {"rows": 16}],
        ]
        m = spans.layer_metrics(S, list(range(16)), 0, 1000, routes=16)
        assert m["self.server.ms_per_kroute"] == pytest.approx(20 / 1e6 / 1e-3)
        assert m["self.routing.ms_per_kroute"] == \
            pytest.approx(16 / 1e6 / 0.016)
        assert m["batcher.entries_per_batch"] == 0.0  # no kernel task span
