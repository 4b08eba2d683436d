"""Live link failure: kill scheduling, in-flight drops, interceptor fates."""

import pytest

from repro.core import FaultSet, Hypercube
from repro.obs import observed
from repro.simcore import (
    DROP_CHAOS,
    DROP_LINK_DOWN,
    FATE_DELIVER,
    FATE_DROP,
    InjectionError,
    Message,
    Network,
    NodeProcess,
)


class Recorder(NodeProcess):
    """Collects deliveries and failure notifications."""

    def __init__(self):
        super().__init__()
        self.inbox = []
        self.dead_neighbors = []
        self.dead_links = []

    def on_message(self, msg):
        self.inbox.append(msg)

    def on_neighbor_failure(self, neighbor):
        self.dead_neighbors.append(neighbor)

    def on_link_failure(self, neighbor):
        self.dead_links.append(neighbor)


class PingAt(Recorder):
    """Sends ``pings`` as (tick, target) pairs, scheduled from start."""

    def __init__(self, pings=()):
        super().__init__()
        self.pings = list(pings)

    def on_start(self):
        for tick, target in self.pings:
            if tick == 0:
                self.send(target, "ping")
            else:
                self.after(tick, lambda t=target: self.send(t, "ping"))


def make_net(topo, faults=None, pings=None):
    pings = pings or {}
    return Network(
        topo, faults or FaultSet.empty(),
        lambda node: PingAt(pings.get(node, ())),
    )


class TestLinkKill:
    def test_in_flight_message_dropped_with_link_down(self, q3):
        # ping leaves node 0 at t=0, due at t=1; the link dies at t=1
        # before delivery, so the message is lost with an exact reason.
        net = make_net(q3, pings={0: [(0, 1)]})
        net.schedule_link_failure(0, 1, time=1)
        net.run()
        assert net.process(1).inbox == []
        assert [d.reason for d in net.dropped] == [DROP_LINK_DOWN]
        assert net.is_link_down(0, 1) and net.is_link_down(1, 0)
        net.stats.check_conserved()

    def test_later_sends_dropped_both_directions(self, q3):
        net = make_net(q3, pings={0: [(3, 1)], 1: [(3, 0)]})
        net.schedule_link_failure(0, 1, time=1)
        net.run()
        assert net.process(0).inbox == []
        assert net.process(1).inbox == []
        assert [d.reason for d in net.dropped] == [DROP_LINK_DOWN] * 2

    def test_other_links_unaffected(self, q3):
        net = make_net(q3, pings={0: [(2, 2)]})
        net.schedule_link_failure(0, 1, time=1)
        net.run()
        assert len(net.process(2).inbox) == 1
        assert net.dropped == []

    def test_both_endpoints_get_link_failure_hook(self, q3):
        net = make_net(q3)
        net.schedule_link_failure(2, 3, time=1)
        net.run(until=5)
        assert net.process(2).dead_links == [3]
        assert net.process(3).dead_links == [2]
        # a link death is not a node death
        assert net.process(2).dead_neighbors == []

    def test_dead_endpoint_not_notified(self, q3):
        net = make_net(q3)
        net.schedule_node_failure(2, time=1)
        net.schedule_link_failure(2, 3, time=2)
        net.run(until=5)
        assert net.process(3).dead_links == [2]
        assert 2 in net.dead_nodes

    def test_double_kill_is_idempotent(self, q3):
        net = make_net(q3)
        net.schedule_link_failure(4, 5, time=1)
        net.schedule_link_failure(5, 4, time=2)
        net.run(until=5)
        assert net.process(4).dead_links == [5]
        assert net.process(5).dead_links == [4]
        assert len(net.dead_links) == 1

    def test_non_link_pair_rejected(self, q3):
        net = make_net(q3)
        with pytest.raises(InjectionError):
            net.schedule_link_failure(0, 3, time=1)  # Hamming distance 2

    def test_statically_faulty_link_rejected(self, q3):
        net = make_net(q3, FaultSet(links=[(0, 1)]))
        with pytest.raises(InjectionError):
            net.schedule_link_failure(0, 1, time=1)

    def test_live_faults_tracks_kills(self, q3):
        net = make_net(q3, FaultSet(nodes=[7]))
        net.schedule_node_failure(1, time=1)
        net.schedule_link_failure(2, 6, time=1)
        net.run(until=3)
        live = net.live_faults()
        assert live.is_node_faulty(7) and live.is_node_faulty(1)
        assert live.is_link_faulty(2, 6)
        assert not live.is_link_faulty(0, 4)  # both endpoints still healthy


class TestInterceptorFates:
    def test_duplicate_fate_delivers_twice_and_conserves(self, q3):
        net = make_net(q3, pings={0: [(0, 1)]})
        net.set_interceptor(
            lambda msg, delay: ((FATE_DELIVER, delay), (FATE_DELIVER, delay + 2)))
        net.run()
        arrivals = net.process(1).inbox
        assert [m.deliver_time for m in arrivals] == [1, 3]
        assert net.stats.sent == 2  # each fate counts as a send
        net.stats.check_conserved()

    def test_drop_fate_records_reason(self, q3):
        net = make_net(q3, pings={0: [(0, 1)]})
        net.set_interceptor(lambda msg, delay: ((FATE_DROP, DROP_CHAOS),))
        net.run()
        assert net.process(1).inbox == []
        assert [d.reason for d in net.dropped] == [DROP_CHAOS]
        net.stats.check_conserved()

    def test_empty_fates_raise(self, q3):
        net = make_net(q3, pings={0: [(0, 1)]})
        net.set_interceptor(lambda msg, delay: ())
        with pytest.raises(InjectionError):
            net.run()

    def test_sub_tick_delay_rejected(self, q3):
        net = make_net(q3, pings={0: [(0, 1)]})
        net.set_interceptor(lambda msg, delay: ((FATE_DELIVER, 0),))
        with pytest.raises(InjectionError):
            net.run()

    def test_clearing_interceptor_restores_default(self, q3):
        net = make_net(q3, pings={0: [(0, 1), (2, 1)]})
        drops = []
        net.set_interceptor(lambda msg, delay: ((FATE_DROP, DROP_CHAOS),))
        net.run(until=1)
        net.set_interceptor(None)
        net.run()
        assert len(net.process(1).inbox) == 1
        assert [d.reason for d in net.dropped] == [DROP_CHAOS]


class TestDropCounters:
    def test_drop_reasons_surface_as_obs_counters(self, q3):
        with observed() as (reg, _rec):
            net = make_net(q3, pings={0: [(0, 1), (2, 1)]})
            net.schedule_link_failure(0, 1, time=1)
            net.run()
            counters = reg.counter_values()
        assert counters["sim.dropped.link_down"] == 2
        assert counters["sim.dropped.faulty_node"] == 0
