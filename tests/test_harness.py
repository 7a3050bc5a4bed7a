import pytest

from zigzagsim import metrics
from zigzagsim.harness import (WIRELESS_BANDWIDTH_BPS, WIRELESS_DELAY_S,
                               BottleneckLink, FifoLink, LinkConfig, Network,
                               Sender, run_scenario)
from zigzagsim.kernel import RngStream, Simulator
from zigzagsim.loss import UniformLossModel
from zigzagsim.scenario import LossSpec, Scenario, ScenarioError


def wireless_config(loss_model=None):
    return LinkConfig(WIRELESS_BANDWIDTH_BPS, WIRELESS_DELAY_S,
                      loss_model=loss_model)


class TestFifoLink:
    def test_serialization_plus_propagation(self):
        sim = Simulator()
        link = FifoLink(sim, wireless_config())
        arrivals = []
        link.transmit(1000, lambda: arrivals.append(sim.now))
        sim.run_until(1.0)
        assert arrivals == [pytest.approx(0.2 + 8000 / 1.3e6)]

    def test_back_to_back_fifo(self):
        sim = Simulator()
        link = FifoLink(sim, wireless_config())
        arrivals = []
        link.transmit(1000, lambda: arrivals.append("a"))
        link.transmit(1000, lambda: arrivals.append("b"))
        sim.run_until(1.0)
        assert arrivals == ["a", "b"]
        # second packet waits for the first to serialize
        assert link.busy_until == pytest.approx(2 * 8000 / 1.3e6)

    def test_invalid_config(self):
        with pytest.raises(ScenarioError):
            LinkConfig(0.0, 0.1)
        with pytest.raises(ScenarioError):
            LinkConfig(1e6, -0.1)


class TestBottleneckLink:
    def make(self, sim, capacity=2, loss_model=None):
        return BottleneckLink(sim, wireless_config(loss_model), capacity,
                              RngStream(1).substream("loss"))

    def test_full_queue_drops_arrival(self):
        sim = Simulator()
        link = self.make(sim, capacity=2)
        outcomes = []
        for i in range(3):
            link.transmit(0, i, 1000,
                          lambda i=i: outcomes.append(("deliver", i)),
                          lambda i=i: outcomes.append(("qdrop", i)),
                          lambda i=i: outcomes.append(("wdrop", i)))
        sim.run_until(5.0)
        assert ("qdrop", 2) in outcomes
        assert outcomes.count(("qdrop", 2)) == 1
        assert [o for o in outcomes if o[0] == "deliver"] \
            == [("deliver", 0), ("deliver", 1)]
        assert link.queue_drop_log[0][1:] == (0, 2)

    def test_bad_state_packet_never_delivered(self):
        sim = Simulator()
        link = self.make(sim, capacity=10, loss_model=UniformLossModel(1.0))
        outcomes = []
        link.transmit(0, 0, 1000, lambda: outcomes.append("deliver"),
                      lambda: outcomes.append("qdrop"),
                      lambda: outcomes.append("wdrop"))
        sim.run_until(5.0)
        assert outcomes == ["wdrop"]
        assert link.loss_trace == [(0, 1, "good")]

    def test_loss_trace_indexes_every_transmitted_packet(self):
        sim = Simulator()
        link = self.make(sim, capacity=10, loss_model=UniformLossModel(0.0))
        for i in range(4):
            link.transmit(0, i, 1000, lambda: None, lambda: None,
                          lambda: None)
        sim.run_until(5.0)
        assert [e[0] for e in link.loss_trace] == [0, 1, 2, 3]
        assert all(e[1] == 0 for e in link.loss_trace)


class TestTopologyBuild:
    def test_default_scenario_builds(self):
        net = Network(Scenario())
        assert len(net.senders) == 1
        assert net.bottleneck.config.bandwidth_bps == pytest.approx(1.3e6)
        assert net.bottleneck.config.loss_model is None

    def test_loss_model_attached_to_wireless_only(self):
        sc = Scenario(loss=LossSpec("gilbert", p=0.01, q=0.5))
        net = Network(sc)
        assert net.bottleneck.config.loss_model is not None
        assert net.wired_link.config.loss_model is None

    def test_invalid_scenarios_rejected_with_field_name(self):
        with pytest.raises(ScenarioError, match="flow_count"):
            Network(Scenario(flow_count=0))
        with pytest.raises(ScenarioError, match="alpha"):
            Network(Scenario(alpha=0.6))
        with pytest.raises(ScenarioError, match="duration_s"):
            Network(Scenario(duration_s=50.0))
        with pytest.raises(ScenarioError, match="loss.q"):
            Network(Scenario(loss=LossSpec("gilbert", p=0.1, q=0.0)))


def short_scenario(**kw):
    defaults = dict(duration_s=120.0, warmup_s=100.0, seed=3)
    defaults.update(kw)
    return Scenario(**defaults)


class TestRunFlowSet:
    def test_conservation_per_flow(self):
        sc = short_scenario(flow_count=2, aggregate_rate_bps=1.0e6,
                            loss=LossSpec("gilbert", p=0.01, q=0.5))
        result = run_scenario(sc)
        for flow_id, fs in enumerate(result.flows):
            in_flight = result.in_flight_at_horizon(flow_id)
            assert fs.sent == fs.delivered + fs.wireless_drops \
                + fs.queue_drops + in_flight
            assert 0 <= in_flight <= 200

    def test_no_loss_below_bottleneck_zero_drops(self):
        result = run_scenario(short_scenario(aggregate_rate_bps=1.0e6))
        assert all(fs.queue_drops == 0 and fs.wireless_drops == 0
                   for fs in result.flows)
        assert result.loss_trace == []

    def test_loss_disabled_all_drops_are_queue_drops(self):
        sc = short_scenario(flow_count=5, aggregate_rate_bps=1.5e6)
        result = run_scenario(sc)
        assert sum(fs.wireless_drops for fs in result.flows) == 0
        assert sum(fs.queue_drops for fs in result.flows) \
            == len(result.queue_drop_log)

    def test_bottleneck_ceiling(self):
        sc = short_scenario(flow_count=5, aggregate_rate_bps=1.5e6)
        result = run_scenario(sc)
        size_bits = sc.packet_size_bytes * 8
        interval = 10.0
        t = 0.0
        while t < sc.duration_s:
            delivered = sum(1 for fs in result.flows
                            for dt in fs.delivery_times if t < dt <= t + interval)
            assert delivered * size_bits \
                <= WIRELESS_BANDWIDTH_BPS * interval + size_bits
            t += interval

    def test_fifo_per_flow_delivery_order(self, monkeypatch):
        delivered = {}
        deliver = Sender._deliver

        def record(sender, seq, sent_at):
            delivered.setdefault(sender.flow_id, []).append(seq)
            deliver(sender, seq, sent_at)

        monkeypatch.setattr(Sender, "_deliver", record)
        sc = short_scenario(flow_count=3, aggregate_rate_bps=1.5e6,
                            loss=LossSpec("gilbert", p=0.05, q=0.5))
        result = run_scenario(sc)
        assert sorted(delivered) == [0, 1, 2]
        for flow_id, fs in enumerate(result.flows):
            seqs = delivered[flow_id]
            assert len(seqs) == fs.delivered
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)

    def test_throughput_approaches_offered_rate_without_loss(self):
        sc = Scenario(flow_count=1, aggregate_rate_bps=1.0e6,
                      duration_s=500.0, seed=1)
        result = run_scenario(sc)
        assert metrics.run_mean_throughput(result) \
            == pytest.approx(1.0e6, rel=0.02)

    def test_same_seed_reproducible(self):
        sc = short_scenario(flow_count=2,
                            loss=LossSpec("gilbert", p=0.01, q=0.5))
        a = run_scenario(sc)
        b = run_scenario(sc)
        assert a.loss_trace == b.loss_trace
        assert [fs.delivery_times for fs in a.flows] \
            == [fs.delivery_times for fs in b.flows]
        assert a.events_dispatched == b.events_dispatched

    def test_counters_match_trace_loss_rows(self):
        sc = short_scenario(flow_count=2, policy="zigzag",
                            loss=LossSpec("gilbert", p=0.05, q=0.5))
        result = run_scenario(sc)
        for ctrl, trace in zip(result.controllers, result.traces):
            loss_rows = [r for r in trace if r.event_type == "loss"]
            assert ctrl.congestion_events + ctrl.wireless_events \
                == len(loss_rows)
            wireless_rows = [r for r in loss_rows
                             if r.loss_class == "wireless"]
            assert ctrl.wireless_events == len(wireless_rows)

    def test_baseline_never_records_wireless(self):
        sc = short_scenario(policy="baseline",
                            loss=LossSpec("gilbert", p=0.05, q=0.5))
        result = run_scenario(sc)
        assert result.wireless_events == 0
        assert result.congestion_events > 0
