import pytest

from zigzagsim import metrics
from zigzagsim.harness import (ON_WIRED_HOP, QUEUE_DROP, WIRED_BANDWIDTH_BPS,
                               WIRED_DELAY_S, WIRELESS_BANDWIDTH_BPS,
                               WIRELESS_DELAY_S, WIRELESS_DROP, ForwardPath,
                               Network, Sender, run_scenario)
from zigzagsim.kernel import RngStream, Simulator
from zigzagsim.loss import GilbertElliottModel, UniformLossModel
from zigzagsim.scenario import LossSpec, Scenario, ScenarioError

WIRED_SER_S = 8000 / WIRED_BANDWIDTH_BPS
WIRELESS_SER_S = 8000 / WIRELESS_BANDWIDTH_BPS


def make_path(capacity=10, loss_model=None, horizon_s=5.0):
    return ForwardPath(capacity, loss_model, RngStream(1).substream("loss"),
                       horizon_s)


class TestFifoLink:
    """The wired hop n0 -> n1: serialization at 2 Mb/s plus propagation."""

    def test_serialization_plus_propagation(self):
        path = make_path()
        delivered_at = path.send(0.0, 0, 0, 1000)
        assert path.wired_busy_until == pytest.approx(WIRED_SER_S)
        at_queue = WIRED_SER_S + WIRED_DELAY_S
        assert delivered_at == pytest.approx(
            at_queue + WIRELESS_SER_S + WIRELESS_DELAY_S)

    def test_back_to_back_fifo(self):
        path = make_path()
        a = path.send(0.0, 0, 0, 1000)
        b = path.send(0.0, 1, 0, 1000)
        # the second packet waits for the first to serialize on the wired
        # hop, then for it to leave the slower wireless hop
        assert path.wired_busy_until == pytest.approx(2 * WIRED_SER_S)
        assert b == pytest.approx(a + WIRELESS_SER_S)


class TestBottleneckLink:
    """Drop-tail admission and the loss draw at the packet's arrival at n1."""

    def test_full_queue_drops_arrival(self):
        path = make_path(capacity=2)
        outcomes = [path.send(0.0, i % 2, i, 1000) for i in range(4)]
        # arrivals every 4 ms, departures every 6.15 ms: the fourth arrival
        # finds two packets in the queue
        assert all(isinstance(t, float) for t in outcomes[:3])
        assert outcomes[3] is QUEUE_DROP
        assert len(path.queue_drop_log) == 1
        when, flow_id, seq = path.queue_drop_log[0]
        assert when == pytest.approx(4 * WIRED_SER_S + WIRED_DELAY_S)
        assert (flow_id, seq) == (1, 3)
        assert len(path.loss_trace) == 0

    def test_bad_state_packet_never_delivered(self):
        path = make_path(loss_model=UniformLossModel(1.0))
        assert path.send(0.0, 0, 0, 1000) is WIRELESS_DROP
        assert path.loss_trace == [(0, 1, "good")]

    def test_loss_trace_indexes_every_transmitted_packet(self):
        path = make_path(capacity=2, loss_model=UniformLossModel(0.0))
        outcomes = [path.send(0.0, 0, i, 1000) for i in range(5)]
        admitted = [o for o in outcomes if o is not QUEUE_DROP]
        assert len(admitted) == 4
        assert [e[0] for e in path.loss_trace] == [0, 1, 2, 3]
        assert all(e[1] == 0 for e in path.loss_trace)

    def test_arrival_after_horizon_makes_no_draw(self):
        # a sender's first packets reach n1 at 0.104 s and later, after the
        # 0.05 s horizon: they are sent, but make no draw and no drop count
        sc = Scenario(loss=LossSpec("uniform", plr=1.0))
        sim = Simulator()
        path = ForwardPath(sc.queue_capacity_pkts, sc.loss.build(),
                           RngStream(1).substream("loss"), horizon_s=0.05)
        sender = Sender(sim, 0, sc, path, 0.5, start_time=0.0)
        sim.run_until(0.05)
        assert sender.stats.sent > 0
        assert sender.stats.queue_drops == sender.stats.wireless_drops == 0
        assert path.loss_trace == [] and path.queue_drop_log == []
        assert path.send(0.05, 0, 99, 1000) is ON_WIRED_HOP
        # an arrival exactly at the horizon is still admitted
        on_time = make_path(loss_model=UniformLossModel(1.0),
                            horizon_s=WIRED_SER_S + WIRED_DELAY_S)
        assert on_time.send(0.0, 0, 0, 1000) is WIRELESS_DROP


class TestTopologyBuild:
    def test_default_scenario_builds(self):
        net = Network(Scenario())
        assert len(net.senders) == 1
        assert net.path.capacity == 50
        assert net.path.horizon_s == 500.0
        assert net.path.loss_model is None

    def test_loss_model_attached_to_wireless_only(self):
        sc = Scenario(flow_count=3, loss=LossSpec("gilbert", p=0.01, q=0.5))
        net = Network(sc)
        assert isinstance(net.path.loss_model, GilbertElliottModel)
        assert all(s.path is net.path for s in net.senders)

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
