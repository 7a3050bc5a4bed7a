import gc
import math
import random
import re
import weakref
from collections import deque
from functools import partial
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from zigzagsim import harness, metrics
from zigzagsim.control import BASELINE, MIN_SSTHRESH, ZIGZAG
from zigzagsim.harness import (DRAW_CHUNK, IN_FLIGHT, INITIAL_RTO_S,
                               QUEUE_DROP, WIRED_BANDWIDTH_BPS, WIRED_DELAY_S,
                               WIRELESS_BANDWIDTH_BPS, WIRELESS_DELAY_S,
                               WIRELESS_DROP, ForwardPath, Network, Sender,
                               run_scenario)
from zigzagsim.kernel import RngStream, Simulator
from zigzagsim.loss import GilbertElliottModel, UniformLossModel
from zigzagsim.scenario import MAX_FLOWS, LossSpec, Scenario, ScenarioError

WIRED_SER_S = 8000 / WIRED_BANDWIDTH_BPS
WIRELESS_SER_S = 8000 / WIRELESS_BANDWIDTH_BPS


def make_path(capacity=10, loss_model=None, horizon_s=5.0):
    return ForwardPath(capacity, loss_model, RngStream(1).substream("loss"),
                       horizon_s)


def cbr_instants(start, interval, until):
    """CBR generation instants in [start, until], by repeated addition."""
    instants = []
    t = start
    while t <= until:
        instants.append(t)
        t += interval
    return instants


def recount_generated(scenario, flow_id):
    """Packets flow ``flow_id`` of a run generates by its horizon."""
    start = RngStream(scenario.seed).substream(f"start/flow{flow_id}").random()
    interval = scenario.packet_size_bytes * 8.0 / scenario.per_flow_rate_bps
    return len(cbr_instants(start, interval, scenario.duration_s))


def lone_sender(scenario, start_time=0.0):
    """One sender on its own path, with its simulator logging events."""
    sim = Simulator(log_events=True)
    path = ForwardPath(scenario.queue_capacity_pkts, scenario.loss.build(),
                       RngStream(1).substream("loss"), scenario.duration_s)
    return sim, Sender(sim, 0, scenario, path, 0.5, start_time)


def silent_sender(start_time=0.0):
    """A sender whose every packet the wireless hop drops, so no feedback
    ever returns and its window stays full."""
    return lone_sender(Scenario(loss=LossSpec("uniform", plr=1.0)),
                       start_time)


def in_flight_at_horizon(fs):
    """Packets of a flow's stats that were sent but neither delivered
    nor dropped by the horizon."""
    return fs.sent - fs.delivered - fs.queue_drops - fs.wireless_drops


def fired(sim, tag):
    return [entry[0] for entry in sim.event_log if entry[2] == tag]


def timeout_times(sender):
    return [r.t for r in sender.ctrl.trace if r.event_type == "loss"]


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
        assert list(path.loss_trace) == [(0, 1)]

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
        assert list(path.loss_trace) == [] and path.queue_drop_log == []
        assert path.send(0.05, 0, 99, 1000) is IN_FLIGHT
        # an arrival exactly at the horizon is still admitted
        on_time = make_path(loss_model=UniformLossModel(1.0),
                            horizon_s=WIRED_SER_S + WIRED_DELAY_S)
        assert on_time.send(0.0, 0, 0, 1000) is WIRELESS_DROP
        # a packet admitted and drawn but reaching n2 after the horizon is
        # in flight: the first packets reach n1 at 0.104 s and n2 at 0.310 s
        # and later, after the 0.2 s horizon
        drawn = make_path(loss_model=UniformLossModel(0.0), horizon_s=0.2)
        assert drawn.send(0.0, 0, 0, 1000) is IN_FLIGHT
        assert list(drawn.loss_trace) == [(0, 0)]
        for horizon_s in (0.2, make_path().send(0.0, 0, 0, 1000)):
            sim, sender = lone_sender(Scenario(
                loss=LossSpec("uniform", plr=0.0), duration_s=horizon_s))
            sim.run_until(horizon_s)
            fs = sender.stats
            assert fs.sent == len(sender.path.loss_trace) == 2
            assert fs.queue_drops == fs.wireless_drops == 0
            # a delivery exactly at the horizon still counts
            on_time = [] if horizon_s == 0.2 else [horizon_s]
            assert list(fs.delivery_times) == on_time
            assert fs.delivered == len(on_time)
            assert in_flight_at_horizon(fs) == 2 - len(on_time)


class ReferencePath:
    """ForwardPath as it was with one should_drop call and one
    (packet_index, dropped) pair per admitted packet, kept as the oracle
    for the chunked draws."""

    def __init__(self, capacity, loss_model, rng, horizon_s):
        self.capacity = capacity
        self.loss_model = loss_model
        self.rng = rng
        self.horizon_s = horizon_s
        self.wired_busy_until = 0.0
        self._departures = deque()
        self.queue_drop_log = []
        self.loss_trace = []

    def send(self, now, flow_id, seq, size_bytes):
        busy = self.wired_busy_until
        start = busy if busy > now else now
        done = start + size_bytes * 8.0 / WIRED_BANDWIDTH_BPS
        self.wired_busy_until = done
        arrival = done + WIRED_DELAY_S
        if arrival > self.horizon_s:
            return IN_FLIGHT
        dep = self._departures
        while dep and dep[0] <= arrival:
            dep.popleft()
        if len(dep) >= self.capacity:
            self.queue_drop_log.append((arrival, flow_id, seq))
            return QUEUE_DROP
        start = dep[-1] if dep else arrival
        done = start + size_bytes * 8.0 / WIRELESS_BANDWIDTH_BPS
        dep.append(done)
        model = self.loss_model
        if model is not None:
            dropped = model.should_drop(self.rng)
            self.loss_trace.append((len(self.loss_trace), 1 if dropped else 0))
            if dropped:
                return WIRELESS_DROP
        delivery = done + WIRELESS_DELAY_S
        return delivery if delivery <= self.horizon_s else IN_FLIGHT


class CoarseRng:
    """A seeded substream rounded down to eighths: its draws often equal a
    threshold on the same grid, where ``<`` and ``<=`` part ways."""

    def __init__(self, seed):
        self._random = RngStream(seed).substream("loss").random

    def random(self):
        return int(self._random() * 8) / 8


EIGHTHS = st.sampled_from([i / 8 for i in range(9)])


class TestChunkedLossDraws:
    """The path reads drop flags drawn DRAW_CHUNK at a time and gives the
    outcomes, loss trace and queue-drop log of per-packet draws."""

    HORIZON_S = 60.0

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(gilbert=st.booleans(), p=EIGHTHS, q=EIGHTHS,
           capacity=st.integers(1, 5), seed=st.integers(0, 2 ** 32))
    def test_matches_per_packet_reference(self, gilbert, p, q, capacity,
                                          seed):
        def model():
            return GilbertElliottModel(p, q) if gilbert \
                else UniformLossModel(p)

        path = ForwardPath(capacity, model(), CoarseRng(seed), self.HORIZON_S)
        ref = ReferencePath(capacity, model(), CoarseRng(seed),
                            self.HORIZON_S)
        # sends of mixed sizes and gaps from three flows, until a second
        # past the horizon, so late arrivals and late deliveries occur too
        schedule = random.Random(seed)
        now, seq, outcomes, ref_outcomes = 0.0, 0, [], []
        while now <= self.HORIZON_S + 1.0:
            size_bytes = schedule.choice((40, 1000, 1000, 1500))
            outcomes.append(path.send(now, seq % 3, seq, size_bytes))
            ref_outcomes.append(ref.send(now, seq % 3, seq, size_bytes))
            now += schedule.choice((0.0, 0.004, 0.008, 0.012))
            seq += 1
        assert len(ref.loss_trace) > DRAW_CHUNK
        assert outcomes == ref_outcomes
        assert list(path.loss_trace) == ref.loss_trace
        assert len(path.loss_trace) == len(ref.loss_trace)
        assert path.loss_trace[:] \
            == bytes(dropped for _, dropped in ref.loss_trace)
        assert path.queue_drop_log == ref.queue_drop_log


class TestLazyTimer:
    """The timeout restarts on each feedback, timeout and send from idle;
    an rto event is scheduled only when the flow's own feedback will not
    restart the timer first."""

    def test_lossless_run_schedules_no_rto_event(self):
        net = Network(short_scenario(flow_count=3, aggregate_rate_bps=6.0e5),
                      log_events=True)
        result = net.run()
        assert sum(fs.delivered for fs in result.flows) > 1000
        assert fired(net.sim, "rto") == []

    def test_later_deadline_costs_one_rearm(self):
        sim, sender = silent_sender()
        sim.run_until(0.0)
        for k in range(1, 11):
            sim.run_until(0.1 * k)
            sender._restart_timer()
        deadline = sim.now + INITIAL_RTO_S
        sim.run_until(deadline - 0.01)
        # ten later deadlines: the event armed at 0 fired once and re-armed
        assert fired(sim, "rto") == [INITIAL_RTO_S]
        assert sender.stats.timeouts == 0
        sim.run_until(deadline)
        assert fired(sim, "rto") == [INITIAL_RTO_S, deadline]
        assert timeout_times(sender) == [deadline]

    def test_earlier_deadline_fires_at_the_earlier_time(self):
        sim, sender = silent_sender()
        sim.run_until(0.1)
        rtos = iter([1.0])
        sender._rto = lambda: next(rtos, INITIAL_RTO_S)
        sender._restart_timer()
        early = 0.1 + 1.0
        sim.run_until(early)
        assert fired(sim, "rto") == [early]
        assert timeout_times(sender) == [early]
        # the superseded event at 3.0 still fires, and does nothing
        sim.run_until(early + INITIAL_RTO_S)
        assert fired(sim, "rto") == [early, INITIAL_RTO_S, early + INITIAL_RTO_S]
        assert timeout_times(sender) == [early, early + INITIAL_RTO_S]

    def test_silent_flow_times_out_at_its_last_deadline(self):
        sim, sender = silent_sender(start_time=0.25)
        deadlines = []
        restart = sender._restart_timer

        def record():
            restart()
            deadlines.append((sim.now, sender._deadline))

        sender._restart_timer = record
        sim.run_until(20.0)
        timeouts = timeout_times(sender)
        assert len(timeouts) == sender.stats.timeouts >= 5
        for t in timeouts:
            assert t == [d for at, d in deadlines if at < t][-1]
        # every rto event of a silent flow is a timeout
        assert fired(sim, "rto") == timeouts

    def test_feedback_due_after_the_deadline_still_times_out(self):
        # a lone packet's feedback returns after its path RTT, ~0.81 s
        sim, sender = lone_sender(Scenario())
        sender._rto = lambda: 0.75
        sim.run_until(1.0)
        assert fired(sim, "fb")[0] > 0.75
        assert fired(sim, "rto") == [0.75]
        assert timeout_times(sender) == [0.75]


class TestLazySource:
    """CBR instants are counted from the clock; a wakeup is scheduled only
    while the window has room."""

    def test_packet_leaves_at_its_generation_instant(self):
        sc = Scenario(aggregate_rate_bps=2.0e5, duration_s=20.0)
        sim, sender = lone_sender(sc, start_time=0.3)
        sender.ctrl.cwnd = 100.0
        sent_at = []
        send = sender.path.send

        def record(now, *args):
            sent_at.append(now)
            return send(now, *args)

        sender.path.send = record
        sim.run_until(sc.duration_s)
        sender.generate_until(sc.duration_s)
        instants = cbr_instants(0.3, 8000 / 2.0e5, sc.duration_s)
        assert sent_at == instants
        assert sender.stats.generated == len(instants)

    def test_full_window_schedules_no_gen_event(self):
        sim, sender = silent_sender()
        sim.run_until(INITIAL_RTO_S - 0.1)
        # the first two instants filled the two-packet window; none since
        assert fired(sim, "gen") == [0.0, 0.0 + 8000 / 1.0e6]
        assert sender.stats.sent == 2
        assert not any(entry[3] == "gen"
                       for entry in [*sim._lane, *sim._heap])
        sender.generate_until(sim.now)
        assert sender.stats.generated \
            == len(cbr_instants(0.0, 8000 / 1.0e6, sim.now))
        assert sender.stats.sent == 2

    def test_generated_at_horizon_matches_recount(self):
        sc = short_scenario(flow_count=3, aggregate_rate_bps=1.5e6,
                            duration_s=120.3,
                            loss=LossSpec("gilbert", p=0.01, q=0.5))
        result = run_scenario(sc)
        assert [fs.generated for fs in result.flows] \
            == [recount_generated(sc, i) for i in range(sc.flow_count)]


def holed_sender(holes, duration_s=10.0):
    """A lone sender on a lossless path whose packets ``holes`` are
    dropped; returns it, run to ``duration_s``, and its delivered seqs in
    delivery order."""
    sim, sender = lone_sender(Scenario(aggregate_rate_bps=2.0e5,
                                       duration_s=duration_s))
    delivered = []
    send = sender.path.send

    def drop_holes(now, flow_id, seq, size_bytes):
        outcome = send(now, flow_id, seq, size_bytes)
        if seq in holes:
            return WIRELESS_DROP
        if isinstance(outcome, float):
            delivered.append(seq)
        return outcome

    sender.path.send = drop_holes
    sim.run_until(duration_s)
    return sender, delivered


def traced_losses(sender):
    """For each loss row of the trace: (acks before it, its n)."""
    acks = 0
    losses = []
    for r in sender.ctrl.trace:
        if r.event_type == "ack":
            acks += 1
        else:
            losses.append((acks, r.n))
    return losses


def third_later_ack(delivered, hole):
    """The 1-based number of the ACK that reports the third delivered
    seq above ``hole``."""
    return [i for i, s in enumerate(delivered, start=1) if s > hole][2]


class TestDuplicateFeedbackLoss:
    """A seq is declared lost when the third later packet is reported
    delivered; contiguous losses form one loss event."""

    def test_hole_declared_lost_at_third_later_ack(self):
        sender, delivered = holed_sender({5})
        assert delivered[:8] == [0, 1, 2, 3, 4, 6, 7, 8]
        # lost exactly at the ACK of 8, after the ACKs of 6 and 7
        assert traced_losses(sender) == [(third_later_ack(delivered, 5),
                                          1)]
        assert third_later_ack(delivered, 5) == 8
        assert sender.stats.timeouts == 0
        assert 5 not in sender.outstanding

    def test_contiguous_holes_form_one_event(self):
        sender, delivered = holed_sender({5, 6, 7})
        assert traced_losses(sender) == [(third_later_ack(delivered, 7),
                                          3)]
        assert sender.stats.timeouts == 0

    def test_separated_holes_form_two_events(self):
        for holes in ({5, 12}, {5, 7}):
            sender, delivered = holed_sender(holes)
            assert traced_losses(sender) == [
                (third_later_ack(delivered, h), 1) for h in sorted(holes)]
            assert sender.stats.timeouts == 0
        # {5, 7} is the boundary: 5 falls below the third-latest report (9)
        # at the 8th ACK, one ACK before 7 falls below 10, so one ACK's
        # lost seqs never skip a delivered one
        assert traced_losses(sender) == [(8, 1), (9, 1)]


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

    def test_controllers_take_the_scenario_settings(self):
        sc = Scenario(flow_count=2, policy="zigzag", alpha=0.25,
                      strict_n4=True, initial_ssthresh_pkts=30.0)
        for sender in Network(sc).senders:
            ctrl = sender.ctrl
            assert (ctrl.policy, ctrl.strict_n4, ctrl.ssthresh,
                    ctrl.alpha) == ("zigzag", True, 30.0, 0.25)

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
            in_flight = in_flight_at_horizon(fs)
            assert fs.sent == fs.delivered + fs.wireless_drops \
                + fs.queue_drops + in_flight
            assert 0 <= in_flight <= 200

    def test_no_loss_below_bottleneck_zero_drops(self):
        result = run_scenario(short_scenario(aggregate_rate_bps=1.0e6))
        assert all(fs.queue_drops == 0 and fs.wireless_drops == 0
                   for fs in result.flows)
        assert list(result.loss_trace) == []

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

    def test_fifo_per_flow_delivery_order(self):
        sc = short_scenario(flow_count=3, aggregate_rate_bps=1.5e6,
                            loss=LossSpec("gilbert", p=0.05, q=0.5))
        net = Network(sc)
        delivered = {}  # flow_id -> [(seq, delivery time)]
        send = net.path.send

        def record(now, flow_id, seq, size_bytes):
            outcome = send(now, flow_id, seq, size_bytes)
            if isinstance(outcome, float):
                delivered.setdefault(flow_id, []).append((seq, outcome))
            return outcome

        net.path.send = record
        result = net.run()
        assert sorted(delivered) == [0, 1, 2]
        for flow_id, fs in enumerate(result.flows):
            seqs = [seq for seq, _ in delivered[flow_id]]
            assert len(seqs) == fs.delivered
            assert all(a < b for a, b in zip(seqs, seqs[1:]))
            assert [t for _, t in delivered[flow_id]] \
                == list(fs.delivery_times)

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
        assert list(a.loss_trace) == list(b.loss_trace)
        assert [list(fs.delivery_times) for fs in a.flows] \
            == [list(fs.delivery_times) for fs in b.flows]
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


class TestTeardown:
    def test_run_freed_without_cyclic_gc(self):
        """A finished run is freed by reference counting alone, so nothing
        it leaves behind (the events due after the horizon included) holds
        a sender or the simulator."""
        sc = short_scenario(flow_count=2, aggregate_rate_bps=1.5e6,
                            duration_s=30.0, warmup_s=0.0,
                            loss=LossSpec("gilbert", p=0.05, q=0.5))
        enabled = gc.isenabled()
        gc.disable()
        try:
            net = Network(sc)
            result = net.run()
            assert sum(fs.wireless_drops for fs in result.flows) > 0
            # a flow with packets out has its rto event still queued
            assert sum(in_flight_at_horizon(fs) for fs in result.flows) > 0
            sender = weakref.ref(net.senders[0])
            sim = weakref.ref(net.sim)
            del net, result
            assert sender() is None
            assert sim() is None
        finally:
            if enabled:
                gc.enable()


# values that Scenario.validate must reject, naming the field: out of
# range, not of the type of the field's default (an int field takes no
# float or bool, a float field no str or bool, strict_n4 only a bool), or
# a number too large for a float, some of them with too many digits for
# str to print
INVALID = {
    "flow_count": (0, -1, 2.5, True, MAX_FLOWS + 1, 10 ** 300,
                   -10 ** 5000),
    "aggregate_rate_bps": (0.0, -1.0e6, math.nan, math.inf, "1e6", True,
                           10 ** 5000, 1e20),
    "loss": ("gilbert", ("gilbert", 0.01, 0.5, 0.0)),
    "policy": ("cubic", None, 10 ** 5000),
    "duration_s": (math.nan, math.inf, 0.0),
    "seed": (1.5, True, 2 ** 64, -2 ** 64, 10 ** 300),
    "warmup_s": (-1.0, math.nan),
    "queue_capacity_pkts": (0, 1.5, 10 ** 400),
    "packet_size_bytes": (0, -1000, 10 ** 400),
    "feedback_size_bytes": (0, -40, 10 ** 400),
    "alpha": (0.0, 0.5, math.nan),
    "strict_n4": ("no", 1, 10 ** 5000),
    "initial_ssthresh_pkts": (1.0, math.nan),
    "loss.kind": ("bursty", None),
    "loss.p": (-0.1, 1.5, math.nan, "0.1"),
    "loss.q": (0.0, 1.5),
    "loss.plr": (-0.1, 1.1, math.nan),
}
# the loss fields each kind reads; a nonzero value of another is rejected
LOSS_READS = {"gilbert": ("loss.p", "loss.q"), "uniform": ("loss.plr",),
              "none": ()}


# a loss field's value is read only under its kind; p is walked with a
# valid q, so that only the walked field is out of range
READER_LOSS = {"loss.p": LossSpec("gilbert", q=0.5),
               "loss.q": LossSpec("gilbert"),
               "loss.plr": LossSpec("uniform")}


def value_id(value):
    """str(value), or the bit length of an int too long to read as an id."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"{'-' * (value < 0)}int{value.bit_length()}bits"
    return str(value)


@pytest.mark.parametrize("field,value", [
    (name, value) for name in sorted(INVALID) for value in INVALID[name]],
    ids=value_id)
def test_each_invalid_value_rejected_naming_its_field(field, value):
    if field.startswith("loss."):
        spec = READER_LOSS.get(field, LossSpec())
        sc = Scenario(loss=spec._replace(**{field.removeprefix("loss."):
                                            value}))
    else:
        sc = Scenario(**{field: value})
    with pytest.raises(ScenarioError, match=f"^{re.escape(field)}:"):
        run_scenario(sc)


def test_int_beyond_the_float_range_rejected():
    # math.isfinite would raise OverflowError on it
    with pytest.raises(ScenarioError,
                       match="^aggregate_rate_bps: must be finite"):
        run_scenario(Scenario(aggregate_rate_bps=2 ** 1024))


def test_per_flow_rate_that_rounds_to_zero_rejected():
    # positive in aggregate, but 5e-324 / 2 is 0.0, and the sender's
    # packet interval would divide by it
    sc = Scenario(flow_count=2, aggregate_rate_bps=5e-324)
    assert sc.per_flow_rate_bps == 0.0
    with pytest.raises(ScenarioError, match="^aggregate_rate_bps:"):
        run_scenario(sc)


@st.composite
def fuzzed_scenarios(draw):
    """A short scenario, and the one field made invalid or None."""
    broken = draw(st.none() | st.sampled_from(sorted(INVALID)))
    duration = draw(st.floats(0.5, 20.0))
    fields = dict(
        flow_count=draw(st.integers(1, 5)),
        aggregate_rate_bps=draw(st.floats(1.0e4, 3.0e6)),
        policy="baseline",
        duration_s=duration,
        warmup_s=duration * draw(st.floats(0.0, 0.9)),
        seed=draw(st.integers(0, 2 ** 32)),
        queue_capacity_pkts=draw(st.integers(1, 60)),
        packet_size_bytes=draw(st.integers(200, 1500)),
        feedback_size_bytes=draw(st.integers(1, 100)),
        alpha=draw(st.floats(0.01, 0.49)),
        strict_n4=draw(st.booleans()),
        initial_ssthresh_pkts=draw(st.floats(2.0, 100.0)))
    kind = draw(st.sampled_from(["gilbert", "uniform", "none"]))
    drawn = dict(p=draw(st.floats(0.0, 1.0)), q=draw(st.floats(0.01, 1.0)),
                 plr=draw(st.floats(0.0, 1.0)))
    # all three are drawn for every kind, which keeps the examples spread
    # over the kinds; the scenario carries only those its kind reads
    loss = {"kind": kind, **{name: value for name, value in drawn.items()
                             if f"loss.{name}" in LOSS_READS[kind]}}
    if broken is not None:
        if broken.startswith("loss.") and broken != "loss.kind" \
                and broken not in LOSS_READS[kind]:
            # a field the kind never reads: any nonzero value is rejected
            value = draw(st.floats(0.01, 1.0))
        else:
            value = draw(st.sampled_from(INVALID[broken]))
        if broken.startswith("loss."):
            loss[broken.removeprefix("loss.")] = value
        else:
            fields[broken] = value
    # a broken "loss" replaces the drawn one
    return Scenario(**{"loss": LossSpec(**loss), **fields}), broken


def check_loss_events_per_feedback(sender):
    """Wrap ``sender.on_feedback`` so each call checks that its seq is
    above the flow's previous report, and that the seqs it declares lost,
    all it removes but the ACKed one, are contiguous and form one loss
    event of that many packets.

    The ``fb`` events bind ``on_feedback`` when they are scheduled, in
    ``try_send``, so this must run before the simulation starts.  The seq
    is the head of the flow's pending feedback, which the call pops.
    """
    on_feedback = sender.on_feedback
    last_reported = [-1]

    def checked():
        seq, _ = sender._feedback[0]
        # the premise of the loss rule: reports arrive in seq order
        assert seq > last_reported[0]
        last_reported[0] = seq
        before = set(sender.outstanding)
        rows = len(sender.ctrl.trace)
        on_feedback()
        lost = sorted(before - set(sender.outstanding) - {seq})
        losses = [r.n for r in islice(sender.ctrl.trace, rows, None)
                  if r.event_type == "loss"]
        if lost:
            assert lost == list(range(lost[0], lost[-1] + 1))
            assert losses == [len(lost)]
        else:
            assert losses == []

    sender.on_feedback = checked


def record_sends(path):
    """Wrap ``path.send`` to keep each packet's send time and outcome by
    (flow_id, seq)."""
    sends = {}
    send = path.send

    def recorded(now, flow_id, seq, size_bytes):
        outcome = send(now, flow_id, seq, size_bytes)
        sends[flow_id, seq] = now, outcome
        return outcome

    path.send = recorded
    return sends


def record_feedback(sender, popped):
    """Wrap ``sender.on_feedback`` to append (time, flow_id, seq, sent_at)
    to ``popped`` for each fb event, before it pops its pending entry."""
    on_feedback = sender.on_feedback

    def recorded():
        popped.append((sender.sim.now, sender.flow_id, *sender._feedback[0]))
        on_feedback()

    sender.on_feedback = recorded


class TestScenarioFuzz:
    """Every fuzzed scenario is rejected naming its broken field, or runs
    as a pair that keeps the run invariants."""

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(fuzzed_scenarios())
    def test_rejected_or_keeps_invariants(self, case):
        sc, broken = case
        if broken is not None:
            with pytest.raises(ScenarioError, match=f"^{re.escape(broken)}:"):
                run_scenario(sc)
            return
        nets = [Network(sc.with_policy(p)) for p in ("baseline", "zigzag")]
        for net in nets:
            for sender in net.senders:
                check_loss_events_per_feedback(sender)
        pair = [net.run() for net in nets]
        for net, result in zip(nets, pair):
            self.check_run(sc, net, result)
        a, b = (result.loss_trace for result in pair)
        n = min(len(a), len(b))
        assert a[:n] == b[:n]

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(fuzzed_scenarios().filter(lambda case: case[1] is None))
    def test_fb_events_pop_their_own_feedback_in_order(self, case):
        """fb events come due in the order they are scheduled, across all
        flows, so each pops its own packet from its flow's FIFO."""
        sc, _ = case
        for policy in (BASELINE, ZIGZAG):
            net = Network(sc.with_policy(policy), log_events=True)
            sends = record_sends(net.path)
            popped = []
            for sender in net.senders:
                record_feedback(sender, popped)
            net.run()
            fb_times = fired(net.sim, "fb")
            assert fb_times == sorted(fb_times)
            assert [t for t, *_ in popped] == fb_times
            delay = net.receiver_delay_s
            for t, flow_id, seq, sent_at in popped:
                sent, delivery = sends[flow_id, seq]
                assert (sent_at, t) == (sent, delivery + delay)
            for sender in net.senders:
                fed_back = [seq for _, flow_id, seq, _ in popped
                            if flow_id == sender.flow_id]
                # every delivered packet, in seq order, its feedback
                # pending if due after the horizon
                delivered = [(seq, sent_at, out) for (flow_id, seq),
                             (sent_at, out) in sends.items()
                             if flow_id == sender.flow_id
                             and isinstance(out, float)]
                due = [seq for seq, _, out in delivered
                       if out + delay <= sc.duration_s]
                assert fed_back == due
                assert list(sender._feedback) == [
                    (seq, sent_at) for seq, sent_at, _ in delivered[len(due):]]

    @staticmethod
    def check_run(sc, net, result):
        drop_flows = [flow_id for _, flow_id, _ in result.queue_drop_log]
        for flow_id, fs in enumerate(result.flows):
            assert fs.generated == recount_generated(sc, flow_id)
            assert fs.generated >= fs.sent
            assert in_flight_at_horizon(fs) >= 0
            assert drop_flows.count(flow_id) == fs.queue_drops
            times = list(fs.delivery_times)
            assert len(times) == fs.delivered
            assert times == sorted(times)
            assert all(0.0 < t <= sc.duration_s for t in times)
            # each delivery is acknowledged after the fixed reverse path
            acks = [r.t for r in result.traces[flow_id]
                    if r.event_type == "ack"]
            assert acks == [t + net.receiver_delay_s for t in times
                            if t + net.receiver_delay_s <= sc.duration_s]
        assert sum(fs.wireless_drops for fs in result.flows) \
            == sum(dropped for _, dropped in result.loss_trace)
        for ctrl, trace in zip(result.controllers, result.traces):
            # so the sender's window, int(cwnd), is never below two
            assert ctrl.cwnd >= MIN_SSTHRESH
            assert all(r.cwnd >= MIN_SSTHRESH for r in trace)
            times = [r.t for r in trace]
            assert times == sorted(times)


class EpochTimerSender(Sender):
    """A sender with the timer that the deadline rule replaced, kept as the
    reference: on every restart it moves the deadline and keeps one rto
    event pending, which re-arms at the deadline when it fires early, and
    an earlier deadline schedules a new event and voids the old by epoch.
    It schedules rto events without regard to pending feedback.  It arms
    where ``Sender`` restarts its timer: a send from idle arms after the
    sends, not before the first."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.last_progress = 0.0
        self._deadline = None
        self._timer_at = None
        self._timer_epoch = 0

    def _restart_timer(self):
        self.last_progress = self.sim.now
        self._arm_timer()

    def _arm_timer(self):
        if not self.outstanding:
            self._deadline = None
            return
        self._deadline = deadline = self.last_progress + self._rto()
        if self._timer_at is None or deadline < self._timer_at:
            self._schedule_timer(deadline)

    def _schedule_timer(self, at):
        self._timer_epoch += 1
        self._timer_at = at
        self.sim.schedule_at(at, partial(self._on_timer, self._timer_epoch),
                             "rto")

    def _on_timer(self, epoch):
        if epoch != self._timer_epoch:
            return
        self._timer_at = None
        if self._deadline is None:
            return
        if self.sim.now < self._deadline:
            self._schedule_timer(self._deadline)
        else:
            self._on_timeout()


class TestTimerAgainstEpochTimer:
    """The deadline rule times out at exactly the instants the epoch timer
    does, and so changes nothing a run records."""

    @staticmethod
    def run(sc, rto_scale, sender_class):
        with mock.patch.object(harness, "Sender", sender_class):
            net = Network(sc, log_events=True)
        timeouts = []
        for sender in net.senders:
            rto, on_timeout = sender._rto, sender._on_timeout
            sender._rto = lambda rto=rto: rto_scale * rto()

            def record(sender=sender, on_timeout=on_timeout):
                timeouts.append((sender.sim.now, sender.flow_id))
                on_timeout()

            sender._on_timeout = record
        result = net.run()
        return (metrics.controller_trace_hash(result),
                metrics.delivery_hash(result), result.loss_trace[:],
                result.queue_drop_log, result.flows, timeouts), net

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(fuzzed_scenarios().filter(lambda case: case[1] is None),
           st.sampled_from([BASELINE, ZIGZAG]), st.integers(1, 2000),
           st.sampled_from([1.0, 0.75, 0.6]))
    def test_same_run_and_timeouts(self, case, policy, capacity, rto_scale):
        # an _rto() scaled below 1 pushes feedback past more deadlines;
        # below about 0.6 it could fall under _on_timeout's 2 * mean grace
        sc = case[0]._replace(policy=policy, queue_capacity_pkts=capacity)
        ours, net = self.run(sc, rto_scale, Sender)
        reference, ref_net = self.run(sc, rto_scale, EpochTimerSender)
        assert ours == reference
        assert len(fired(net.sim, "rto")) <= len(fired(ref_net.sim, "rto"))


def per_packet_series(result):
    """The reference for throughput_series: each delivery adds bucket_bps
    to the bucket its time falls in, one packet at a time."""
    sc = result.scenario
    buckets = math.ceil(sc.duration_s / metrics.BUCKET_S)
    bucket_bps = sc.packet_size_bytes * 8 / metrics.BUCKET_S
    series = []
    for fs in result.flows:
        samples = [0.0] * buckets
        for t in fs.delivery_times:
            samples[min(int(t / metrics.BUCKET_S), buckets - 1)] += bucket_bps
        series.append(samples)
    return series


def per_packet_mean_throughput(result):
    """The reference for run_mean_throughput: each delivery in the window
    is counted, one packet at a time."""
    sc = result.scenario
    delivered = sum(1 for fs in result.flows for t in fs.delivery_times
                    if sc.warmup_s < t <= sc.duration_s)
    return delivered * sc.packet_size_bytes * 8 / (sc.duration_s - sc.warmup_s)


class TestDeliveryCountsByBisection:
    """metrics counts deliveries by bisection, which holds only while each
    flow's delivery times never decrease."""

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(fuzzed_scenarios().filter(lambda case: case[1] is None),
           st.sampled_from([BASELINE, ZIGZAG]))
    def test_sorted_and_equal_to_per_packet_loops(self, case, policy):
        result = run_scenario(case[0].with_policy(policy))
        for fs in result.flows:
            times = list(fs.delivery_times)
            assert times == sorted(times)
        assert metrics.throughput_series(result) == per_packet_series(result)
        assert metrics.run_mean_throughput(result) \
            == per_packet_mean_throughput(result)
