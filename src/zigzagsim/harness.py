"""Three-node reference topology and the per-flow sender/receiver machinery.

Layout: n0 --(2 Mb/s, 100 ms, duplex wired)-- n1 --(1.3 Mb/s, 200 ms,
simplex wireless each way)-- n2.  All senders live at n0, receivers at n2.
A shared drop-tail queue feeds the n1->n2 wireless link, the only link
that consults the loss model.  The reverse feedback path is lossless
and lightly loaded (40-byte feedback), so it is modeled as a fixed latency.
"""

from collections import deque
from dataclasses import dataclass, field

from .control import (CongestionController, LossEvent, TraceRecord,
                      estimate_rott)
from .kernel import RngStream, Simulator
from .scenario import Scenario, ScenarioError

WIRED_BANDWIDTH_BPS = 2.0e6
WIRED_DELAY_S = 0.100
WIRELESS_BANDWIDTH_BPS = 1.3e6
WIRELESS_DELAY_S = 0.200

DUP_THRESHOLD = 3
INITIAL_RTO_S = 3.0
MIN_RTO_S = 0.2
# grace before the timer has any RTT sample: base path RTT plus slack
DEFAULT_TIMEOUT_GRACE_S = 0.7


@dataclass
class LinkConfig:
    bandwidth_bps: float
    propagation_delay_s: float
    loss_model: object = None

    def __post_init__(self):
        if self.bandwidth_bps <= 0:
            raise ScenarioError("bandwidth_bps: must be positive")
        if self.propagation_delay_s < 0:
            raise ScenarioError("propagation_delay_s: must be >= 0")


class FifoLink:
    """Lossless FIFO link: serialization at fixed bandwidth plus propagation.

    Implemented as a busy-until server, so each packet costs one event.
    """

    def __init__(self, sim, config):
        self.sim = sim
        self.config = config
        self.busy_until = 0.0

    def transmit(self, size_bytes, deliver):
        """Queue ``size_bytes`` for transmission; calls ``deliver()`` on arrival."""
        cfg = self.config
        start = max(self.sim.now, self.busy_until)
        done = start + size_bytes * 8.0 / cfg.bandwidth_bps
        self.busy_until = done
        return self.sim.schedule_at(done + cfg.propagation_delay_s,
                                    deliver, "link")


class BottleneckLink:
    """Drop-tail queue feeding the wireless n1->n2 link.

    Occupancy counts packets waiting plus the one in service; arrivals to a
    full queue are dropped (the congestion losses).  The loss model is
    consulted once per packet in transmission order; a wireless drop still
    consumes airtime but never arrives.
    """

    def __init__(self, sim, config, capacity, rng):
        self.sim = sim
        self.config = config
        self.capacity = capacity
        self.rng = rng
        self._departures = deque()  # transmission-complete times, FIFO
        self.queue_drop_log = []    # (time, flow_id, seq)
        self.loss_trace = []        # (packet_index, dropped, model_state)
        self._index = 0

    def occupancy(self, now):
        dep = self._departures
        while dep and dep[0] <= now:
            dep.popleft()
        return len(dep)

    def transmit(self, flow_id, seq, size_bytes, deliver, on_queue_drop,
                 on_wireless_drop):
        now = self.sim.now
        if self.occupancy(now) >= self.capacity:
            self.queue_drop_log.append((now, flow_id, seq))
            on_queue_drop()
            return
        dep = self._departures
        start = dep[-1] if dep else now
        if start < now:
            start = now
        done = start + size_bytes * 8.0 / self.config.bandwidth_bps
        dep.append(done)
        model = self.config.loss_model
        if model is not None:
            dropped = model.should_drop(self.rng)
            self.loss_trace.append((self._index, 1 if dropped else 0,
                                    model.state))
            self._index += 1
            if dropped:
                on_wireless_drop()
                return
        self.sim.schedule_at(done + self.config.propagation_delay_s,
                             deliver, "wless")


@dataclass
class FlowStats:
    sent: int = 0
    delivered: int = 0
    queue_drops: int = 0
    wireless_drops: int = 0
    timeouts: int = 0
    generated: int = 0
    delivery_times: list = field(default_factory=list)


class Sender:
    """One flow: CBR offered load, window gating, feedback-driven loss detection.

    Generated packets wait in an unbounded application buffer until the
    congestion window admits them.  A sequence number is declared lost once
    DUP_THRESHOLD later packets have been reported delivered; contiguous
    losses form one loss event.  A timer declares everything stale as a
    single congestion event when feedback dries up.
    """

    def __init__(self, sim, flow_id, scenario, wired_link, bottleneck,
                 receiver_delay_s, start_time):
        self.sim = sim
        self.flow_id = flow_id
        self.scenario = scenario
        self.wired_link = wired_link
        self.bottleneck = bottleneck
        self.receiver_delay_s = receiver_delay_s
        self.ctrl = CongestionController(
            policy=scenario.policy, alpha=scenario.alpha,
            strict_n4=scenario.strict_n4,
            ssthresh=scenario.initial_ssthresh_pkts)
        self.trace = []
        self.stats = FlowStats()
        self.backlog = 0
        self.next_seq = 0
        self.outstanding = {}  # seq -> [sent_at, dup_count], insertion = seq order
        self.last_progress = 0.0
        self._timer_epoch = 0
        self._gen_interval = scenario.packet_size_bytes * 8.0 \
            / scenario.per_flow_rate_bps
        sim.schedule_at(start_time, self._generate, "gen")

    # -- application ---------------------------------------------------

    def _generate(self):
        self.backlog += 1
        self.stats.generated += 1
        self.sim.schedule(self._gen_interval, self._generate, "gen")
        self.try_send()

    # -- transmission --------------------------------------------------

    def try_send(self):
        ctrl = self.ctrl
        out = self.outstanding
        while self.backlog > 0 and len(out) < ctrl.allowed_in_flight():
            seq = self.next_seq
            self.next_seq += 1
            self.backlog -= 1
            now = self.sim.now
            was_idle = not out
            out[seq] = [now, 0]
            if was_idle:
                self.last_progress = now
                self._arm_timer()
            self.stats.sent += 1
            sent_at = now
            self.wired_link.transmit(
                self.scenario.packet_size_bytes,
                lambda s=seq, t=sent_at: self._arrive_bottleneck(s, t))

    def _arrive_bottleneck(self, seq, sent_at):
        self.bottleneck.transmit(
            self.flow_id, seq, self.scenario.packet_size_bytes,
            lambda s=seq, t=sent_at: self._deliver(s, t),
            self._queue_drop, self._wireless_drop)

    def _queue_drop(self):
        self.stats.queue_drops += 1

    def _wireless_drop(self):
        self.stats.wireless_drops += 1

    def _deliver(self, seq, sent_at):
        # receiver side: record delivery, echo feedback after the fixed
        # lossless return path
        self.stats.delivered += 1
        self.stats.delivery_times.append(self.sim.now)
        self.sim.schedule(self.receiver_delay_s,
                          lambda s=seq, t=sent_at: self.on_feedback(s, t),
                          "fb")

    # -- feedback processing -------------------------------------------

    def on_feedback(self, seq, sent_at):
        now = self.sim.now
        ctrl = self.ctrl
        out = self.outstanding
        rtt = now - sent_at
        rott_i = estimate_rott(rtt)
        was_present = out.pop(seq, None) is not None
        window_limited = self.backlog > 0 or \
            len(out) + (1 if was_present else 0) + 1 >= ctrl.allowed_in_flight()
        ctrl.on_ack(rtt, 1, window_limited)
        est = ctrl.estimator
        self.trace.append(TraceRecord(now, self.flow_id, ctrl.cwnd,
                                      ctrl.phase, "ack", "", 0, rott_i,
                                      est.mean, est.dev))
        # every outstanding seq below the delivered one gains a duplicate
        # report; at DUP_THRESHOLD it is declared lost (no retransmission)
        lost = []
        for s, rec in out.items():
            if s > seq:
                break
            rec[1] += 1
            if rec[1] >= DUP_THRESHOLD:
                lost.append(s)
        if lost:
            for s in lost:
                del out[s]
            self._emit_loss_events(lost, rott_i, forced=False)
        self.last_progress = now
        self._arm_timer()
        self.try_send()

    def _emit_loss_events(self, lost_seqs, rott_i, forced):
        """Group contiguous sequence numbers into loss events and apply them."""
        ctrl = self.ctrl
        est = ctrl.estimator
        run_start = lost_seqs[0]
        prev = lost_seqs[0]
        runs = []
        for s in lost_seqs[1:]:
            if s == prev + 1:
                prev = s
                continue
            runs.append(prev - run_start + 1)
            run_start = prev = s
        runs.append(prev - run_start + 1)
        now = self.sim.now
        for n in runs:
            event = LossEvent(n=n, rott_at_detection=rott_i)
            cls = ctrl.on_loss_event(event, forced_congestion=forced)
            self.trace.append(TraceRecord(now, self.flow_id, ctrl.cwnd,
                                          ctrl.phase, "loss", cls, n, rott_i,
                                          est.mean, est.dev))

    # -- timeout fallback ----------------------------------------------

    def _rto(self):
        est = self.ctrl.estimator
        if est.sample_count == 0:
            return INITIAL_RTO_S
        # 2 * smoothed RTT + 4 * RTT deviation, in ROTT terms
        return max(4.0 * est.mean + 8.0 * est.dev, MIN_RTO_S)

    def _arm_timer(self):
        self._timer_epoch += 1
        if not self.outstanding:
            return
        epoch = self._timer_epoch
        self.sim.schedule_at(self.last_progress + self._rto(),
                             lambda e=epoch: self._on_timeout(e), "rto")

    def _on_timeout(self, epoch):
        if epoch != self._timer_epoch or not self.outstanding:
            return
        now = self.sim.now
        est = self.ctrl.estimator
        grace = 2.0 * est.mean if est.sample_count else DEFAULT_TIMEOUT_GRACE_S
        stale = [s for s, rec in self.outstanding.items()
                 if rec[0] <= now - grace]
        if stale:
            for s in stale:
                del self.outstanding[s]
            self.stats.timeouts += 1
            rott_i = est.mean if est.sample_count else 0.0
            # a silent window implies everything in it died: one event,
            # forced congestion
            self._emit_timeout_event(len(stale), rott_i)
            self.last_progress = now
        self._arm_timer()
        self.try_send()

    def _emit_timeout_event(self, n, rott_i):
        ctrl = self.ctrl
        est = ctrl.estimator
        event = LossEvent(n=n, rott_at_detection=rott_i)
        cls = ctrl.on_loss_event(event, forced_congestion=True)
        self.trace.append(TraceRecord(self.sim.now, self.flow_id, ctrl.cwnd,
                                      ctrl.phase, "loss", cls, n, rott_i,
                                      est.mean, est.dev))


@dataclass
class RunResult:
    scenario: Scenario
    flows: list            # FlowStats per flow
    controllers: list      # CongestionController per flow
    traces: list           # list[TraceRecord] per flow
    loss_trace: list       # (packet_index, dropped, state) on the wireless link
    queue_drop_log: list   # (time, flow_id, seq)
    events_dispatched: int = 0

    @property
    def congestion_events(self):
        return sum(c.congestion_events for c in self.controllers)

    @property
    def wireless_events(self):
        return sum(c.wireless_events for c in self.controllers)

    def in_flight_at_horizon(self, flow_id):
        fs = self.flows[flow_id]
        return fs.sent - fs.delivered - fs.queue_drops - fs.wireless_drops


class Network:
    """Built reference topology, ready to run."""

    def __init__(self, scenario, log_events=False):
        scenario.validate()
        self.scenario = scenario
        self.sim = Simulator(log_events=log_events)
        self.rng = RngStream(scenario.seed)
        fb_ser = scenario.feedback_size_bytes * 8.0
        self.receiver_delay_s = (fb_ser / WIRELESS_BANDWIDTH_BPS
                                 + WIRELESS_DELAY_S
                                 + fb_ser / WIRED_BANDWIDTH_BPS
                                 + WIRED_DELAY_S)
        self.wired_link = FifoLink(
            self.sim, LinkConfig(WIRED_BANDWIDTH_BPS, WIRED_DELAY_S))
        self.bottleneck = BottleneckLink(
            self.sim,
            LinkConfig(WIRELESS_BANDWIDTH_BPS, WIRELESS_DELAY_S,
                       scenario.loss.build()),
            scenario.queue_capacity_pkts,
            self.rng.substream("loss"))
        self.senders = []
        for i in range(scenario.flow_count):
            start = self.rng.substream(f"start/flow{i}").random()
            self.senders.append(Sender(self.sim, i, scenario,
                                       self.wired_link, self.bottleneck,
                                       self.receiver_delay_s, start))

    def run(self):
        self.sim.run_until(self.scenario.duration_s)
        return RunResult(
            scenario=self.scenario,
            flows=[s.stats for s in self.senders],
            controllers=[s.ctrl for s in self.senders],
            traces=[s.trace for s in self.senders],
            loss_trace=self.bottleneck.loss_trace,
            queue_drop_log=self.bottleneck.queue_drop_log,
            events_dispatched=self.sim.dispatched,
        )


def run_scenario(scenario, log_events=False):
    """Build the reference topology and run it to the scenario horizon."""
    return Network(scenario, log_events=log_events).run()
