"""Three-node reference topology and the per-flow sender/receiver machinery.

Layout: n0 --(2 Mb/s, 100 ms, duplex wired)-- n1 --(1.3 Mb/s, 200 ms,
simplex wireless each way)-- n2.  All senders live at n0, receivers at n2.
A shared drop-tail queue feeds the n1->n2 wireless link, the only link
that consults the loss model.  The wired hop is computed when a packet is
sent; a packet still on it at the horizon never reaches the queue.  The
reverse feedback path is lossless and lightly loaded (40-byte feedback),
so it is modeled as a fixed latency, and a packet's delivery and its
feedback time are both known when it is sent.
"""

from collections import deque
from dataclasses import dataclass, field
from functools import partial

# TraceRecord is not used here but stays importable from this module: the
# benchmark's tracer patches it by name
from .control import (CongestionController, ControllerTrace, LossEvent,
                      TraceRecord)
from .kernel import RngStream, Simulator
from .scenario import Scenario

WIRED_BANDWIDTH_BPS = 2.0e6
WIRED_DELAY_S = 0.100
WIRELESS_BANDWIDTH_BPS = 1.3e6
WIRELESS_DELAY_S = 0.200

DUP_THRESHOLD = 3
INITIAL_RTO_S = 3.0
MIN_RTO_S = 0.2
# grace before the timer has any RTT sample: base path RTT plus slack
DEFAULT_TIMEOUT_GRACE_S = 0.7


# what ForwardPath.send returns instead of a delivery time
IN_FLIGHT = "in flight"
QUEUE_DROP = "queue"
WIRELESS_DROP = "wireless"


class ForwardPath:
    """The data path n0 -> n1 -> n2 that every sender shares.

    The wired hop is a lossless FIFO busy-until server, so packets reach
    the drop-tail queue at n1 in send order, at non-decreasing times.
    Queue admission and the loss draw therefore run at send time, at the
    computed arrival time, and still happen in arrival order.  Queue
    occupancy counts packets waiting plus the one in service; arrivals to
    a full queue are dropped (the congestion losses).  The loss model is
    consulted once per admitted packet; a wireless drop still consumes
    airtime but never arrives.
    """

    def __init__(self, capacity, loss_model, rng, horizon_s):
        self.capacity = capacity
        self.loss_model = loss_model
        self.rng = rng
        self.horizon_s = horizon_s
        self.wired_busy_until = 0.0
        self._departures = deque()  # wireless transmission-complete times
        self.queue_drop_log = []    # (arrival time, flow_id, seq)
        self.loss_trace = []        # (packet_index, dropped, model_state)

    def send(self, now, flow_id, seq, size_bytes):
        """Send one packet from n0 at ``now``.

        Returns its delivery time at n2 if that is within the horizon, or
        the cause of its drop, QUEUE_DROP or WIRELESS_DROP, or else
        IN_FLIGHT.  A packet that reaches n1 only after the horizon
        changes nothing else; one admitted in time is queued and drawn.
        """
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
        # what is left departs after the arrival, so service starts when
        # the last of it is done, or at the arrival if the queue is empty
        start = dep[-1] if dep else arrival
        done = start + size_bytes * 8.0 / WIRELESS_BANDWIDTH_BPS
        dep.append(done)
        model = self.loss_model
        if model is not None:
            dropped = model.should_drop(self.rng)
            self.loss_trace.append((len(self.loss_trace), 1 if dropped else 0,
                                    model.state))
            if dropped:
                return WIRELESS_DROP
        delivery = done + WIRELESS_DELAY_S
        return delivery if delivery <= self.horizon_s else IN_FLIGHT


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
    congestion window admits them.  The buffer is filled from the clock
    when the sender acts, so CBR instants cost an event only while the
    window has room.  An outstanding packet is its send time.  Reports
    reach a flow in increasing seq order (the path is FIFO, and equal
    feedback times fire in send order), so a seq has DUP_THRESHOLD later
    packets reported exactly when it is below the DUP_THRESHOLD-th latest
    report: the seqs below it are declared lost as one loss event.  A
    timer, one pending event per flow, declares everything stale as a
    single congestion event when feedback dries up.
    """

    def __init__(self, sim, flow_id, scenario, path, receiver_delay_s,
                 start_time):
        self.sim = sim
        self.flow_id = flow_id
        self.scenario = scenario
        self.path = path
        self.receiver_delay_s = receiver_delay_s
        self.ctrl = CongestionController(
            policy=scenario.policy, alpha=scenario.alpha,
            strict_n4=scenario.strict_n4,
            ssthresh=scenario.initial_ssthresh_pkts)
        self.trace = ControllerTrace(flow_id)
        self.stats = FlowStats()
        self.outstanding = {}  # seq -> sent_at, insertion = seq order
        # the DUP_THRESHOLD latest reported seqs, oldest first
        self._reported = deque([-1] * DUP_THRESHOLD, maxlen=DUP_THRESHOLD)
        self.last_progress = 0.0
        self._deadline = None    # timeout time; None while nothing is out
        self._timer_at = None    # fire time of the pending rto event
        self._timer_epoch = 0
        self._gen_interval = scenario.packet_size_bytes * 8.0 \
            / scenario.per_flow_rate_bps
        self._next_gen = start_time  # first CBR instant not yet generated
        self._wakeup_pending = True
        sim.schedule_at(start_time, self._wakeup, "gen")

    # -- application ---------------------------------------------------

    def generate_until(self, now):
        """Count every CBR instant up to ``now`` as generated.

        The instants are the start time plus the interval, added once per
        packet, so they are the times a per-packet event chain would fire.
        """
        t = self._next_gen
        n = 0
        while t <= now:
            n += 1
            t += self._gen_interval
        self._next_gen = t
        self.stats.generated += n

    def _wakeup(self):
        self._wakeup_pending = False
        self.generate_until(self.sim.now)
        self.try_send()

    # -- transmission --------------------------------------------------

    def try_send(self):
        stats = self.stats
        out = self.outstanding
        # neither the clock nor cwnd can change while sending; the backlog
        # is generated - sent, and the next seq is the count sent so far
        now = self.sim.now
        send = self.path.send
        size_bytes = self.scenario.packet_size_bytes
        window = self.ctrl.allowed_in_flight()
        while stats.generated > stats.sent and len(out) < window:
            seq = stats.sent
            stats.sent += 1
            was_idle = not out
            out[seq] = now
            if was_idle:
                self.last_progress = now
                self._arm_timer()
            outcome = send(now, self.flow_id, seq, size_bytes)
            if outcome is QUEUE_DROP:
                stats.queue_drops += 1
            elif outcome is WIRELESS_DROP:
                stats.wireless_drops += 1
            elif outcome is not IN_FLIGHT:
                # the receiver: the packet is delivered, and its feedback
                # returns after the fixed lossless reverse path
                stats.delivered += 1
                stats.delivery_times.append(outcome)
                self.sim.schedule_at(outcome + self.receiver_delay_s,
                                     partial(self.on_feedback, seq, now), "fb")
        # a full window opens only in on_feedback or _on_timeout, which
        # generate and send first, so only a window with room needs a
        # wakeup at the next CBR instant
        if not self._wakeup_pending and len(out) < window:
            self._wakeup_pending = True
            self.sim.schedule_at(self._next_gen, self._wakeup, "gen")

    # -- feedback processing -------------------------------------------

    def on_feedback(self, seq, sent_at):
        now = self.sim.now
        if self._next_gen <= now:
            self.generate_until(now)
        ctrl = self.ctrl
        out = self.outstanding
        window_limited = self.stats.generated > self.stats.sent or \
            len(out) + 1 >= ctrl.allowed_in_flight()
        out.pop(seq, None)
        rott_i = ctrl.on_ack(now - sent_at, window_limited)
        est = ctrl.estimator
        self.trace.append(now, ctrl.cwnd, ctrl.phase, "ack", "", 0, rott_i,
                          est.mean, est.dev)
        # the outstanding seqs below the DUP_THRESHOLD-th latest report
        # are lost (no retransmission)
        reported = self._reported
        reported.append(seq)
        floor = reported[0]
        lost = []
        for s in out:
            if s >= floor:
                break
            lost.append(s)
        if lost:
            self._apply_loss_event(lost, rott_i, forced=False)
        self.last_progress = now
        self._arm_timer()
        self.try_send()

    def _apply_loss_event(self, lost, rott_i, forced):
        """Delete the ``lost`` seqs, apply them as one loss event and trace it."""
        out = self.outstanding
        for s in lost:
            del out[s]
        n = len(lost)
        ctrl = self.ctrl
        est = ctrl.estimator
        cls = ctrl.on_loss_event(LossEvent(n=n, rott_at_detection=rott_i),
                                 forced_congestion=forced)
        self.trace.append(self.sim.now, ctrl.cwnd, ctrl.phase, "loss", cls, n,
                          rott_i, est.mean, est.dev)

    # -- timeout fallback ----------------------------------------------

    def _rto(self):
        est = self.ctrl.estimator
        if est.sample_count == 0:
            return INITIAL_RTO_S
        # 2 * smoothed RTT + 4 * RTT deviation, in ROTT terms
        rto = 4.0 * est.mean + 8.0 * est.dev
        return MIN_RTO_S if MIN_RTO_S > rto else rto

    def _arm_timer(self):
        """Move the timeout to ``last_progress + _rto()``.

        One rto event is pending at a time.  A later deadline waits for it
        to fire and re-arm; an earlier one schedules a new event and voids
        the pending one by epoch.
        """
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

    def _on_timeout(self):
        now = self.sim.now
        self.generate_until(now)
        est = self.ctrl.estimator
        grace = 2.0 * est.mean if est.sample_count else DEFAULT_TIMEOUT_GRACE_S
        # never empty: the oldest outstanding packet was sent at or before
        # last_progress, and the timer fires _rto() after that, which is at
        # least grace (4 * mean >= 2 * mean, or 3.0 s against 0.7 s before
        # the first sample)
        stale = [s for s, sent_at in self.outstanding.items()
                 if sent_at <= now - grace]
        self.stats.timeouts += 1
        rott_i = est.mean if est.sample_count else 0.0
        # a silent window implies everything in it died: one event,
        # forced congestion
        self._apply_loss_event(stale, rott_i, forced=True)
        self.last_progress = now
        self._arm_timer()
        self.try_send()


@dataclass
class RunResult:
    scenario: Scenario
    flows: list            # FlowStats per flow
    controllers: list      # CongestionController per flow
    traces: list           # ControllerTrace per flow
    loss_trace: list       # (packet_index, dropped, state) on the wireless link
    queue_drop_log: list   # (time, flow_id, seq)
    events_dispatched: int = 0

    @property
    def congestion_events(self):
        return sum(c.congestion_events for c in self.controllers)

    @property
    def wireless_events(self):
        return sum(c.wireless_events for c in self.controllers)


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
        self.path = ForwardPath(scenario.queue_capacity_pkts,
                                scenario.loss.build(),
                                self.rng.substream("loss"),
                                scenario.duration_s)
        self.senders = []
        for i in range(scenario.flow_count):
            start = self.rng.substream(f"start/flow{i}").random()
            self.senders.append(Sender(self.sim, i, scenario, self.path,
                                       self.receiver_delay_s, start))

    def run(self):
        horizon = self.scenario.duration_s
        self.sim.run_until(horizon)
        # what is still queued is due after the horizon and never runs
        self.sim.drop_pending()
        for sender in self.senders:
            sender.generate_until(horizon)
        return RunResult(
            scenario=self.scenario,
            flows=[s.stats for s in self.senders],
            controllers=[s.ctrl for s in self.senders],
            traces=[s.trace for s in self.senders],
            loss_trace=self.path.loss_trace,
            queue_drop_log=self.path.queue_drop_log,
            events_dispatched=self.sim.dispatched,
        )


def run_scenario(scenario, log_events=False):
    """Build the reference topology and run it to the scenario horizon."""
    return Network(scenario, log_events=log_events).run()
