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

from array import array
from collections import deque
from math import inf

from . import loss
# TraceRecord is not used here but stays importable from this module: the
# benchmark's tracer patches it by name
from .control import CongestionController, LossEvent, TraceRecord
from .kernel import RngStream, Simulator

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

# wireless drop flags drawn from the loss model at a time.  Drawing ahead
# is exact: the path's "loss" substream feeds nothing else, and
# loss.simulate_trace makes the draws should_drop would make.
DRAW_CHUNK = 4096


class LossTrace:
    """The wireless hop's drop flags, one byte per loss draw.

    ``flags`` may run ahead of the packets drawn so far, which are its
    first ``n`` bytes.  Slicing gives those bytes; iterating yields
    (packet_index, dropped) pairs.
    """

    __slots__ = ("flags", "n")

    def __init__(self):
        self.flags = bytearray()
        self.n = 0

    def __len__(self):
        return self.n

    def __getitem__(self, index):
        return bytes(memoryview(self.flags)[:self.n])[index]

    def __iter__(self):
        return enumerate(self.flags[:self.n])


class ForwardPath:
    """The data path n0 -> n1 -> n2 that every sender shares.

    The wired hop is a lossless FIFO busy-until server, so packets reach
    the drop-tail queue at n1 in send order, at non-decreasing times.
    Queue admission and the loss draw therefore run at send time, at the
    computed arrival time, and still happen in arrival order.  Queue
    occupancy counts packets waiting plus the one in service; arrivals to
    a full queue are dropped (the congestion losses).  Each admitted
    packet reads the next drop flag, drawn from the loss model DRAW_CHUNK
    flags at a time; a wireless drop still consumes airtime but never
    arrives.
    """

    def __init__(self, capacity, loss_model, rng, horizon_s):
        self.capacity = capacity
        self.loss_model = loss_model
        self.rng = rng
        self.horizon_s = horizon_s
        self.wired_busy_until = 0.0
        self._departures = deque()  # wireless transmission-complete times
        self.queue_drop_log = []    # (arrival time, flow_id, seq)
        self.loss_trace = LossTrace()

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
        if self.loss_model is not None:
            trace = self.loss_trace
            n = trace.n
            flags = trace.flags
            if n == len(flags):
                # through the module, where the benchmark's tracer wraps it
                flags += loss.simulate_trace(self.loss_model, self.rng,
                                             DRAW_CHUNK)
            trace.n = n + 1
            if flags[n]:
                return WIRELESS_DROP
        delivery = done + WIRELESS_DELAY_S
        return delivery if delivery <= self.horizon_s else IN_FLIGHT


class FlowStats:
    """One flow's packet counts and delivery times; equal when all are."""

    def __init__(self, delivery_times=()):
        self.sent = 0
        self.queue_drops = 0
        self.wireless_drops = 0
        self.timeouts = 0
        self.generated = 0
        self.delivery_times = array("d", delivery_times)

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    @property
    def delivered(self):
        return len(self.delivery_times)


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
    timer declares everything stale as a single congestion event when
    feedback dries up; it costs an rto event only when the flow's own
    feedback will not restart it first.
    """

    def __init__(self, sim, flow_id, scenario, path, receiver_delay_s,
                 start_time):
        self.sim = sim
        self.flow_id = flow_id
        self.packet_size_bytes = scenario.packet_size_bytes
        self.path = path
        self.receiver_delay_s = receiver_delay_s
        self.ctrl = CongestionController(
            policy=scenario.policy, strict_n4=scenario.strict_n4,
            alpha=scenario.alpha, ssthresh=scenario.initial_ssthresh_pkts,
            flow_id=flow_id)
        self.stats = FlowStats()
        self.outstanding = {}  # seq -> sent_at, insertion = seq order
        # (seq, sent_at) of each delivered packet whose fb event is pending;
        # the flow's fb events fire in the order they are scheduled
        self._feedback = deque()
        # the DUP_THRESHOLD latest reported seqs, oldest first
        self._reported = deque([-1] * DUP_THRESHOLD, maxlen=DUP_THRESHOLD)
        self._deadline = inf  # timeout time; inf while nothing is out
        self._timer_at = inf  # fire time of the live rto event, if any
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
        size_bytes = self.packet_size_bytes
        # whole packets; cwnd never falls below MIN_SSTHRESH
        window = int(self.ctrl.cwnd)
        was_idle = not out
        while stats.generated > stats.sent and len(out) < window:
            seq = stats.sent
            stats.sent += 1
            out[seq] = now
            outcome = send(now, self.flow_id, seq, size_bytes)
            if outcome is QUEUE_DROP:
                stats.queue_drops += 1
            elif outcome is WIRELESS_DROP:
                stats.wireless_drops += 1
            elif outcome is not IN_FLIGHT:
                # the receiver: the packet is delivered, and its feedback
                # returns after the fixed lossless reverse path
                stats.delivery_times.append(outcome)
                self._feedback.append((seq, now))
                self.sim.schedule_at(outcome + self.receiver_delay_s,
                                     self.on_feedback, "fb")
        if was_idle and out:
            self._restart_timer()
        # a full window opens only in on_feedback or _on_timeout, which
        # generate and send first, so only a window with room needs a
        # wakeup at the next CBR instant
        if not self._wakeup_pending and len(out) < window:
            self._wakeup_pending = True
            self.sim.schedule_at(self._next_gen, self._wakeup, "gen")

    # -- feedback processing -------------------------------------------

    def on_feedback(self):
        seq, sent_at = self._feedback.popleft()
        now = self.sim.now
        if self._next_gen <= now:
            self.generate_until(now)
        ctrl = self.ctrl
        out = self.outstanding
        window_limited = self.stats.generated > self.stats.sent or \
            len(out) + 1 >= int(ctrl.cwnd)
        out.pop(seq, None)
        rott_i = ctrl.on_ack(now, now - sent_at, window_limited)
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
        self._restart_timer()
        self.try_send()

    def _apply_loss_event(self, lost, rott_i, forced):
        """Delete the ``lost`` seqs and apply them as one loss event."""
        out = self.outstanding
        for s in lost:
            del out[s]
        self.ctrl.on_loss_event(
            self.sim.now, LossEvent(n=len(lost), rott_at_detection=rott_i),
            forced_congestion=forced)

    # -- timeout fallback ----------------------------------------------

    def _rto(self):
        ctrl = self.ctrl
        if ctrl.sample_count == 0:
            return INITIAL_RTO_S
        # 2 * smoothed RTT + 4 * RTT deviation, in ROTT terms
        rto = 4.0 * ctrl.mean + 8.0 * ctrl.dev
        return MIN_RTO_S if MIN_RTO_S > rto else rto

    def _restart_timer(self):
        """Move the timeout to ``_rto()`` from now (RFC 6298 section 5)."""
        now = self.sim.now
        self._deadline = now + self._rto() if self.outstanding else inf
        self._arm_timer(now)

    def _arm_timer(self, now):
        """Schedule an rto event at the deadline unless feedback comes first.

        A flow's fb events fire in the order they were scheduled, at
        non-decreasing times, so if the latest one is still due by the
        deadline, the next one is too, and it restarts the timer.  A live
        rto event due before the deadline re-arms when it fires.
        """
        times = self.stats.delivery_times
        deadline = self._deadline
        if times and now < times[-1] + self.receiver_delay_s <= deadline:
            return
        if deadline < self._timer_at:
            self._timer_at = deadline
            self.sim.schedule_at(deadline, self._on_timer, "rto")

    def _on_timer(self):
        now = self.sim.now
        if now != self._timer_at:
            return  # superseded by an earlier deadline
        self._timer_at = inf
        if now < self._deadline:
            self._arm_timer(now)
        else:
            self._on_timeout()

    def _on_timeout(self):
        now = self.sim.now
        self.generate_until(now)
        ctrl = self.ctrl
        grace = 2.0 * ctrl.mean if ctrl.sample_count \
            else DEFAULT_TIMEOUT_GRACE_S
        # never empty: the oldest outstanding packet was sent at or before
        # the timer's last restart, and the deadline is _rto() after that,
        # which is at least grace (4 * mean >= 2 * mean, or 3.0 s against
        # 0.7 s before the first sample)
        stale = [s for s, sent_at in self.outstanding.items()
                 if sent_at <= now - grace]
        self.stats.timeouts += 1
        rott_i = ctrl.mean if ctrl.sample_count else 0.0
        # a silent window implies everything in it died: one event,
        # forced congestion
        self._apply_loss_event(stale, rott_i, forced=True)
        self._restart_timer()
        self.try_send()


class RunResult:
    def __init__(self, scenario, flows, controllers, traces, loss_trace,
                 queue_drop_log, events_dispatched):
        self.scenario = scenario
        self.flows = flows                  # FlowStats per flow
        self.controllers = controllers      # CongestionController per flow
        self.traces = traces                # ControllerTrace per flow
        self.loss_trace = loss_trace        # one drop flag per wireless draw
        self.queue_drop_log = queue_drop_log  # (time, flow_id, seq)
        self.events_dispatched = events_dispatched

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
        dispatched = self.sim.run_until(horizon)
        # what is still queued is due after the horizon and never runs
        self.sim.drop_pending()
        # the finished records at their exact size: without the flags drawn
        # ahead, or the spare room of the delivery arrays and the traces
        trace = self.path.loss_trace
        trace.flags = trace.flags[:trace.n]
        for sender in self.senders:
            sender.generate_until(horizon)
            stats = sender.stats
            stats.delivery_times = stats.delivery_times[:]
            sender.ctrl.trace.rows = sender.ctrl.trace.rows[:]
        return RunResult(
            scenario=self.scenario,
            flows=[s.stats for s in self.senders],
            controllers=[s.ctrl for s in self.senders],
            traces=[s.ctrl.trace for s in self.senders],
            loss_trace=self.path.loss_trace,
            queue_drop_log=self.path.queue_drop_log,
            events_dispatched=dispatched,
        )


def run_scenario(scenario):
    """Build the reference topology and run it to the scenario horizon."""
    return Network(scenario).run()
