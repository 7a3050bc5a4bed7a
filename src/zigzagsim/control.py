"""Window-based congestion control with sender-side wireless/congestion loss
discrimination.

Two policies share one controller: the baseline halves its window on every
loss event, the zig-zag variant halves only when the loss classifies as
congestion.  Classification uses the consecutive-loss count n and the
relative one-way trip time (ROTT, approximated as RTT/2) against its
exponential mean and deviation.
"""

import struct
from collections import namedtuple

# the policy names and the defaults a scenario validates are scenario's
from .scenario import (BASELINE, DEFAULT_ALPHA, INITIAL_SSTHRESH,
                       MIN_SSTHRESH, ZIGZAG)

WIRELESS = "wireless"
CONGESTION = "congestion"

SLOW_START = "slow_start"
CONGESTION_AVOIDANCE = "congestion_avoidance"

INITIAL_CWND = 2.0


class LossEvent(namedtuple("LossEvent", "n rott_at_detection")):
    """A maximal run of n consecutive missing sequence numbers."""

    __slots__ = ()

    def __new__(cls, n, rott_at_detection):
        if n < 1:
            raise ValueError("loss event needs n >= 1")
        return tuple.__new__(cls, (n, rott_at_detection))


def classify_loss(n, rott_i, mean, dev, strict_n4=False):
    """Classify one loss event as WIRELESS or CONGESTION.

    Wireless iff one of:
      n = 1  and rott_i < mean - dev
      n = 2  and rott_i < mean - 0.5*dev
      n = 3  and rott_i < mean
      n >= 4 and rott_i < mean + 0.5*dev

    With strict_n4, the last rule applies to n = 4 only and n >= 5 is
    always congestion.
    """
    if n == 1:
        wireless = rott_i < mean - dev
    elif n == 2:
        wireless = rott_i < mean - 0.5 * dev
    elif n == 3:
        wireless = rott_i < mean
    elif n == 4 or not strict_n4:
        wireless = rott_i < mean + 0.5 * dev
    else:
        wireless = False
    return WIRELESS if wireless else CONGESTION


class CongestionController:
    """Slow-start / congestion-avoidance window controller.

    ``policy`` selects the reaction to loss events; everything else is
    identical between the two variants, so zero-loss runs are bitwise
    equivalent.  ``mean`` and ``dev`` are the exponential average and
    mean deviation, with gain ``alpha``, of the ``sample_count`` ROTT
    samples taken so far.  Each call of ``on_ack`` and ``on_loss_event``
    appends one row to ``trace``, the flow's ControllerTrace.
    """

    def __init__(self, policy=BASELINE, strict_n4=False, alpha=DEFAULT_ALPHA,
                 ssthresh=INITIAL_SSTHRESH, flow_id=0):
        self.policy = policy
        self.strict_n4 = strict_n4
        self.alpha = alpha
        self.cwnd = INITIAL_CWND
        self.ssthresh = ssthresh
        self.congestion_events = 0
        self.wireless_events = 0
        self.mean = 0.0
        self.dev = 0.0
        self.sample_count = 0
        self.trace = ControllerTrace(flow_id)

    def on_ack(self, t, rtt, window_limited=True):
        """Process the acknowledgement of one new packet at time ``t`` and
        trace it; returns its ROTT sample, RTT/2.  A non-positive sample
        raises ValueError.

        The first sample sets mean = sample and dev = 0.  After that the
        mean is updated first, and its new value is used inside the
        deviation's absolute difference.

        The window grows by one packet in slow start and by 1/cwnd in
        congestion avoidance, and only while the window is the binding
        constraint; an application-limited sender must not inflate cwnd.
        """
        rott_i = rtt / 2.0
        if rott_i <= 0.0:
            raise ValueError(f"rott sample must be positive, got {rott_i}")
        if self.sample_count == 0:
            self.mean = mean = rott_i
            self.dev = dev = 0.0
        else:
            a = self.alpha
            self.mean = mean = (1.0 - a) * self.mean + a * rott_i
            self.dev = dev = (1.0 - 2.0 * a) * self.dev \
                + 2.0 * a * abs(rott_i - mean)
        self.sample_count += 1
        cwnd = self.cwnd
        ssthresh = self.ssthresh
        if window_limited:
            self.cwnd = cwnd = cwnd + 1 if cwnd < ssthresh else cwnd + 1 / cwnd
        self.trace.rows += ROW.pack(t, cwnd, cwnd >= ssthresh, 0, rott_i,
                                    mean, dev)
        return rott_i

    def on_loss_event(self, t, event, forced_congestion=False):
        """React to one loss event detected at time ``t`` and trace it;
        returns its class.

        Baseline policy treats every event as congestion.  Timeout-detected
        events, and any before the first ROTT sample, are forced to
        congestion under either policy.
        """
        n, rott_i = event
        if forced_congestion or self.policy == BASELINE \
                or self.sample_count == 0:
            cls = CONGESTION
        else:
            cls = classify_loss(n, rott_i, self.mean, self.dev,
                                self.strict_n4)
        if cls == CONGESTION:
            self.ssthresh = self.cwnd = max(self.cwnd / 2.0, MIN_SSTHRESH)
            self.congestion_events += 1
            kind = 4
        else:
            self.wireless_events += 1
            kind = 2
        cwnd = self.cwnd
        self.trace.rows += ROW.pack(t, cwnd, kind + (cwnd >= self.ssthresh),
                                    n, rott_i, self.mean, self.dev)
        return cls


# The text of a trace row: a %-conversion per TraceRecord field, but named
# slots for the flow id and the kind's three words.  TraceRecord.as_row and
# ControllerTrace.text both fill it; the words are fixed (the constants
# above, "ack" and "loss"), so none is quoted.
ROW_TEMPLATE = "%.9f,{flow},%.6f,{phase},{event},{cls},%d,%.9f,%.9f,%.9f"
ROW_FORMAT = ROW_TEMPLATE.format(flow="%d", phase="%s", event="%s", cls="%s")


class TraceRecord(namedtuple("TraceRecord", "t flow_id cwnd phase event_type "
                             "loss_class n rott_i rott_mean rott_dev")):
    """One controller trace row; reproduces window-versus-time plots.

    ``event_type`` is "ack" or "loss", and ``loss_class`` is "" for acks.
    Rows are stored packed in a ControllerTrace; a TraceRecord is a view
    of one row, built when the trace is iterated.
    """

    __slots__ = ()

    def as_row(self):
        """The row as one CSV line, without its terminator."""
        return ROW_FORMAT % self


# (phase, event_type, loss_class) of every row a controller can trace; a
# row stores its kind's index in one byte, 2 * event + phase, where event
# is 0 for an ack, 1 for a wireless loss and 2 for a congestion loss, and
# phase is 1 when cwnd >= ssthresh (congestion avoidance)
ROW_KINDS = tuple((phase, event, cls)
                  for event, cls in (("ack", ""), ("loss", WIRELESS),
                                     ("loss", CONGESTION))
                  for phase in (SLOW_START, CONGESTION_AVOIDANCE))
# the first congestion-loss kind: the kinds from it on are the rows that
# may shrink cwnd under either policy
FIRST_CONGESTION_KIND = 4


# One packed trace row: t, cwnd, kind code, n, and the ROTT sample, mean
# and deviation; standard sizes, no padding, 49 bytes
ROW = struct.Struct("=ddBqddd")


class ControllerTrace:
    """One flow's controller trace, kept as packed ROW records.

    The flow id is stored once.  Iterating yields TraceRecord views; text()
    and the halving check read unpack(), and the trace hash reads rows.
    """

    __slots__ = ("flow_id", "rows")

    def __init__(self, flow_id):
        self.flow_id = flow_id
        self.rows = bytearray()

    def __len__(self):
        return len(self.rows) // ROW.size

    def unpack(self):
        """Each row as a (t, cwnd, kind, n, rott_i, mean, dev) tuple; until
        the reader is exhausted or dropped, the controller's on_ack and
        on_loss_event raise BufferError."""
        return ROW.iter_unpack(self.rows)

    def __iter__(self):
        flow_id = self.flow_id
        for t, cwnd, kind, n, rott_i, mean, dev in self.unpack():
            phase, event, cls = ROW_KINDS[kind]
            yield TraceRecord(t, flow_id, cwnd, phase, event, cls, n, rott_i,
                              mean, dev)

    def text(self):
        """Every row's as_row text followed by "\r\n", as one string."""
        # per kind, the template with the flow id and words written in
        formats = [ROW_TEMPLATE.format(flow=self.flow_id, phase=phase,
                                       event=event, cls=cls) + "\r\n"
                   for phase, event, cls in ROW_KINDS]
        return "".join([formats[kind] % (t, cwnd, n, rott_i, mean, dev)
                        for t, cwnd, kind, n, rott_i, mean, dev
                        in self.unpack()])
