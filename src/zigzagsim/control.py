"""Window-based congestion control with sender-side wireless/congestion loss
discrimination.

Two policies share one controller: the baseline halves its window on every
loss event, the zig-zag variant halves only when the loss classifies as
congestion.  Classification uses the consecutive-loss count n and the
relative one-way trip time (ROTT, approximated as RTT/2) against its
exponential mean and deviation.
"""

from array import array
from dataclasses import dataclass

BASELINE = "baseline"
ZIGZAG = "zigzag"

WIRELESS = "wireless"
CONGESTION = "congestion"

SLOW_START = "slow_start"
CONGESTION_AVOIDANCE = "congestion_avoidance"

DEFAULT_ALPHA = 0.125
INITIAL_CWND = 2.0
# capped near the bottleneck buffer so startup slow start cannot blow
# straight through the drop-tail queue
INITIAL_SSTHRESH = 50.0
MIN_SSTHRESH = 2.0


class EstimatorNotReady(RuntimeError):
    """classify_loss needs at least one ROTT sample."""


def estimate_rott(rtt):
    """ROTT approximated at the sender as one half of the measured RTT."""
    if rtt <= 0.0:
        raise ValueError(f"rtt must be positive, got {rtt}")
    return rtt / 2.0


@dataclass
class RottEstimator:
    """Exponential average and mean deviation of ROTT samples.

    The mean is updated first and its new value is used inside the
    deviation's absolute difference.  The first sample initializes
    mean = sample, dev = 0.
    """

    alpha: float = DEFAULT_ALPHA
    mean: float = 0.0
    dev: float = 0.0
    sample_count: int = 0

    def __post_init__(self):
        if not (0.0 < self.alpha < 0.5):
            raise ValueError(f"alpha must be in (0, 0.5), got {self.alpha}")

    def update(self, rott_i):
        if rott_i <= 0.0:
            raise ValueError(f"rott sample must be positive, got {rott_i}")
        a = self.alpha
        if self.sample_count == 0:
            self.mean = rott_i
            self.dev = 0.0
        else:
            self.mean = (1.0 - a) * self.mean + a * rott_i
            self.dev = (1.0 - 2.0 * a) * self.dev \
                + 2.0 * a * abs(rott_i - self.mean)
        self.sample_count += 1


@dataclass
class LossEvent:
    """A maximal run of n consecutive missing sequence numbers."""

    n: int
    rott_at_detection: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("loss event needs n >= 1")


def classify_loss(n, rott_i, mean, dev, sample_count=1, strict_n4=False):
    """Classify one loss event as WIRELESS or CONGESTION.

    Wireless iff one of:
      n = 1  and rott_i < mean - dev
      n = 2  and rott_i < mean - 0.5*dev
      n = 3  and rott_i < mean
      n >= 4 and rott_i < mean + 0.5*dev

    With strict_n4, the last rule applies to n = 4 only and n >= 5 is
    always congestion.
    """
    if sample_count < 1:
        raise EstimatorNotReady("no ROTT samples yet")
    if n < 1:
        raise ValueError("n must be >= 1")
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


@dataclass
class CongestionController:
    """Slow-start / congestion-avoidance window controller.

    ``policy`` selects the reaction to loss events; everything else is
    identical between the two variants, so zero-loss runs are bitwise
    equivalent.
    """

    policy: str = BASELINE
    alpha: float = DEFAULT_ALPHA
    strict_n4: bool = False
    cwnd: float = INITIAL_CWND
    ssthresh: float = INITIAL_SSTHRESH
    congestion_events: int = 0
    wireless_events: int = 0
    estimator: RottEstimator = None

    def __post_init__(self):
        if self.policy not in (BASELINE, ZIGZAG):
            raise ValueError(f"unknown policy {self.policy!r}")
        for name in ("cwnd", "ssthresh"):
            value = getattr(self, name)
            if not value >= MIN_SSTHRESH:
                raise ValueError(
                    f"{name} must be >= {MIN_SSTHRESH}, got {value}")
        if self.estimator is None:
            self.estimator = RottEstimator(alpha=self.alpha)

    @property
    def phase(self):
        return SLOW_START if self.cwnd < self.ssthresh else CONGESTION_AVOIDANCE

    def allowed_in_flight(self):
        """Window in whole packets; cwnd never falls below MIN_SSTHRESH."""
        return int(self.cwnd)

    def on_ack(self, rtt, window_limited=True):
        """Process the acknowledgement of one new packet; returns the ROTT
        sample it gave the estimator.

        The window only grows while the window is the binding constraint;
        an application-limited sender must not inflate cwnd.
        """
        rott_i = estimate_rott(rtt)
        self.estimator.update(rott_i)
        if window_limited:
            if self.phase == SLOW_START:
                self.cwnd += 1
            else:
                self.cwnd += 1 / self.cwnd
        return rott_i

    def on_loss_event(self, event, forced_congestion=False):
        """React to one loss event; returns its class.

        Baseline policy treats every event as congestion.  Timeout-detected
        events are forced to congestion under either policy.
        """
        est = self.estimator
        if forced_congestion or self.policy == BASELINE \
                or est.sample_count < 1:
            cls = CONGESTION
        else:
            cls = classify_loss(event.n, event.rott_at_detection,
                                est.mean, est.dev, est.sample_count,
                                self.strict_n4)
        if cls == CONGESTION:
            self.ssthresh = max(self.cwnd / 2.0, MIN_SSTHRESH)
            self.cwnd = self.ssthresh
            self.congestion_events += 1
        else:
            self.wireless_events += 1
        return cls


# The text of a trace row: one %-conversion per TraceRecord field, in
# field order.  TraceRecord.as_row and ControllerTrace.text both format
# with it.  The string fields are fixed words (the constants above, "ack"
# and "loss"), so none is quoted.
FIELD_FORMATS = ("%.9f", "%d", "%.6f", "%s", "%s", "%s", "%d", "%.9f",
                 "%.9f", "%.9f")
ROW_FORMAT = ",".join(FIELD_FORMATS)


@dataclass(slots=True)
class TraceRecord:
    """One controller trace row; reproduces window-versus-time plots.

    Rows are stored as a ControllerTrace's columns; a TraceRecord is a
    view of one row, built when the trace is iterated.
    """

    t: float
    flow_id: int
    cwnd: float
    phase: str
    event_type: str  # "ack" or "loss"
    loss_class: str  # "" for acks
    n: int
    rott_i: float
    rott_mean: float
    rott_dev: float

    def as_row(self):
        """The row as one CSV line, without its terminator."""
        return ROW_FORMAT % (
            self.t, self.flow_id, self.cwnd, self.phase, self.event_type,
            self.loss_class, self.n, self.rott_i, self.rott_mean,
            self.rott_dev)


# (phase, event_type, loss_class) of every row a controller can trace; a
# row stores its kind's index in one byte
ROW_KINDS = tuple((phase, event, cls)
                  for event, cls in (("ack", ""), ("loss", WIRELESS),
                                     ("loss", CONGESTION))
                  for phase in (SLOW_START, CONGESTION_AVOIDANCE))
KIND_CODES = {kind: code for code, kind in enumerate(ROW_KINDS)}
# the kinds of row that may shrink cwnd under either policy
HALVING_CODES = frozenset(KIND_CODES[phase, "loss", CONGESTION]
                          for phase in (SLOW_START, CONGESTION_AVOIDANCE))


class ControllerTrace:
    """One flow's controller trace, kept as typed columns.

    A row is 5 doubles (t, cwnd and the ROTT sample, mean and deviation),
    its kind code and its n; the flow id is stored once.  Iterating yields
    TraceRecord views; the trace hash, the CSV writer and the halving
    check read the columns.
    """

    __slots__ = ("flow_id", "t", "cwnd", "kind", "n", "rott_i", "rott_mean",
                 "rott_dev")

    def __init__(self, flow_id):
        self.flow_id = flow_id
        self.t = array("d")
        self.cwnd = array("d")
        self.kind = bytearray()
        self.n = array("q")
        self.rott_i = array("d")
        self.rott_mean = array("d")
        self.rott_dev = array("d")

    def append(self, t, cwnd, phase, event_type, loss_class, n, rott_i,
               rott_mean, rott_dev):
        self.t.append(t)
        self.cwnd.append(cwnd)
        self.kind.append(KIND_CODES[phase, event_type, loss_class])
        self.n.append(n)
        self.rott_i.append(rott_i)
        self.rott_mean.append(rott_mean)
        self.rott_dev.append(rott_dev)

    def __len__(self):
        return len(self.t)

    def _rows(self):
        return zip(self.t, self.cwnd, self.kind, self.n, self.rott_i,
                   self.rott_mean, self.rott_dev)

    def __iter__(self):
        flow_id = self.flow_id
        for t, cwnd, kind, n, rott_i, mean, dev in self._rows():
            phase, event, cls = ROW_KINDS[kind]
            yield TraceRecord(t, flow_id, cwnd, phase, event, cls, n, rott_i,
                              mean, dev)

    def text(self, end):
        """Every row's as_row text followed by ``end``, as one string."""
        f = FIELD_FORMATS
        # ROW_FORMAT + end per kind, with the flow id and the kind's words
        # written in; the six columns fill the rest
        formats = [",".join((f[0], f[1] % self.flow_id, f[2], *kind, f[6],
                             f[7], f[8], f[9])) + end
                   for kind in ROW_KINDS]
        return "".join([formats[kind] % (t, cwnd, n, rott_i, mean, dev)
                        for t, cwnd, kind, n, rott_i, mean, dev
                        in self._rows()])
