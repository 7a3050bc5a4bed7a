import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zigzagsim.control import (BASELINE, CONGESTION, CONGESTION_AVOIDANCE,
                               FIRST_CONGESTION_KIND, INITIAL_CWND,
                               MIN_SSTHRESH, ROW, ROW_KINDS, SLOW_START,
                               WIRELESS, ZIGZAG,
                               CongestionController, LossEvent,
                               TraceRecord, classify_loss)
from zigzagsim.harness import ForwardPath, Sender
from zigzagsim.kernel import RngStream, Simulator
from zigzagsim.scenario import Scenario


def controller(**kwargs):
    """A CongestionController built with the constructor's arguments in
    ``kwargs``; the others are its state (cwnd, mean, dev, sample_count),
    set on it after construction."""
    state = {name: kwargs.pop(name)
             for name in ("cwnd", "mean", "dev", "sample_count")
             if name in kwargs}
    ctrl = CongestionController(**kwargs)
    for name, value in state.items():
        setattr(ctrl, name, value)
    return ctrl


class TestOnAckRottSample:
    """The ROTT sample on_ack returns, and averages."""

    def test_half_of_rtt(self):
        assert CongestionController().on_ack(0.0, 0.600) \
            == pytest.approx(0.300)
        assert CongestionController().on_ack(0.0, 0.850) \
            == pytest.approx(0.425)

    def test_uncongested_topology_rott(self):
        # 2 * (0.100 + 0.200) s of propagation, halved
        assert CongestionController().on_ack(0.0, 2 * (0.100 + 0.200)) \
            == pytest.approx(0.300)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CongestionController().on_ack(0.0, 0.0)
        with pytest.raises(ValueError):
            CongestionController().on_ack(0.0, -1.0)


class TestRottMeanAndDeviation:
    """The controller's running ROTT mean and deviation.  A sample r is fed
    as on_ack(t, 2 * r), which halves back to r exactly."""

    def test_fixed_point(self):
        ctrl = controller(alpha=0.125, mean=0.300, dev=0.0,
                          sample_count=1)
        ctrl.on_ack(0.0, 2 * 0.300)
        assert ctrl.mean == pytest.approx(0.300)
        assert ctrl.dev == pytest.approx(0.0)

    def test_update_uses_new_mean_in_deviation(self):
        ctrl = controller(alpha=0.125, mean=0.100, dev=0.020,
                          sample_count=1)
        ctrl.on_ack(0.0, 2 * 0.180)
        assert ctrl.mean == pytest.approx(0.110)
        assert ctrl.dev == pytest.approx(0.0325)

    def test_first_sample_initializes(self):
        ctrl = CongestionController(alpha=0.125)
        ctrl.on_ack(0.0, 2 * 0.42)
        assert ctrl.mean == 0.42
        assert ctrl.dev == 0.0
        assert ctrl.sample_count == 1

    def test_rejects_nonpositive_sample(self):
        ctrl = CongestionController()
        with pytest.raises(ValueError):
            ctrl.on_ack(0.0, 2 * 0.0)
        # rejected before it changes anything
        assert (ctrl.sample_count, ctrl.cwnd) == (0, INITIAL_CWND)

    @given(r=st.floats(0.01, 10.0), k=st.integers(1, 60),
           alpha=st.floats(0.01, 0.49))
    @settings(max_examples=100, deadline=None)
    def test_mean_converges_geometrically(self, r, k, alpha):
        ctrl = controller(alpha=alpha, mean=5 * r, dev=r,
                          sample_count=1)
        for _ in range(k):
            ctrl.on_ack(0.0, 2 * r)
        # exact geometric decay plus accumulated rounding slack
        assert abs(ctrl.mean - r) \
            <= 4 * r * (1 - alpha) ** k * (1 + 1e-6) + 1e-10 * r
        assert ctrl.dev >= 0.0

    @given(r=st.floats(0.01, 10.0), d0=st.floats(0.001, 5.0),
           alpha=st.floats(0.01, 0.49))
    @settings(max_examples=100, deadline=None)
    def test_dev_decays_monotonically_at_converged_mean(self, r, d0, alpha):
        ctrl = controller(alpha=alpha, mean=r, dev=d0,
                          sample_count=1)
        prev = ctrl.dev
        for _ in range(50):
            ctrl.on_ack(0.0, 2 * r)
            assert ctrl.dev <= prev
            prev = ctrl.dev
        # geometric decay down to the floating-point floor
        assert ctrl.dev \
            <= d0 * (1 - 2 * alpha) ** 50 * (1 + 1e-6) + 1e-9 * (1 + r)


def oracle_classify(n, rott_i, mean, dev):
    """Independent direct encoding of the four wireless predicates."""
    if n == 1 and rott_i < mean - dev:
        return WIRELESS
    if n == 2 and rott_i < mean - 0.5 * dev:
        return WIRELESS
    if n == 3 and rott_i < mean:
        return WIRELESS
    if n >= 4 and rott_i < mean + 0.5 * dev:
        return WIRELESS
    return CONGESTION


class TestClassifyLoss:
    def test_rule_examples(self):
        assert classify_loss(1, 0.250, 0.300, 0.040) == WIRELESS
        assert classify_loss(1, 0.270, 0.300, 0.040) == CONGESTION
        assert classify_loss(4, 0.310, 0.300, 0.040) == WIRELESS
        assert classify_loss(4, 0.330, 0.300, 0.040) == CONGESTION

    def test_strict_n4_variant(self):
        # large rott margin: generalized rule says wireless for n >= 4
        assert classify_loss(5, 0.1, 0.300, 0.040) == WIRELESS
        assert classify_loss(5, 0.1, 0.300, 0.040, strict_n4=True) \
            == CONGESTION
        assert classify_loss(4, 0.1, 0.300, 0.040, strict_n4=True) == WIRELESS

    def test_monotone_thresholds_in_n(self):
        mean, dev = 0.3, 0.05
        thresholds = [mean - dev, mean - 0.5 * dev, mean, mean + 0.5 * dev]
        assert thresholds == sorted(thresholds)
        assert len(set(thresholds)) == 4
        # a rott_i between adjacent thresholds flips exactly at that n
        for n, (lo, hi) in enumerate(zip(thresholds, thresholds[1:]), start=1):
            mid = (lo + hi) / 2
            assert classify_loss(n, mid, mean, dev) == CONGESTION
            assert classify_loss(n + 1, mid, mean, dev) == WIRELESS

    @given(n=st.integers(1, 8), ratio=st.floats(0.4, 1.6),
           dev_frac=st.floats(0.0, 0.3))
    @settings(max_examples=300, deadline=None)
    def test_oracle_equivalence(self, n, ratio, dev_frac):
        mean = 0.3
        rott_i = ratio * mean
        dev = dev_frac * mean
        assert classify_loss(n, rott_i, mean, dev) \
            == oracle_classify(n, rott_i, mean, dev)


def packets_sent_at(cwnd):
    """Packets a sender with a backlog of ten puts in flight at once, with
    its controller's window set to ``cwnd``, or left as built if None."""
    sc = Scenario()
    sender = Sender(Simulator(), 0, sc,
                    ForwardPath(sc.queue_capacity_pkts, None,
                                RngStream(1).substream("loss"),
                                sc.duration_s), 0.5, 0.0)
    if cwnd is not None:
        sender.ctrl.cwnd = cwnd
    sender.stats.generated = 10
    sender.try_send()
    return len(sender.outstanding)


class TestCongestionController:
    def test_slow_start_exponential_growth(self):
        ctrl = controller(policy=BASELINE, cwnd=2.0, ssthresh=64.0)
        for _ in range(2):
            assert ctrl.on_ack(0.0, rtt=0.6) == 0.6 / 2
        assert ctrl.cwnd == 2.0 + 1 + 1
        assert ctrl.cwnd < ctrl.ssthresh  # still in slow start

    def test_congestion_avoidance_additive_increase(self):
        ctrl = controller(policy=BASELINE, cwnd=10.0, ssthresh=5.0)
        expected = 10.0
        for _ in range(10):
            assert ctrl.on_ack(0.0, rtt=0.6) == 0.6 / 2
            expected += 1 / expected
        assert ctrl.cwnd == expected
        assert 10.9 < ctrl.cwnd < 11.0  # about one packet per window
        assert not ctrl.cwnd < ctrl.ssthresh  # congestion avoidance

    def test_growth_crosses_ssthresh(self):
        ctrl = controller(policy=BASELINE, cwnd=3.0, ssthresh=5.0)
        expected = 3.0
        for _ in range(6):
            ctrl.on_ack(0.0, rtt=0.6)
            expected += 1 if expected < 5.0 else 1 / expected
            assert ctrl.cwnd == expected
        assert not ctrl.cwnd < ctrl.ssthresh  # congestion avoidance

    def test_ack_feeds_estimator(self):
        ctrl = CongestionController()
        before = ctrl.sample_count
        # the sample averaged is the one returned
        assert ctrl.on_ack(0.0, rtt=0.6) == 0.6 / 2
        assert ctrl.sample_count == before + 1
        assert ctrl.mean == 0.6 / 2
        assert ctrl.on_ack(0.0, rtt=0.9) == 0.9 / 2
        assert ctrl.mean \
            == (1.0 - ctrl.alpha) * (0.6 / 2) + ctrl.alpha * (0.9 / 2)

    def test_app_limited_ack_does_not_grow(self):
        ctrl = controller(cwnd=10.0, ssthresh=5.0)
        assert ctrl.on_ack(0.0, rtt=0.6, window_limited=False) == 0.6 / 2
        assert ctrl.cwnd == pytest.approx(10.0)

    def test_baseline_always_halves(self):
        ctrl = controller(policy=BASELINE, cwnd=16.0, ssthresh=8.0)
        ctrl.on_ack(0.0, rtt=0.6)
        # would classify wireless under zig-zag; baseline halves regardless
        cls = ctrl.on_loss_event(0.0, LossEvent(n=1, rott_at_detection=0.01))
        assert cls == CONGESTION
        assert ctrl.cwnd == pytest.approx(16.0625 / 2)  # halved post-ack cwnd
        assert ctrl.congestion_events == 1
        assert ctrl.wireless_events == 0

    def test_zigzag_wireless_keeps_window(self):
        ctrl = controller(policy=ZIGZAG, cwnd=16.0, ssthresh=8.0,
                          mean=0.300, dev=0.010, sample_count=10)
        cls = ctrl.on_loss_event(0.0, LossEvent(n=1, rott_at_detection=0.250))
        assert cls == WIRELESS
        assert ctrl.cwnd == pytest.approx(16.0)
        assert ctrl.wireless_events == 1
        assert ctrl.congestion_events == 0

    def test_zigzag_congestion_halves(self):
        ctrl = controller(policy=ZIGZAG, cwnd=16.0, ssthresh=8.0,
                          mean=0.300, dev=0.010, sample_count=10)
        cls = ctrl.on_loss_event(0.0, LossEvent(n=1, rott_at_detection=0.400))
        assert cls == CONGESTION
        assert ctrl.cwnd == pytest.approx(8.0)

    def test_halving_floor(self):
        ctrl = controller(policy=ZIGZAG, cwnd=3.0, ssthresh=2.0,
                          mean=0.300, dev=0.0, sample_count=5)
        ctrl.on_loss_event(0.0, LossEvent(n=1, rott_at_detection=0.400))
        assert ctrl.cwnd == pytest.approx(2.0)
        assert ctrl.cwnd >= 1.0

    def test_unsampled_estimator_defaults_to_congestion(self):
        ctrl = controller(policy=ZIGZAG, cwnd=10.0)
        cls = ctrl.on_loss_event(0.0, LossEvent(n=1, rott_at_detection=0.0))
        assert cls == CONGESTION
        # a mean and deviation that would classify it wireless are not
        # read before the first sample
        ctrl = controller(policy=ZIGZAG, cwnd=10.0, mean=0.300,
                          dev=0.010, sample_count=0)
        cls = ctrl.on_loss_event(0.0, LossEvent(n=1, rott_at_detection=0.250))
        assert cls == CONGESTION

    def test_forced_congestion_overrides_policy(self):
        ctrl = controller(policy=ZIGZAG, cwnd=16.0, ssthresh=8.0,
                          mean=0.300, dev=0.010, sample_count=10)
        cls = ctrl.on_loss_event(0.0, LossEvent(n=1, rott_at_detection=0.01),
                                 forced_congestion=True)
        assert cls == CONGESTION

    def test_counter_conservation(self):
        ctrl = controller(policy=ZIGZAG, cwnd=50.0, ssthresh=8.0,
                          mean=0.300, dev=0.010, sample_count=10)
        events = [LossEvent(n=n, rott_at_detection=r)
                  for n, r in [(1, 0.25), (2, 0.4), (1, 0.31), (4, 0.305)]]
        for ev in events:
            ctrl.on_loss_event(0.0, ev)
        assert ctrl.congestion_events + ctrl.wireless_events == len(events)

    def test_window_is_cwnd_floored_to_whole_packets(self):
        assert packets_sent_at(4.7) == 4
        assert packets_sent_at(1.0) == 1

    def test_fresh_controller_initial_window(self):
        assert packets_sent_at(None) == 2

    @pytest.mark.parametrize("name", ["cwnd", "ssthresh"])
    def test_floor_is_a_valid_window(self, name):
        assert int(controller(**{name: MIN_SSTHRESH}).cwnd) \
            >= MIN_SSTHRESH

    def test_state_starts_fresh(self):
        # the constructor takes the scenario's settings only; the window
        # and the ROTT estimate start as on a new flow
        ctrl = CongestionController(ZIGZAG, True, 0.25, 8.0, 3)
        assert (ctrl.policy, ctrl.strict_n4, ctrl.alpha, ctrl.ssthresh,
                ctrl.trace.flow_id) == (ZIGZAG, True, 0.25, 8.0, 3)
        assert (ctrl.cwnd, ctrl.mean, ctrl.dev, ctrl.sample_count) \
            == (INITIAL_CWND, 0.0, 0.0, 0)

    def test_loss_event_requires_positive_n(self):
        with pytest.raises(ValueError):
            LossEvent(n=0, rott_at_detection=0.3)


class TestRowKinds:
    def test_kind_is_twice_the_event_plus_the_phase(self):
        # the index rule on_ack and on_loss_event pack by: event 0 ack, 1
        # wireless loss, 2 congestion loss; phase 1 when cwnd >= ssthresh
        events = (("ack", ""), ("loss", WIRELESS), ("loss", CONGESTION))
        phases = (SLOW_START, CONGESTION_AVOIDANCE)
        for e, (event, cls) in enumerate(events):
            for p, phase in enumerate(phases):
                assert ROW_KINDS[2 * e + p] == (phase, event, cls)
        assert len(ROW_KINDS) == 6
        # the halving check counts a shrinking row as a violation below
        # this kind: exactly the congestion kinds are at or above it
        assert [k >= FIRST_CONGESTION_KIND for k in range(len(ROW_KINDS))] \
            == [cls == CONGESTION for _phase, _event, cls in ROW_KINDS]


class TestTraceRecord:
    def test_row_has_no_instance_dict(self):
        # iterating a trace builds one view per row; slots keep it small
        row = TraceRecord(1.0, 0, 10.0, "slow_start", "ack", "", 0, 0.3,
                          0.3, 0.0)
        assert not hasattr(row, "__dict__")
        with pytest.raises(AttributeError):
            row.seq = 1


# one controller call: ("ack", rtt, window_limited) or ("loss", n,
# rott_at_detection, forced_congestion)
CALLS = st.one_of(
    st.tuples(st.just("ack"), st.floats(0.01, 5.0), st.booleans()),
    st.tuples(st.just("loss"), st.integers(1, 8), st.floats(0.0, 2.5),
              st.booleans()))


class TestFoldedAckPath:
    """on_ack and on_loss_event against a reference written out here:
    the ROTT sample is RTT/2, the mean and deviation follow the EWMA from
    any starting alpha, mean, dev and sample count, the window grows by one
    below ssthresh and by 1/cwnd otherwise, and each call appends one row
    to the controller's trace, packing (phase, event, class) as its index
    in ROW_KINDS."""

    @staticmethod
    def reference_class(policy, strict_n4, forced, samples, n, rott_i, mean,
                        dev):
        if forced or policy == BASELINE or samples == 0 \
                or (strict_n4 and n >= 5):
            return CONGESTION
        return oracle_classify(n, rott_i, mean, dev)

    @given(policy=st.sampled_from([BASELINE, ZIGZAG]),
           strict_n4=st.booleans(),
           cwnd=st.floats(MIN_SSTHRESH, 300.0),
           ssthresh=st.floats(MIN_SSTHRESH, 300.0),
           alpha=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
           mean=st.floats(0.005, 2.5), dev=st.floats(0.0, 1.0),
           samples=st.integers(0, 3),
           calls=st.lists(CALLS, max_size=40))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_calls_match_the_reference(self, policy, strict_n4, cwnd,
                                       ssthresh, alpha, mean, dev, samples,
                                       calls):
        ctrl = controller(policy=policy, strict_n4=strict_n4,
                          alpha=alpha, cwnd=cwnd, ssthresh=ssthresh,
                          mean=mean, dev=dev, sample_count=samples)
        trace = ctrl.trace
        a = alpha
        for t, call in enumerate(calls):
            before = len(trace.rows)
            if call[0] == "ack":
                _, rtt, window_limited = call
                rott_i = rtt / 2
                assert ctrl.on_ack(t, rtt, window_limited) == rott_i
                if samples == 0:
                    mean, dev = rott_i, 0.0
                else:
                    mean = (1.0 - a) * mean + a * rott_i
                    dev = (1.0 - 2.0 * a) * dev \
                        + 2.0 * a * abs(rott_i - mean)
                samples += 1
                if window_limited:
                    cwnd += 1 if cwnd < ssthresh else 1 / cwnd
                event, cls, n = "ack", "", 0
            else:
                _, n, rott_i, forced = call
                cls = self.reference_class(policy, strict_n4, forced,
                                           samples, n, rott_i, mean, dev)
                assert ctrl.on_loss_event(t, LossEvent(n, rott_i),
                                          forced_congestion=forced) == cls
                if cls == CONGESTION:
                    ssthresh = max(cwnd / 2.0, MIN_SSTHRESH)
                    cwnd = ssthresh
                event = "loss"
            assert (ctrl.cwnd, ctrl.ssthresh) == (cwnd, ssthresh)
            assert (ctrl.mean, ctrl.dev, ctrl.sample_count) \
                == (mean, dev, samples)
            phase = SLOW_START if cwnd < ssthresh else CONGESTION_AVOIDANCE
            assert trace.rows[before:] == ROW.pack(
                t, cwnd, ROW_KINDS.index((phase, event, cls)), n, rott_i,
                mean, dev)
