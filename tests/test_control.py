import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zigzagsim.control import (BASELINE, CONGESTION, MIN_SSTHRESH,
                               WIRELESS, ZIGZAG, CongestionController,
                               EstimatorNotReady, LossEvent, RottEstimator,
                               TraceRecord, classify_loss, estimate_rott)


class TestEstimateRott:
    def test_half_of_rtt(self):
        assert estimate_rott(0.600) == pytest.approx(0.300)
        assert estimate_rott(0.850) == pytest.approx(0.425)

    def test_uncongested_topology_rott(self):
        # 2 * (0.100 + 0.200) s of propagation, halved
        assert estimate_rott(2 * (0.100 + 0.200)) == pytest.approx(0.300)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            estimate_rott(0.0)
        with pytest.raises(ValueError):
            estimate_rott(-1.0)


class TestRottEstimator:
    def test_fixed_point(self):
        est = RottEstimator(alpha=0.125, mean=0.300, dev=0.0, sample_count=1)
        est.update(0.300)
        assert est.mean == pytest.approx(0.300)
        assert est.dev == pytest.approx(0.0)

    def test_update_uses_new_mean_in_deviation(self):
        est = RottEstimator(alpha=0.125, mean=0.100, dev=0.020, sample_count=1)
        est.update(0.180)
        assert est.mean == pytest.approx(0.110)
        assert est.dev == pytest.approx(0.0325)

    def test_first_sample_initializes(self):
        est = RottEstimator(alpha=0.125)
        est.update(0.42)
        assert est.mean == 0.42
        assert est.dev == 0.0
        assert est.sample_count == 1

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            RottEstimator(alpha=0.5)
        with pytest.raises(ValueError):
            RottEstimator(alpha=0.0)

    def test_rejects_nonpositive_sample(self):
        est = RottEstimator()
        with pytest.raises(ValueError):
            est.update(0.0)

    @given(r=st.floats(0.01, 10.0), k=st.integers(1, 60),
           alpha=st.floats(0.01, 0.49))
    @settings(max_examples=100, deadline=None)
    def test_mean_converges_geometrically(self, r, k, alpha):
        est = RottEstimator(alpha=alpha, mean=5 * r, dev=r, sample_count=1)
        for _ in range(k):
            est.update(r)
        # exact geometric decay plus accumulated rounding slack
        assert abs(est.mean - r) \
            <= 4 * r * (1 - alpha) ** k * (1 + 1e-6) + 1e-10 * r
        assert est.dev >= 0.0

    @given(r=st.floats(0.01, 10.0), d0=st.floats(0.001, 5.0),
           alpha=st.floats(0.01, 0.49))
    @settings(max_examples=100, deadline=None)
    def test_dev_decays_monotonically_at_converged_mean(self, r, d0, alpha):
        est = RottEstimator(alpha=alpha, mean=r, dev=d0, sample_count=1)
        prev = est.dev
        for _ in range(50):
            est.update(r)
            assert est.dev <= prev
            prev = est.dev
        # geometric decay down to the floating-point floor
        assert est.dev \
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

    def test_unsampled_estimator_not_ready(self):
        with pytest.raises(EstimatorNotReady):
            classify_loss(1, 0.3, 0.3, 0.0, sample_count=0)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            classify_loss(0, 0.3, 0.3, 0.0)

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


class TestCongestionController:
    def test_slow_start_exponential_growth(self):
        ctrl = CongestionController(policy=BASELINE, cwnd=2.0, ssthresh=64.0)
        for _ in range(2):
            assert ctrl.on_ack(rtt=0.6) == estimate_rott(0.6)
        assert ctrl.cwnd == 2.0 + 1 + 1
        assert ctrl.phase == "slow_start"

    def test_congestion_avoidance_additive_increase(self):
        ctrl = CongestionController(policy=BASELINE, cwnd=10.0, ssthresh=5.0)
        expected = 10.0
        for _ in range(10):
            assert ctrl.on_ack(rtt=0.6) == estimate_rott(0.6)
            expected += 1 / expected
        assert ctrl.cwnd == expected
        assert 10.9 < ctrl.cwnd < 11.0  # about one packet per window
        assert ctrl.phase == "congestion_avoidance"

    def test_growth_crosses_ssthresh(self):
        ctrl = CongestionController(policy=BASELINE, cwnd=3.0, ssthresh=5.0)
        expected = 3.0
        for _ in range(6):
            ctrl.on_ack(rtt=0.6)
            expected += 1 if expected < 5.0 else 1 / expected
            assert ctrl.cwnd == expected
        assert ctrl.phase == "congestion_avoidance"

    def test_ack_feeds_estimator(self):
        ctrl = CongestionController()
        before = ctrl.estimator.sample_count
        # the sample given to the estimator is the one returned
        assert ctrl.on_ack(rtt=0.6) == estimate_rott(0.6)
        assert ctrl.estimator.sample_count == before + 1
        assert ctrl.estimator.mean == estimate_rott(0.6)
        assert ctrl.on_ack(rtt=0.9) == estimate_rott(0.9)
        assert ctrl.estimator.mean \
            == (1.0 - ctrl.alpha) * estimate_rott(0.6) \
            + ctrl.alpha * estimate_rott(0.9)

    def test_app_limited_ack_does_not_grow(self):
        ctrl = CongestionController(cwnd=10.0, ssthresh=5.0)
        assert ctrl.on_ack(rtt=0.6, window_limited=False) \
            == estimate_rott(0.6)
        assert ctrl.cwnd == pytest.approx(10.0)

    def test_baseline_always_halves(self):
        ctrl = CongestionController(policy=BASELINE, cwnd=16.0, ssthresh=8.0)
        ctrl.on_ack(rtt=0.6)
        # would classify wireless under zig-zag; baseline halves regardless
        cls = ctrl.on_loss_event(LossEvent(n=1, rott_at_detection=0.01))
        assert cls == CONGESTION
        assert ctrl.cwnd == pytest.approx(16.0625 / 2)  # halved post-ack cwnd
        assert ctrl.congestion_events == 1
        assert ctrl.wireless_events == 0

    def test_zigzag_wireless_keeps_window(self):
        ctrl = CongestionController(policy=ZIGZAG, cwnd=16.0, ssthresh=8.0)
        ctrl.estimator = RottEstimator(mean=0.300, dev=0.010, sample_count=10)
        cls = ctrl.on_loss_event(LossEvent(n=1, rott_at_detection=0.250))
        assert cls == WIRELESS
        assert ctrl.cwnd == pytest.approx(16.0)
        assert ctrl.wireless_events == 1
        assert ctrl.congestion_events == 0

    def test_zigzag_congestion_halves(self):
        ctrl = CongestionController(policy=ZIGZAG, cwnd=16.0, ssthresh=8.0)
        ctrl.estimator = RottEstimator(mean=0.300, dev=0.010, sample_count=10)
        cls = ctrl.on_loss_event(LossEvent(n=1, rott_at_detection=0.400))
        assert cls == CONGESTION
        assert ctrl.cwnd == pytest.approx(8.0)

    def test_halving_floor(self):
        ctrl = CongestionController(policy=ZIGZAG, cwnd=3.0, ssthresh=2.0)
        ctrl.estimator = RottEstimator(mean=0.300, dev=0.0, sample_count=5)
        ctrl.on_loss_event(LossEvent(n=1, rott_at_detection=0.400))
        assert ctrl.cwnd == pytest.approx(2.0)
        assert ctrl.cwnd >= 1.0

    def test_unsampled_estimator_defaults_to_congestion(self):
        ctrl = CongestionController(policy=ZIGZAG, cwnd=10.0)
        cls = ctrl.on_loss_event(LossEvent(n=1, rott_at_detection=0.0))
        assert cls == CONGESTION

    def test_forced_congestion_overrides_policy(self):
        ctrl = CongestionController(policy=ZIGZAG, cwnd=16.0, ssthresh=8.0)
        ctrl.estimator = RottEstimator(mean=0.300, dev=0.010, sample_count=10)
        cls = ctrl.on_loss_event(LossEvent(n=1, rott_at_detection=0.01),
                                 forced_congestion=True)
        assert cls == CONGESTION

    def test_counter_conservation(self):
        ctrl = CongestionController(policy=ZIGZAG, cwnd=50.0, ssthresh=8.0)
        ctrl.estimator = RottEstimator(mean=0.300, dev=0.010, sample_count=10)
        events = [LossEvent(n=n, rott_at_detection=r)
                  for n, r in [(1, 0.25), (2, 0.4), (1, 0.31), (4, 0.305)]]
        for ev in events:
            ctrl.on_loss_event(ev)
        assert ctrl.congestion_events + ctrl.wireless_events == len(events)

    def test_allowed_in_flight_floor(self):
        ctrl = CongestionController(cwnd=4.7)
        assert ctrl.allowed_in_flight() == 4
        ctrl.cwnd = 1.0
        assert ctrl.allowed_in_flight() == 1

    def test_fresh_controller_initial_window(self):
        assert CongestionController().allowed_in_flight() == 2

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            CongestionController(policy="reno")

    @pytest.mark.parametrize("name", ["cwnd", "ssthresh"])
    @pytest.mark.parametrize("value", [MIN_SSTHRESH - 0.01, 0.5, 0.0, -1.0,
                                       math.nan])
    def test_window_below_floor_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            CongestionController(**{name: value})
        # the floor itself is a valid window
        assert CongestionController(**{name: MIN_SSTHRESH}) \
            .allowed_in_flight() >= MIN_SSTHRESH

    def test_loss_event_requires_positive_n(self):
        with pytest.raises(ValueError):
            LossEvent(n=0, rott_at_detection=0.3)


class TestTraceRecord:
    def test_row_has_no_instance_dict(self):
        # iterating a trace builds one view per row; slots keep it small
        row = TraceRecord(1.0, 0, 10.0, "slow_start", "ack", "", 0, 0.3,
                          0.3, 0.0)
        assert not hasattr(row, "__dict__")
        with pytest.raises(AttributeError):
            row.seq = 1
