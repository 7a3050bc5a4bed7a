import pytest
from hypothesis import example, given, settings, strategies as st

from zigzagsim.kernel import RngStream
from zigzagsim.loss import (GilbertElliottModel, UniformLossModel,
                            mean_burst_length, simulate_trace,
                            steady_state_plr, trace_statistics)


def rng(name="loss", seed=1):
    return RngStream(seed).substream(name)


class FixedRng:
    """Feeds a scripted sequence of uniform draws."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class CoarseRng:
    """A seeded substream rounded down to eighths: its draws often equal a
    threshold on the same grid, where ``<`` and ``<=`` part ways."""

    def __init__(self, seed):
        self._random = rng(seed=seed).random

    def random(self):
        return int(self._random() * 8) / 8


# probabilities on the eighths grid (0 and 1 included) or anywhere in [0, 1]
PROB = st.one_of(st.sampled_from([i / 8 for i in range(9)]),
                 st.floats(0.0, 1.0))


def reference_statistics(drops):
    """trace_statistics as one loop over the flags, kept as an oracle."""
    n = len(drops)
    losses = sum(drops)
    bursts = 0
    prev = False
    for d in drops:
        if d and not prev:
            bursts += 1
        prev = d
    repeat = losses - bursts
    plr = losses / n if n else 0.0
    mean_burst = losses / bursts if bursts else 0.0
    prior = losses - (1 if drops and drops[-1] else 0)
    cond = repeat / prior if prior else 0.0
    return {
        "packets": n,
        "losses": losses,
        "plr": plr,
        "bursts": bursts,
        "mean_burst": mean_burst,
        "p_drop_given_drop": cond,
    }


class TestBulkDraws:
    """simulate_trace makes exactly the draws per-packet should_drop makes,
    from and back into the model's state."""

    @staticmethod
    def assert_bulk_matches(make, seed, coarse, before, count, after):
        def source():
            return CoarseRng(seed) if coarse else rng(seed=seed)

        def state(model):
            # only the Gilbert chain has a state
            return model.bad if isinstance(model, GilbertElliottModel) \
                else None

        model, draws = make(), source()
        head = [model.should_drop(draws) for _ in range(before)]
        flags = simulate_trace(model, draws, count)
        bulk_state = state(model)
        tail = [model.should_drop(draws) for _ in range(after)]

        ref, ref_draws = make(), source()
        assert head == [ref.should_drop(ref_draws) for _ in range(before)]
        ref_flags = [ref.should_drop(ref_draws) for _ in range(count)]
        assert bytes(flags) == bytes(ref_flags)
        assert bulk_state == state(ref)
        # should_drop after a bulk draw continues the same chain
        assert tail == [ref.should_drop(ref_draws) for _ in range(after)]
        assert state(model) == state(ref)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(p=PROB, q=PROB, seed=st.integers(0, 2 ** 32),
           coarse=st.booleans(), before=st.integers(0, 30),
           count=st.integers(0, 5000), after=st.integers(0, 30))
    def test_gilbert(self, p, q, seed, coarse, before, count, after):
        self.assert_bulk_matches(lambda: GilbertElliottModel(p, q), seed,
                                 coarse, before, count, after)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(plr=PROB, seed=st.integers(0, 2 ** 32), coarse=st.booleans(),
           before=st.integers(0, 30), count=st.integers(0, 5000),
           after=st.integers(0, 30))
    def test_uniform(self, plr, seed, coarse, before, count, after):
        self.assert_bulk_matches(lambda: UniformLossModel(plr), seed,
                                 coarse, before, count, after)

    def test_flags_are_bytes(self):
        flags = simulate_trace(GilbertElliottModel(0.1, 0.4), rng(), 1000)
        assert isinstance(flags, bytearray)
        assert set(flags) == {0, 1}


class TestTraceStatistics:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.booleans(), max_size=300))
    @example([])
    @example([True] * 50)
    @example([True])
    @example([False] * 20 + [True] + [False] * 20)
    @example([True, True, False, False, True, False, True, True])
    def test_counts_match_reference_loop(self, drops):
        want = reference_statistics(drops)
        assert trace_statistics(bytes(drops)) == want
        assert trace_statistics(bytearray(drops)) == want
        # a list of bools gets an error or the same answer, never a miscount
        # (list.count(b"\x00\x01") is 0)
        try:
            got = trace_statistics(drops)
        except (AttributeError, TypeError, ValueError):
            return
        assert got == want


class TestGilbert:
    def test_absorbing_good_state_never_drops(self):
        model = GilbertElliottModel(p=0.0, q=0.6)
        assert not any(simulate_trace(model, rng(), 10_000))

    def test_absorbing_bad_state(self):
        # transition-then-emit: the first packet already transitions to Bad
        model = GilbertElliottModel(p=1.0, q=0.0)
        drops = simulate_trace(model, rng(), 100)
        assert all(drops)

    def test_transition_then_emit_ordering(self):
        # draw 0.005 < p moves Good->Bad before the drop decision
        model = GilbertElliottModel(p=0.01, q=0.5)
        assert model.should_drop(FixedRng([0.005]))
        assert model.bad
        # draw 0.4 < q moves Bad->Good, so no drop
        assert not model.should_drop(FixedRng([0.4]))
        assert not model.bad

    def test_table_couple_001_05_empirical_plr(self):
        model = GilbertElliottModel(p=0.01, q=0.5)
        stats = trace_statistics(simulate_trace(model, rng(), 10 ** 6))
        assert stats["plr"] == pytest.approx(0.0192, abs=0.003)

    @pytest.mark.parametrize("p,q", [(0.001, 0.6), (0.01, 0.5),
                                     (0.1, 0.6), (0.1, 0.4)])
    def test_long_run_plr_converges_to_stationary(self, p, q):
        model = GilbertElliottModel(p=p, q=q)
        stats = trace_statistics(simulate_trace(model, rng(), 10 ** 6))
        analytic = steady_state_plr(p, q)
        assert stats["plr"] == pytest.approx(analytic, rel=0.05)

    @pytest.mark.parametrize("p,q", [(0.01, 0.5), (0.1, 0.6), (0.1, 0.4)])
    def test_burst_length_geometric_mean(self, p, q):
        model = GilbertElliottModel(p=p, q=q)
        stats = trace_statistics(simulate_trace(model, rng(), 10 ** 6))
        assert stats["mean_burst"] == pytest.approx(1.0 / q, rel=0.05)

    def test_gilbert_burstier_than_uniform_at_equal_plr(self):
        p, q = 0.01, 0.5
        plr = steady_state_plr(p, q)
        g_stats = trace_statistics(
            simulate_trace(GilbertElliottModel(p, q), rng(), 10 ** 6))
        u_stats = trace_statistics(
            simulate_trace(UniformLossModel(plr), rng("uni"), 10 ** 6))
        # conditional drop frequency: 1-q for Gilbert, plr for uniform
        assert g_stats["p_drop_given_drop"] == pytest.approx(1 - q, abs=0.05)
        assert g_stats["p_drop_given_drop"] > u_stats["p_drop_given_drop"]
        assert 1 - q > plr


class TestUniform:
    def test_plr_zero_never_drops(self):
        assert not any(simulate_trace(UniformLossModel(0.0), rng(), 10_000))

    def test_plr_one_always_drops(self):
        assert all(simulate_trace(UniformLossModel(1.0), rng(), 1000))

    def test_empirical_rate(self):
        stats = trace_statistics(
            simulate_trace(UniformLossModel(0.0192), rng(), 10 ** 6))
        assert stats["plr"] == pytest.approx(0.0192, abs=0.001)

    def test_no_serial_correlation(self):
        plr = 0.05
        stats = trace_statistics(
            simulate_trace(UniformLossModel(plr), rng(), 10 ** 6))
        # P(drop | drop) should match the unconditional rate
        assert stats["p_drop_given_drop"] == pytest.approx(plr, abs=0.01)


class TestAnalytic:
    def test_steady_state_examples(self):
        assert steady_state_plr(0.1, 0.4) == pytest.approx(0.20)
        assert steady_state_plr(0.0, 0.6) == 0.0
        assert steady_state_plr(0.001, 0.6) == pytest.approx(0.001 / 0.601)

    def test_steady_state_undefined(self):
        with pytest.raises(ValueError, match=r"^p \+ q must be positive"):
            steady_state_plr(0.0, 0.0)

    def test_mean_burst_examples(self):
        assert mean_burst_length(1.0) == 1.0
        assert mean_burst_length(0.5) == 2.0
        assert mean_burst_length(0.4) == pytest.approx(2.5)

    def test_mean_burst_infinite(self):
        with pytest.raises(ValueError, match="^q must be positive"):
            mean_burst_length(0.0)
        # a q so small that 1/q overflows is no finite burst either
        with pytest.raises(ValueError, match=r"^q = 1e-310 is too small"):
            mean_burst_length(1e-310)
        assert mean_burst_length(1e-308) == pytest.approx(1e308)

    def test_geometric_oracle(self):
        # brute-force expectation of the geometric burst-length law
        for q in (0.3, 0.5, 0.8):
            expectation = sum(k * (1 - q) ** (k - 1) * q
                              for k in range(1, 2000))
            assert mean_burst_length(q) == pytest.approx(expectation)
