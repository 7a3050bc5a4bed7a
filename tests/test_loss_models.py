import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from zigzagsim.kernel import RngStream
from zigzagsim.loss import (DRAW_CHUNK, GilbertElliottModel,
                            UniformLossModel, mean_burst_length,
                            simulate_trace, steady_state_plr,
                            trace_statistics)


def rng(name="loss", seed=1):
    return RngStream(seed).substream(name)


class FixedRng:
    """Feeds a scripted sequence of uniform draws."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class CoarseRng(random.Random):
    """A seeded substream rounded down to eighths: its draws often equal a
    threshold on the same grid, where ``<`` and ``<=`` part ways.

    Each draw keeps only the top 3 bits of its first 32-bit word, both in
    the bulk ``getrandbits(64 * m)`` and in ``random()``, which reads the
    same words, so bulk and per-packet draws see the same eighths."""

    def __init__(self, seed):
        super().__init__()
        self.setstate(rng(seed=seed).getstate())

    def getrandbits(self, k):
        top3 = b"\0\0\0\xe0\0\0\0\0" * (k // 64)
        return super().getrandbits(k) & int.from_bytes(top3, "little")

    def random(self):
        return (self.getrandbits(64) >> 29) / 8


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
    # past three chunks: bursts of mean 1/q >= 64 draws that straddle the
    # chunk boundaries, p > q (a reset sets Bad), p == q (no reset at all)
    @example(p=0.01, q=1 / 64, seed=5, coarse=False, before=3,
             count=3 * DRAW_CHUNK + 7, after=5)
    @example(p=0.002, q=1 / 200, seed=16, coarse=False, before=0,
             count=4 * DRAW_CHUNK, after=9)
    @example(p=0.5, q=1 / 64, seed=7, coarse=False, before=1,
             count=3 * DRAW_CHUNK + 1, after=2)
    @example(p=0.875, q=0.125, seed=8, coarse=True, before=4,
             count=3 * DRAW_CHUNK + 55, after=3)
    @example(p=0.3, q=0.3, seed=9, coarse=False, before=2,
             count=3 * DRAW_CHUNK + 300, after=4)
    @example(p=0.125, q=0.125, seed=10, coarse=True, before=0,
             count=3 * DRAW_CHUNK + 2, after=1)
    def test_gilbert(self, p, q, seed, coarse, before, count, after):
        self.assert_bulk_matches(lambda: GilbertElliottModel(p, q), seed,
                                 coarse, before, count, after)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(plr=PROB, seed=st.integers(0, 2 ** 32), coarse=st.booleans(),
           before=st.integers(0, 30), count=st.integers(0, 5000),
           after=st.integers(0, 30))
    @example(plr=1 / 51, seed=11, coarse=False, before=5,
             count=3 * DRAW_CHUNK + 9, after=6)
    @example(plr=0.5, seed=12, coarse=True, before=0,
             count=3 * DRAW_CHUNK, after=2)
    def test_uniform(self, plr, seed, coarse, before, count, after):
        self.assert_bulk_matches(lambda: UniformLossModel(plr), seed,
                                 coarse, before, count, after)

    def test_flags_are_bytes(self):
        flags = simulate_trace(GilbertElliottModel(0.1, 0.4), rng(), 1000)
        assert isinstance(flags, bytearray)
        assert set(flags) == {0, 1}


class TestPinnedDraws:
    """The drop flags of 10^6 draws at seed 3, pinned as the per-packet
    loop drew them, with the chain's final state and the generator's next
    draw.  The benchmark's loss check recounts with simulate_trace itself,
    so it cannot tell a changed draw from the original; these pins can."""

    NEXT_DRAW = 0.6556463075387943

    @pytest.mark.parametrize("make,digest", [
        (lambda: GilbertElliottModel(0.001, 0.6), "3697bb4ddcf602f8"),
        (lambda: GilbertElliottModel(0.01, 0.5), "85aab9863cadce62"),
        (lambda: GilbertElliottModel(0.1, 0.6), "14791e5743eeba77"),
        (lambda: GilbertElliottModel(0.1, 0.4), "6dd1b6f12197e910"),
        (lambda: UniformLossModel(1 / 51), "e03e7e3da4fc7835"),
    ])
    def test_flags_state_and_next_draw(self, make, digest):
        model, draws = make(), rng(seed=3)
        flags = simulate_trace(model, draws, 10 ** 6)
        assert hashlib.sha256(flags).hexdigest()[:16] == digest
        assert getattr(model, "bad", False) is False
        assert draws.random() == self.NEXT_DRAW


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
