"""End-to-end acceptance checks for the paired congestion-control study.

Each test prints a single ``criterion N: PASS/FAIL`` line (straight to the
terminal, bypassing capture) and then asserts, so a verbose run shows one
verdict per criterion alongside the pytest outcome.
"""

import hashlib
import time

import pytest

from zigzagsim import cli, loss as loss_models, metrics
from zigzagsim.control import CONGESTION, WIRELESS, classify_loss
from zigzagsim.harness import run_scenario
from zigzagsim.kernel import RngStream
from zigzagsim.scenario import LossSpec, Scenario

SEEDS = (1, 2, 3, 4, 5)
MAJORITY = 4

GILBERT_192 = LossSpec("gilbert", p=0.01, q=0.5)  # 1.92% stationary PLR
UNIFORM_192 = LossSpec("uniform", plr=0.01 / 0.51)
NO_LOSS = LossSpec()

_PAIRS = {}


def paired(flow_count, rate_bps, loss, seed):
    """Run (and memoize) one scenario under both policies."""
    key = (flow_count, rate_bps, loss, seed)
    if key not in _PAIRS:
        sc = Scenario(flow_count=flow_count, aggregate_rate_bps=rate_bps,
                      loss=loss, duration_s=500.0, seed=seed)
        _PAIRS[key] = (run_scenario(sc.with_policy("baseline")),
                       run_scenario(sc.with_policy("zigzag")))
    return _PAIRS[key]


def paired_row(flow_count, rate_bps, loss, seed):
    return metrics.summarize(*paired(flow_count, rate_bps, loss, seed))


def announce(capfd, criterion, ok, detail):
    with capfd.disabled():
        print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}",
              flush=True)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def matrix():
    """The full default campaign at parallelism 4, timed once per session."""
    templates = cli.expand_matrix(cli.load_matrix_spec(None))
    assert len(templates) == 36
    start = time.perf_counter()
    rows, failures = cli.run_matrix(templates, out_dir=None, jobs=4)
    elapsed = time.perf_counter() - start
    assert failures == []
    assert len(rows) == len(templates)
    return rows, elapsed


# sha256 of the default campaign's summary.csv; every change that keeps
# the simulation bit-identical keeps this file byte-identical
DEFAULT_SUMMARY_SHA256 = ("e3cf3ad15b4c7b1228803c3af50e6144"
                          "152c7150787b8f2d091549d42e1e9e33")


def test_default_matrix_summary_pinned(matrix, tmp_path):
    rows, _ = matrix
    path = tmp_path / "summary.csv"
    metrics.write_summary_csv(path, rows)
    assert hashlib.sha256(path.read_bytes()).hexdigest() \
        == DEFAULT_SUMMARY_SHA256


class TestCriterion01GilbertStatistics:
    COUPLES = ((0.001, 0.6), (0.01, 0.5), (0.1, 0.6), (0.1, 0.4))
    # previously reported empirical rates for the same couples, measured
    # from 50,000-packet traces
    REPORTED_PLR = {(0.001, 0.6): 0.00176, (0.01, 0.5): 0.0192,
                    (0.1, 0.6): 0.1394, (0.1, 0.4): 0.198}
    REPORTED_SAMPLE = 50_000

    def test_criterion_1(self, capfd):
        details = []
        ok = True
        for p, q in self.COUPLES:
            model = loss_models.GilbertElliottModel(p, q)
            rng = RngStream(1).substream("loss")
            stats = loss_models.trace_statistics(
                loss_models.simulate_trace(model, rng, 10 ** 6))
            analytic = loss_models.steady_state_plr(p, q)
            plr_ok = abs(stats["plr"] - analytic) <= 0.05 * analytic
            burst_ok = abs(stats["mean_burst"] - 1.0 / q) <= 0.05 / q
            sigma = cli.plr_standard_error(p, q, self.REPORTED_SAMPLE)
            sigmas = abs(self.REPORTED_PLR[(p, q)] - analytic) / sigma
            ok = ok and plr_ok and burst_ok and sigmas <= 3.0
            details.append(f"p={p} q={q}: plr {100 * stats['plr']:.3f}% "
                           f"(analytic {100 * analytic:.3f}%), "
                           f"burst {stats['mean_burst']:.2f}, "
                           f"reported rate at {sigmas:.2f} sigma")
        announce(capfd, 1, ok, "; ".join(details))


class TestCriterion02ClassifierOracle:
    @staticmethod
    def direct_rules(n, rott_i, mean, dev):
        """Independent restatement of the four wireless-loss predicates."""
        if n == 1:
            return WIRELESS if rott_i < mean - dev else CONGESTION
        if n == 2:
            return WIRELESS if rott_i < mean - dev / 2 else CONGESTION
        if n == 3:
            return WIRELESS if rott_i < mean else CONGESTION
        return WIRELESS if rott_i < mean + dev / 2 else CONGESTION

    def test_criterion_2(self, capfd):
        mean = 0.300
        checked = mismatches = 0
        for n in range(1, 7):
            for step in range(0, 101):
                rott_i = (0.5 + 0.01 * step) * mean
                for dev_frac in (0.0, 0.05, 0.1, 0.2):
                    dev = dev_frac * mean
                    checked += 1
                    if classify_loss(n, rott_i, mean, dev) \
                            != self.direct_rules(n, rott_i, mean, dev):
                        mismatches += 1
        announce(capfd, 2, mismatches == 0,
                 f"{checked} grid points, {mismatches} disagreements")


class TestCriterion03HalveOnlyOnCongestion:
    def test_criterion_3(self, matrix, capfd):
        rows, _ = matrix
        violations = sum(r.halve_violations for r in rows)
        announce(capfd, 3, violations == 0,
                 f"{len(rows)} paired runs, {violations} cwnd reductions "
                 "without a congestion-classified loss")


class TestCriterion04NoLossEquivalence:
    def test_criterion_4(self, capfd):
        baseline, zigzag = paired(1, 1.0e6, NO_LOSS, seed=1)
        trace_equal = metrics.controller_trace_hash(baseline) \
            == metrics.controller_trace_hash(zigzag)
        delivery_equal = metrics.delivery_hash(baseline) \
            == metrics.delivery_hash(zigzag)
        tput_b = metrics.run_mean_throughput(baseline)
        tput_z = metrics.run_mean_throughput(zigzag)
        ok = trace_equal and delivery_equal and tput_b == tput_z
        announce(capfd, 4, ok,
                 f"trace hashes equal={trace_equal}, deliveries "
                 f"equal={delivery_equal}, throughput {tput_b / 1e6:.4f} vs "
                 f"{tput_z / 1e6:.4f} Mb/s")


class TestCriterion05FairnessUnderPureCongestion:
    def test_criterion_5(self, capfd):
        row = paired_row(5, 1.5e6, NO_LOSS, seed=1)
        inc = row.throughput_increase_pct
        announce(capfd, 5, abs(inc) <= 5.0,
                 f"no-loss 5-flow 1.5 Mb/s: zig-zag vs baseline {inc:+.2f}% "
                 "(|bound| 5%)")


def majority_detail(values, predicate, label):
    wins = sum(1 for v in values if predicate(v))
    text = ", ".join(f"seed{s}={v}" for s, v in zip(SEEDS, values))
    return wins, f"{label}: {text} ({wins}/{len(values)})"


class TestCriterion06ModerateLossImprovement:
    def test_criterion_6(self, capfd):
        rows_5f = [paired_row(5, 1.0e6, GILBERT_192, s) for s in SEEDS]
        rows_1f = [paired_row(1, 1.0e6, GILBERT_192, s) for s in SEEDS]
        wins_5f, d1 = majority_detail(
            [f"{r.throughput_increase_pct:.1f}%" for r in rows_5f],
            lambda v: float(v[:-1]) >= 15.0, "5-flow gain >= 15%")
        wins_1f, d2 = majority_detail(
            [f"{r.throughput_increase_pct:.1f}%" for r in rows_1f],
            lambda v: float(v[:-1]) >= 25.0, "1-flow gain >= 25%")
        wins_util, d3 = majority_detail(
            [f"{r.bw_utilization_baseline_pct:.1f}%" for r in rows_1f],
            lambda v: float(v[:-1]) < 40.0, "1-flow baseline util < 40%")
        ok = min(wins_5f, wins_1f, wins_util) >= MAJORITY
        announce(capfd, 6, ok, "; ".join((d1, d2, d3)))


class TestCriterion07CongestedPathImprovement:
    def test_criterion_7(self, capfd):
        rows_5f = [paired_row(5, 1.5e6, GILBERT_192, s) for s in SEEDS]
        rows_10f = [paired_row(10, 1.5e6, GILBERT_192, s) for s in SEEDS]
        wins_5f, d1 = majority_detail(
            [f"{r.throughput_increase_pct:.1f}%" for r in rows_5f],
            lambda v: float(v[:-1]) >= 15.0, "5-flow gain >= 15%")
        wins_10f, d2 = majority_detail(
            [(round(r.bw_utilization_baseline_pct, 1),
              round(r.bw_utilization_zigzag_pct, 1)) for r in rows_10f],
            lambda v: v[0] >= 75.0 and v[1] >= v[0],
            "10-flow util (baseline, zigzag) both >= 75% and ordered")
        ok = min(wins_5f, wins_10f) >= MAJORITY
        announce(capfd, 7, ok, "; ".join((d1, d2)))


class TestCriterion08UniformLossDegradation:
    def test_criterion_8(self, capfd):
        outcomes = []
        for s in SEEDS:
            uni = paired_row(5, 1.0e6, UNIFORM_192, s)
            gil = paired_row(5, 1.0e6, GILBERT_192, s)
            outcomes.append((round(uni.throughput_increase_pct, 1),
                             round(uni.bw_utilization_zigzag_pct, 1),
                             round(gil.bw_utilization_zigzag_pct, 1)))
        wins, detail = majority_detail(
            outcomes, lambda v: v[0] > 0.0 and v[1] < v[2],
            "(uniform gain %, uniform util, bursty util)")
        announce(capfd, 8, wins >= MAJORITY, detail)


class TestCriterion09CounterPlausibility:
    def test_criterion_9(self, matrix, capfd):
        rows, _ = matrix
        lossy = [r for r in rows if r.plr_pct > 0.0]
        rows_ok = all(r.wireless_zigzag >= 1 for r in lossy)

        paired(1, 1.0e6, GILBERT_192, 1)  # guarantee a lossy cached pair
        trace_ok = baseline_ok = True
        pairs_checked = 0
        for (_, _, loss, _), (baseline, zigzag) in _PAIRS.items():
            if loss.analytic_plr == 0.0:
                continue
            pairs_checked += 1
            baseline_ok &= baseline.wireless_events == 0
            for ctrl, trace in zip(zigzag.controllers, zigzag.traces):
                loss_rows = sum(1 for rec in trace if rec.event_type == "loss")
                trace_ok &= (ctrl.congestion_events + ctrl.wireless_events
                             == loss_rows)
                trace_ok &= ctrl.wireless_events >= 0
            trace_ok &= zigzag.wireless_events >= 1
        trace_ok, baseline_ok = bool(trace_ok), bool(baseline_ok)
        ok = rows_ok and trace_ok and baseline_ok and pairs_checked > 0
        announce(capfd, 9, ok,
                 f"{len(lossy)} lossy matrix rows all record wireless "
                 f"events={rows_ok}; {pairs_checked} cached pairs: counter/"
                 f"trace equality={trace_ok}, baseline wireless-free="
                 f"{baseline_ok}")


class TestCriterion10PerformanceEnvelope:
    def test_criterion_10(self, matrix, capfd):
        _, matrix_elapsed = matrix
        sc = Scenario(flow_count=10, aggregate_rate_bps=1.5e6,
                      loss=GILBERT_192, duration_s=500.0, seed=99)
        start = time.perf_counter()
        run_scenario(sc.with_policy("baseline"))
        run_scenario(sc.with_policy("zigzag"))
        pair_elapsed = time.perf_counter() - start
        ok = pair_elapsed < 60.0 and matrix_elapsed < 900.0
        announce(capfd, 10, ok,
                 f"10-flow pair {pair_elapsed:.1f}s (< 60s), default matrix "
                 f"{matrix_elapsed:.1f}s at 4 workers (< 900s)")
