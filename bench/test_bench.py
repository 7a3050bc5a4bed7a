"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest bench/test_bench.py -q
"""

import random

import checks
import tracing

BASE = checks.base_rtt(1000, 40)


def trace_rows(*rows):
    return [(float(i), cwnd, event, cls, n, BASE / 2 + 0.01)
            for i, (cwnd, event, cls, n) in enumerate(rows)]


def test_base_rtt_of_reference_path():
    assert abs(BASE - 0.61056) < 1e-9


def test_halving_trace_passes():
    rows = trace_rows((2.0, "ack", "", 0), (3.0, "ack", "", 0),
                      (3.0, "loss", "wireless", 1), (4.0, "ack", "", 0),
                      (2.0, "loss", "congestion", 2))
    errors, congestion, wireless = checks.check_flow_trace(
        rows, "zigzag", BASE, "t")
    assert (errors, congestion, wireless) == ([], 1, 1)


def test_trace_faults_are_reported():
    cases = {
        "fell on an ACK": ((8.0, "ack", "", 0), (7.0, "ack", "", 0)),
        "halving gives": ((8.0, "ack", "", 0), (5.0, "loss", "congestion", 1)),
        "wireless loss changed": ((8.0, "ack", "", 0),
                                  (4.0, "loss", "wireless", 1)),
        "< 1": ((0.5, "ack", "", 0),),
    }
    for message, rows in cases.items():
        errors = checks.check_flow_trace(trace_rows(*rows), "zigzag", BASE,
                                         "t")[0]
        assert any(message in e for e in errors), (message, errors)
    errors = checks.check_flow_trace(
        trace_rows((8.0, "ack", "", 0), (8.0, "loss", "wireless", 1)),
        "baseline", BASE, "t")[0]
    assert any("baseline" in e for e in errors)
    low = [(0.0, 2.0, "ack", "", 0, BASE / 2 - 1e-3)]
    assert "below base" in checks.check_flow_trace(low, "zigzag", BASE,
                                                   "t")[0][0]


class _Scenario:
    duration_s = 10.0
    per_flow_rate_bps = 8000.0
    packet_size_bytes = 1000
    queue_capacity_pkts = 50


def test_conservation():
    flow = {"generated": 10, "sent": 9, "delivered": 6, "queue_drops": 1,
            "wireless_drops": 1, "delivery_times": [1.0, 2, 3, 4, 5, 6]}
    assert checks.check_conservation([flow], [0] * 6 + [1], [0],
                                      _Scenario, "r") == []
    bad = dict(flow, delivered=9, delivery_times=[1.0] * 9)
    errors = checks.check_conservation([bad], [0] * 9 + [1], [0],
                                       _Scenario, "r")
    assert any("does not hold" in e for e in errors)
    errors = checks.check_conservation([flow], [0] * 6, [0], _Scenario, "r")
    assert any("wireless drops drawn" in e for e in errors)


class _Pair:
    duration_s = 200.0
    warmup_s = 100.0
    flow_count = 5
    per_flow_rate_bps = 2.0e5
    aggregate_rate_bps = 1.0e6
    packet_size_bytes = 1000


def test_throughput_limits():
    # backlog from before the warm-up may lift the window mean above the
    # offered rate, but not above what is left to deliver
    errors, over = checks.check_throughput(1.03e6, 1.03e6, _Pair, 12000,
                                           "p", 0.01)
    assert errors == [] and over
    errors, _ = checks.check_throughput(1.03e6, 1.03e6, _Pair, 13000,
                                        "p", 0.01)
    assert any("left to deliver" in e for e in errors)
    errors, _ = checks.check_throughput(1.0e6, 1.1e6, _Pair, 0, "p", 0.01)
    assert any("recomputed" in e for e in errors)


def test_drop_statistics_counts_bursts():
    stats = checks.drop_statistics([0, 1, 1, 0, 1, 0, 0, 1, 1, 1])
    assert (stats["losses"], stats["bursts"], stats["prior"]) == (6, 3, 5)
    assert stats["mean_burst"] == 2.0
    assert stats["p_drop_given_drop"] == 3 / 5


def test_gilbert_statistics_accept_the_chain_and_reject_another():
    rng = random.Random(7)
    p, q = 0.05, 0.5
    bad = False
    drops = []
    for _ in range(200_000):
        bad = rng.random() < (1 - q if bad else p)
        drops.append(bad)
    stats = checks.drop_statistics(drops)
    assert checks.check_gilbert_statistics(stats, p, q, "g") == []
    assert checks.check_gilbert_statistics(stats, 2 * p, q, "g")


def test_self_times_add_up_to_spanned_time():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(1000))

    inner = tracer.wrap("b.inner", leaf)
    outer = tracer.wrap("a.outer", lambda: [inner() for _ in range(50)])
    outer()
    outer()
    rec = tracer.agg
    assert rec["b.inner"][0] == 100 and rec["a.outer"][3] == 100
    assert abs(tracer.self_time("a.") + tracer.self_time("b.")
               - rec["a.outer"][1]) < 1e-9


def test_calibrated_costs_are_small_and_positive():
    costs = tracing.calibrate(calls=20_000, repeats=2)
    assert all(0 < c < 1e-4 for c in costs)
