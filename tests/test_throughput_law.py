"""The baseline against the TCP throughput law of Mathis, Semke, Mahdavi
and Ott ("The macroscopic behavior of the TCP congestion avoidance
algorithm", CCR 1997): under random loss at rate p, a window that halves
on each loss and grows by one packet per RTT delivers

    B ~ (MSS / RTT) * C / sqrt(p),

with C = sqrt(3/2) ~ 1.22 for periodic loss and one ACK per packet.

Setup: one flow, the baseline policy and uniform loss at p = 0.0025,
0.01 and 0.04, offered 1.2 Mb/s (below the 1.3 Mb/s wireless hop, so the
window, not the queue, limits the flow) for 600 s with 100 s of warm-up,
seeds 1-10.  B is the run's mean throughput, MSS the packet size in
bits, and RTT the base path's, 0.6106 s.  The queue stays short, and
the mean of the traced RTT samples moves C by under 0.5 %.

How the bounds were derived: over these 30 runs the measured C spans
1.094-1.484, 1.233-1.379 and 1.108-1.301 at the three values of p, and
the per-seed least-squares slope of log B against log p (the law says
-1/2) spans -0.592 to -0.473.  The bounds, C in [1.0, 1.6] and the slope
in [-0.65, -0.4], leave about 0.1 of margin outside the extremes of C
and 0.06 to 0.07 outside those of the slope.  Three wrong controllers
fail: one that never shrinks its window on loss (at seed 1, C is 4.6,
9.1 and 17.7 and the slope -0.01, and the queue drops packets), and
ones that cut the window to a quarter or to 0.7 of itself (at each p,
some run reads C below 1.0 with the first and above 1.6 with the
second).  No run drops a packet at the queue.  The 30 runs take about
1 s of CPU.

The bursty point: the same flow under Gilbert loss p = 0.001, q = 0.1
(mean burst 10 packets, PLR 0.99 %), seeds 1-10.  A burst of losses is
one loss event, so the law holds with p the loss-event rate: p_e is the
path's bursts per packet, counted by loss.trace_statistics on the drop
flags the path drew, not by the controller under test.  Over the 10 runs
C spans 1.203-1.331, with a mean of 1.258.  The bounds, C in [1.1, 1.6]
per run and the seed mean in [1.15, 1.40], leave about 0.1 below the
lowest run and below the mean, 0.27 above the highest run and 0.14 above
the mean.  Four wrong controllers fail, each in every run or in its seed
mean: one that takes each lost packet as a loss event of its own (C
0.794-0.991), one that cuts the window to 0.7 of itself (1.595-1.757),
one that grows by 1.5/cwnd per ACK (1.450-1.642), and one that never
cuts it (2.63-2.96).  No run drops a packet at the queue.  The 10 runs
take about 0.8 s of CPU.
"""

import math

import pytest

from zigzagsim import metrics
from zigzagsim.harness import (WIRED_BANDWIDTH_BPS, WIRED_DELAY_S,
                               WIRELESS_BANDWIDTH_BPS, WIRELESS_DELAY_S,
                               run_scenario)
from zigzagsim.loss import trace_statistics
from zigzagsim.scenario import GILBERT, UNIFORM, LossSpec, Scenario

LOSS_RATES = (0.0025, 0.01, 0.04)
SEEDS = range(1, 11)
C_BOUNDS = (1.0, 1.6)
SLOPE_BOUNDS = (-0.65, -0.4)
BURSTY = LossSpec(GILBERT, p=0.001, q=0.1)
BURSTY_C_BOUNDS = (1.1, 1.6)
BURSTY_MEAN_C_BOUNDS = (1.15, 1.40)


def _scenario(plr, seed, spec=None):
    return Scenario(flow_count=1, aggregate_rate_bps=1.2e6,
                    loss=spec or LossSpec(UNIFORM, plr=plr),
                    policy="baseline", duration_s=600.0, warmup_s=100.0,
                    seed=seed)


def _base_rtt(sc):
    """The path's RTT with empty queues: a packet out, its feedback back."""
    data, fb = sc.packet_size_bytes * 8.0, sc.feedback_size_bytes * 8.0
    return (data / WIRED_BANDWIDTH_BPS + data / WIRELESS_BANDWIDTH_BPS
            + fb / WIRELESS_BANDWIDTH_BPS + fb / WIRED_BANDWIDTH_BPS
            + 2.0 * (WIRED_DELAY_S + WIRELESS_DELAY_S))


@pytest.fixture(scope="module")
def runs():
    """(throughput in bits/s, queue drops) per (p, seed)."""
    out = {}
    for plr in LOSS_RATES:
        for seed in SEEDS:
            result = run_scenario(_scenario(plr, seed))
            out[plr, seed] = (metrics.run_mean_throughput(result),
                              len(result.queue_drop_log))
    return out


@pytest.mark.parametrize("plr", LOSS_RATES)
def test_mathis_constant_in_bounds(runs, plr):
    sc = _scenario(plr, 1)
    mss_bits = sc.packet_size_bytes * 8
    for seed in SEEDS:
        tput, _ = runs[plr, seed]
        c = tput * _base_rtt(sc) * math.sqrt(plr) / mss_bits
        assert C_BOUNDS[0] <= c <= C_BOUNDS[1], (plr, seed, c)


def test_throughput_falls_as_inverse_square_root_of_loss(runs):
    xs = [math.log(plr) for plr in LOSS_RATES]
    mx = sum(xs) / len(xs)
    for seed in SEEDS:
        ys = [math.log(runs[plr, seed][0]) for plr in LOSS_RATES]
        my = sum(ys) / len(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) \
            / sum((x - mx) ** 2 for x in xs)
        assert SLOPE_BOUNDS[0] <= slope <= SLOPE_BOUNDS[1], (seed, slope)


def test_no_queue_drops(runs):
    assert all(drops == 0 for _, drops in runs.values())


@pytest.fixture(scope="module")
def bursty_runs():
    """(C from the loss-event rate, queue drops) per seed, Gilbert loss."""
    out = {}
    for seed in SEEDS:
        sc = _scenario(None, seed, BURSTY)
        result = run_scenario(sc)
        stats = trace_statistics(result.loss_trace[:])
        event_rate = stats["bursts"] / stats["packets"]
        c = metrics.run_mean_throughput(result) * _base_rtt(sc) \
            * math.sqrt(event_rate) / (sc.packet_size_bytes * 8)
        out[seed] = (c, len(result.queue_drop_log))
    return out


def test_mathis_constant_from_the_loss_event_rate(bursty_runs):
    cs = [c for c, _ in bursty_runs.values()]
    for seed, c in zip(SEEDS, cs):
        assert BURSTY_C_BOUNDS[0] <= c <= BURSTY_C_BOUNDS[1], (seed, c)
    mean = sum(cs) / len(cs)
    assert BURSTY_MEAN_C_BOUNDS[0] <= mean <= BURSTY_MEAN_C_BOUNDS[1], mean
    assert all(drops == 0 for _, drops in bursty_runs.values())
