"""Post-processing of run traces into reported quantities and CSV files."""

import hashlib
import math
from dataclasses import dataclass, fields

from .control import HALVING_CODES, TraceRecord
from .harness import WIRELESS_BANDWIDTH_BPS


class PairingError(ValueError):
    """Baseline/zig-zag runs must share scenario, seed and loss pattern."""


def mean_throughput(delivery_times, packet_size_bytes, warmup_s, duration_s):
    """Delivered payload bits in (warmup, duration], over the window length."""
    if duration_s <= warmup_s:
        raise ValueError("duration must exceed warm-up")
    bits = sum(1 for t in delivery_times if warmup_s < t <= duration_s) \
        * packet_size_bytes * 8
    return bits / (duration_s - warmup_s)


def run_mean_throughput(result):
    sc = result.scenario
    times = [t for fs in result.flows for t in fs.delivery_times]
    return mean_throughput(times, sc.packet_size_bytes, sc.warmup_s,
                           sc.duration_s)


def throughput_increase_pct(zigzag_bps, baseline_bps):
    if baseline_bps <= 0:
        raise ZeroDivisionError("baseline throughput must be positive")
    return 100.0 * (zigzag_bps - baseline_bps) / baseline_bps


def bandwidth_utilization(mean_bps, offered_bps):
    """Percent of the achievable ceiling: min(offered, wireless bottleneck)."""
    ceiling = min(offered_bps, WIRELESS_BANDWIDTH_BPS)
    return 100.0 * mean_bps / ceiling


BUCKET_S = 1.0  # width of one throughput-series bucket


def throughput_series(result):
    """Delivered bits/s per BUCKET_S bucket, one list per flow."""
    sc = result.scenario
    buckets = math.ceil(sc.duration_s / BUCKET_S)
    bucket_bps = sc.packet_size_bytes * 8 / BUCKET_S
    series = []
    for fs in result.flows:
        samples = [0.0] * buckets
        for t in fs.delivery_times:
            samples[min(int(t / BUCKET_S), buckets - 1)] += bucket_bps
        series.append(samples)
    return series


def controller_trace_hash(result):
    """Stable digest of all controller trace rows, for determinism checks."""
    h = hashlib.sha256()
    for trace in result.traces:
        h.update(trace.text("\n").encode())
    return h.hexdigest()


def delivery_hash(result):
    h = hashlib.sha256()
    for fs in result.flows:
        h.update(("".join(["%.9f;" % t for t in fs.delivery_times])
                  + "|").encode())
    return h.hexdigest()


def wireless_loss_prefix_equal(a, b):
    """True iff the two runs saw the same wireless drop pattern.

    The paired runs transmit different packet counts, so the traces are
    compared over their common prefix of the shared drop stream.
    """
    n = min(len(a.loss_trace), len(b.loss_trace))
    return a.loss_trace[:n] == b.loss_trace[:n]


@dataclass
class ExperimentResult:
    """One summary row in the paired comparison table."""

    flow_count: int
    loss_kind: str
    plr_pct: float
    aggregate_rate_bps: float
    seed: int
    congestion_baseline: int
    congestion_zigzag: int
    wireless_zigzag: int
    mean_throughput_baseline_bps: float
    mean_throughput_zigzag_bps: float
    throughput_increase_pct: float
    bw_utilization_baseline_pct: float
    bw_utilization_zigzag_pct: float
    halve_violations: int = 0

    def as_row(self):
        return [getattr(self, f.name) for f in fields(self)]


def count_halve_violations(result):
    """cwnd decreases that do not coincide with a halving-eligible loss event.

    Baseline: any loss event may shrink the window.  Zig-zag: only
    congestion-classified events may.  Returns the number of trace rows
    violating that rule.
    """
    violations = 0
    for trace in result.traces:
        cwnd = trace.cwnd
        # each row against the row before it
        violations += sum(
            1 for prev, now, kind in zip(cwnd, cwnd[1:], trace.kind[1:])
            if now < prev - 1e-12 and kind not in HALVING_CODES)
    return violations


def summarize(baseline, zigzag):
    """Fold one paired (baseline, zig-zag) run into a summary row."""
    if baseline.scenario.key() != zigzag.scenario.key():
        raise PairingError("runs do not share a scenario")
    if baseline.scenario.policy != "baseline" \
            or zigzag.scenario.policy != "zigzag":
        raise PairingError("expected one baseline run and one zigzag run")
    if not wireless_loss_prefix_equal(baseline, zigzag):
        raise PairingError("wireless loss traces diverge; seeds differ?")
    sc = baseline.scenario
    tput_b = run_mean_throughput(baseline)
    tput_z = run_mean_throughput(zigzag)
    increase = throughput_increase_pct(tput_z, tput_b) if tput_b > 0 else 0.0
    return ExperimentResult(
        flow_count=sc.flow_count,
        loss_kind=sc.loss.kind,
        plr_pct=100.0 * sc.loss.analytic_plr,
        aggregate_rate_bps=sc.aggregate_rate_bps,
        seed=sc.seed,
        congestion_baseline=baseline.congestion_events,
        congestion_zigzag=zigzag.congestion_events,
        wireless_zigzag=zigzag.wireless_events,
        mean_throughput_baseline_bps=tput_b,
        mean_throughput_zigzag_bps=tput_z,
        throughput_increase_pct=increase,
        bw_utilization_baseline_pct=bandwidth_utilization(
            tput_b, sc.aggregate_rate_bps),
        bw_utilization_zigzag_pct=bandwidth_utilization(
            tput_z, sc.aggregate_rate_bps),
        halve_violations=(count_halve_violations(baseline)
                          + count_halve_violations(zigzag)),
    )


# -- CSV writers -------------------------------------------------------
#
# The bytes are those csv.writer would write.  Lines end in "\r\n", and
# no field is quoted: every string field is a fixed word (phase, event
# type, loss class, loss kind, policy) with no comma, quote or line
# break.  Other values are written with str() (repr for floats), as
# csv.writer writes them, or with a fixed format.

def _line(values):
    return ",".join(map(str, values)) + "\r\n"


def _write_csv(path, header, chunks):
    """Write the header line, then each chunk of "\r\n"-ended lines."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_line(header))
        fh.writelines(chunks)


def write_series_csv(path, series):
    _write_csv(path, ["t_bucket_start", "flow_id", "throughput_bps"], (
        "".join(["%.3f,%d,%.3f\r\n" % (i * BUCKET_S, flow_id, bps)
                 for i, bps in enumerate(samples)])
        for flow_id, samples in enumerate(series)))


def write_controller_trace_csv(path, result):
    _write_csv(path, [f.name for f in fields(TraceRecord)], (
        trace.text("\r\n") for trace in result.traces))


def write_summary_csv(path, rows):
    _write_csv(path, [f.name for f in fields(ExperimentResult)],
               [_line(row.as_row()) for row in rows])


def write_run_summary_csv(path, result):
    """Write the one-row summary of a single run; returns its mean
    throughput (b/s) and bandwidth utilisation (%)."""
    sc = result.scenario
    tput = run_mean_throughput(result)
    util = bandwidth_utilization(tput, sc.aggregate_rate_bps)
    _write_csv(path, ["flow_count", "loss_kind", "plr_pct",
                      "aggregate_rate_bps", "policy", "seed",
                      "mean_throughput_bps", "bw_utilization_pct",
                      "congestion_events", "wireless_events",
                      "queue_drops", "wireless_drops"],
               [_line([sc.flow_count, sc.loss.kind,
                       f"{100.0 * sc.loss.analytic_plr:.4f}",
                       sc.aggregate_rate_bps, sc.policy, sc.seed,
                       f"{tput:.3f}", f"{util:.3f}",
                       result.congestion_events, result.wireless_events,
                       sum(f.queue_drops for f in result.flows),
                       sum(f.wireless_drops for f in result.flows)])])
    return tput, util
