"""Post-processing of run traces into reported quantities and CSV files."""

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple

from .control import BASELINE, FIRST_CONGESTION_KIND, ZIGZAG, TraceRecord
from .harness import WIRELESS_BANDWIDTH_BPS


def run_mean_throughput(result):
    """Payload bits the run's flows delivered in (warmup, duration], over
    the window length, counted flow by flow."""
    sc = result.scenario
    warmup_s, duration_s = sc.warmup_s, sc.duration_s
    delivered = 0
    for fs in result.flows:
        # sorted, as throughput_series says, so the window is one slice
        t = fs.delivery_times
        delivered += bisect_right(t, duration_s) - bisect_right(t, warmup_s)
    return delivered * sc.packet_size_bytes * 8 / (duration_s - warmup_s)


def throughput_increase_pct(zigzag_bps, baseline_bps):
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
    # Bucket i holds the times t with int(t / BUCKET_S) == i, the last one
    # also any later time.  A flow's delivery times never decrease, as the
    # wireless queue is FIFO and each admitted packet is done strictly
    # after the one before it, so each bucket is one slice of them, cut by
    # bisection at i * BUCKET_S: exact, as BUCKET_S is 1.0.  A count times
    # the integer-valued bucket_bps equals that many additions of it.
    edges = [i * BUCKET_S for i in range(1, buckets)]
    series = []
    for fs in result.flows:
        t = fs.delivery_times
        cuts = [0, *[bisect_left(t, edge) for edge in edges], len(t)]
        series.append([(end - start) * bucket_bps
                       for start, end in zip(cuts, cuts[1:])])
    return series


def controller_trace_hash(result):
    """sha256 of each trace's b"flow_id,rows;" and its packed rows; ROW is
    native byte order, so pinned values hold on little-endian hosts."""
    import hashlib  # deferred: only the determinism checks hash traces
    h = hashlib.sha256()
    for trace in result.traces:
        h.update(b"%d,%d;%b" % (trace.flow_id, len(trace), trace.rows))
    return h.hexdigest()


def delivery_hash(result):
    """sha256 of each flow's b"delivered;" and its delivery_times doubles,
    native byte order, so pinned values hold on little-endian hosts."""
    import hashlib  # deferred: only the determinism checks hash deliveries
    h = hashlib.sha256()
    for fs in result.flows:
        h.update(b"%d;%b" % (fs.delivered, fs.delivery_times))
    return h.hexdigest()


class ExperimentResult(namedtuple("ExperimentResult", (
        "flow_count loss_kind plr_pct aggregate_rate_bps seed "
        "congestion_baseline congestion_zigzag wireless_zigzag "
        "mean_throughput_baseline_bps mean_throughput_zigzag_bps "
        "throughput_increase_pct bw_utilization_baseline_pct "
        "bw_utilization_zigzag_pct halve_violations"))):
    """One summary row in the paired comparison table."""

    __slots__ = ()

    def as_row(self):
        return list(self)


def count_halve_violations(result):
    """cwnd decreases that do not coincide with a halving-eligible loss event.

    Baseline: any loss event may shrink the window.  Zig-zag: only
    congestion-classified events may.  Returns the number of trace rows
    violating that rule.
    """
    violations = 0
    for trace in result.traces:
        # each row against the row before it; the first has none
        prev = -math.inf
        for _t, cwnd, kind, _n, _rott_i, _mean, _dev in trace.unpack():
            if cwnd < prev - 1e-12 and kind < FIRST_CONGESTION_KIND:
                violations += 1
            prev = cwnd
    return violations


def summarize(baseline, zigzag):
    """Fold one paired (baseline, zig-zag) run into a summary row."""
    if baseline.scenario.key() != zigzag.scenario.key():
        raise ValueError("runs do not share a scenario")
    if baseline.scenario.policy != BASELINE \
            or zigzag.scenario.policy != ZIGZAG:
        raise ValueError("expected one baseline run and one zigzag run")
    # the paired runs read one drop stream, each as far as its packets went
    n = min(len(baseline.loss_trace), len(zigzag.loss_trace))
    if baseline.loss_trace[:n] != zigzag.loss_trace[:n]:
        raise ValueError("wireless loss traces diverge; seeds differ?")
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
    _write_csv(path, TraceRecord._fields, (
        trace.text() for trace in result.traces))


def write_summary_csv(path, rows):
    _write_csv(path, ExperimentResult._fields,
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
