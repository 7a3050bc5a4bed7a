import csv
import io
import math
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from zigzagsim import metrics
from zigzagsim.control import ROW, ROW_KINDS, ControllerTrace, TraceRecord
from zigzagsim.harness import FlowStats, run_scenario
from zigzagsim.scenario import LossSpec, Scenario


class Deliveries:
    """A stand-in run result: one flow's delivery times and the scenario
    fields that set the measurement window."""

    def __init__(self, times, warmup_s=100.0, duration_s=500.0):
        self.scenario = Scenario(packet_size_bytes=1000, warmup_s=warmup_s,
                                 duration_s=duration_s)
        self.flows = [FlowStats(delivery_times=array("d", times))]


class TestMeanThroughput:
    def test_fifty_thousand_packets_over_400s_is_one_mbps(self):
        # 50,000 x 1000-byte packets spread over (100, 500]
        times = [100.0 + (i + 1) * (400.0 / 50_000) for i in range(50_000)]
        assert metrics.run_mean_throughput(Deliveries(times)) \
            == pytest.approx(1.0e6)

    def test_no_deliveries_after_warmup_is_zero(self):
        times = [5.0, 60.0, 99.9]
        assert metrics.run_mean_throughput(Deliveries(times)) == 0.0

    def test_window_edges(self):
        # delivery exactly at warm-up excluded, exactly at horizon included
        assert metrics.run_mean_throughput(Deliveries([100.0])) == 0.0
        assert metrics.run_mean_throughput(Deliveries([500.0])) \
            == pytest.approx(8000 / 400.0)


class TestIncreasePct:
    def test_equal_is_zero(self):
        assert metrics.throughput_increase_pct(0.5e6, 0.5e6) == 0.0

    def test_table_row_scale(self):
        # Mb/s-scale pair consistent with the 1-flow 1.92%-PLR comparison
        assert metrics.throughput_increase_pct(0.2018e6, 0.1340e6) \
            == pytest.approx(50.6, abs=0.1)

    def test_regression_is_negative(self):
        assert metrics.throughput_increase_pct(0.8e6, 1.0e6) < 0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ZeroDivisionError):
            metrics.throughput_increase_pct(1.0, 0.0)


class TestUtilization:
    def test_offered_below_bottleneck(self):
        assert metrics.bandwidth_utilization(0.8e6, 1.0e6) \
            == pytest.approx(80.0)

    def test_at_ceiling(self):
        assert metrics.bandwidth_utilization(1.0e6, 1.0e6) == 100.0

    def test_bottleneck_caps_denominator(self):
        assert metrics.bandwidth_utilization(1.255e6, 1.5e6) \
            == pytest.approx(96.5, abs=0.1)


def run_pair(**kw):
    sc = Scenario(duration_s=120.0, warmup_s=100.0, **kw)
    return run_scenario(sc.with_policy("baseline")), \
        run_scenario(sc.with_policy("zigzag"))


class TestSummarize:
    LOSS = LossSpec("gilbert", p=0.01, q=0.5)

    def test_row_contents(self):
        baseline, zigzag = run_pair(flow_count=2, loss=self.LOSS, seed=5)
        row = metrics.summarize(baseline, zigzag)
        assert row.flow_count == 2
        assert row.plr_pct == pytest.approx(100 * 0.01 / 0.51)
        assert row.congestion_baseline == baseline.congestion_events
        assert row.congestion_zigzag == zigzag.congestion_events
        assert row.wireless_zigzag == zigzag.wireless_events
        assert row.halve_violations == 0

    def test_no_loss_pair(self):
        baseline, zigzag = run_pair(flow_count=1, seed=2)
        row = metrics.summarize(baseline, zigzag)
        assert row.throughput_increase_pct == pytest.approx(0.0, abs=1e-9)
        assert row.wireless_zigzag == 0

    def test_nothing_delivered_pair(self):
        # every packet is lost on the wireless hop: a zero baseline gives
        # an increase of 0.0, not a division by zero
        baseline, zigzag = run_pair(flow_count=1, seed=3,
                                    loss=LossSpec("uniform", plr=1.0))
        row = metrics.summarize(baseline, zigzag)
        assert (row.mean_throughput_baseline_bps,
                row.mean_throughput_zigzag_bps,
                row.throughput_increase_pct) == (0.0, 0.0, 0.0)

    def test_mismatched_seed_rejected(self):
        baseline, _ = run_pair(flow_count=1, loss=self.LOSS, seed=1)
        _, zigzag = run_pair(flow_count=1, loss=self.LOSS, seed=2)
        with pytest.raises(ValueError, match="do not share a scenario"):
            metrics.summarize(baseline, zigzag)

    def test_policy_mismatch_rejected(self):
        baseline, zigzag = run_pair(flow_count=1, loss=self.LOSS, seed=1)
        with pytest.raises(ValueError, match="one baseline run and one"):
            metrics.summarize(zigzag, baseline)

    def test_utilization_bounded(self):
        baseline, zigzag = run_pair(flow_count=1, seed=7)
        row = metrics.summarize(baseline, zigzag)
        size_bits = baseline.scenario.packet_size_bytes * 8
        quantum = 100.0 * size_bits / baseline.scenario.aggregate_rate_bps
        assert row.bw_utilization_baseline_pct <= 100.0 + quantum
        assert row.bw_utilization_zigzag_pct <= 100.0 + quantum


class TestSeries:
    def test_bucket_sum_matches_scalar_mean(self):
        sc = Scenario(flow_count=2, duration_s=200.0, warmup_s=100.0,
                      loss=LossSpec("gilbert", p=0.01, q=0.5), seed=4)
        result = run_scenario(sc)
        series = metrics.throughput_series(result)
        assert metrics.BUCKET_S == 1.0
        # bits/s x 1 s buckets
        window_bits = sum(sum(samples[100:200]) for samples in series)
        scalar = metrics.run_mean_throughput(result)
        bucket_quantum = sc.packet_size_bytes * 8
        assert abs(window_bits / 100.0 - scalar) <= bucket_quantum

    def test_bucket_edges(self):
        # a time on an edge opens its bucket; the last bucket, [3, 3.5],
        # is short, and an empty one reads 0.0
        times = [0.0, 0.999, 1.0, 3.0, 3.5]
        result = Deliveries(times, warmup_s=0.0, duration_s=3.5)
        assert metrics.throughput_series(result) \
            == [[16000.0, 8000.0, 0.0, 16000.0]]


class Traces:
    """A stand-in run result holding only controller traces."""

    def __init__(self, *traces):
        self.traces = list(traces)


def trace_of(flow_id, rows):
    """A ControllerTrace holding ``rows`` of (t, cwnd, phase, event_type,
    loss_class, n, rott_i, mean, dev), each packed as one ROW."""
    trace = ControllerTrace(flow_id)
    for t, cwnd, phase, event, cls, n, rott_i, mean, dev in rows:
        trace.rows += ROW.pack(t, cwnd, ROW_KINDS.index((phase, event, cls)),
                               n, rott_i, mean, dev)
    return trace


class TestHalveViolations:
    def test_detects_synthetic_violation(self):
        trace = trace_of(0, [
            (1.0, 10.0, "congestion_avoidance", "ack", "", 0, 0.3, 0.3, 0.0),
            (2.0, 5.0, "congestion_avoidance", "loss", "wireless", 1, 0.3,
             0.3, 0.0),
        ])
        assert metrics.count_halve_violations(Traces(trace)) == 1

    def test_clean_run_has_none(self):
        baseline, zigzag = run_pair(
            flow_count=2, loss=LossSpec("gilbert", p=0.05, q=0.5), seed=1)
        assert metrics.count_halve_violations(baseline) == 0
        assert metrics.count_halve_violations(zigzag) == 0


class TestCsvWriters:
    def test_files_roundtrip(self, tmp_path):
        sc = Scenario(flow_count=1, duration_s=120.0,
                      loss=LossSpec("gilbert", p=0.01, q=0.5))
        result = run_scenario(sc)
        series_path = tmp_path / "series.csv"
        trace_path = tmp_path / "trace.csv"
        metrics.write_series_csv(series_path,
                                 metrics.throughput_series(result))
        metrics.write_controller_trace_csv(trace_path, result)
        series_lines = series_path.read_text().splitlines()
        assert series_lines[0] == "t_bucket_start,flow_id,throughput_bps"
        assert len(series_lines) == 1 + 120
        trace_lines = trace_path.read_text().splitlines()
        assert trace_lines[0] \
            == "t,flow_id,cwnd,phase,event_type,loss_class,n,rott_i," \
            "rott_mean,rott_dev"
        assert len(trace_lines) == 1 + len(result.traces[0])

    def test_summary_headers(self, tmp_path):
        summary_path = tmp_path / "summary.csv"
        metrics.write_summary_csv(summary_path, [])
        assert summary_path.read_text().splitlines() == [
            "flow_count,loss_kind,plr_pct,aggregate_rate_bps,seed,"
            "congestion_baseline,congestion_zigzag,wireless_zigzag,"
            "mean_throughput_baseline_bps,mean_throughput_zigzag_bps,"
            "throughput_increase_pct,bw_utilization_baseline_pct,"
            "bw_utilization_zigzag_pct,halve_violations"]
        run_path = tmp_path / "run_summary.csv"
        metrics.write_run_summary_csv(
            run_path, run_scenario(Scenario(duration_s=101.0)))
        assert run_path.read_text().splitlines()[0] \
            == "flow_count,loss_kind,plr_pct,aggregate_rate_bps,policy,seed," \
            "mean_throughput_bps,bw_utilization_pct,congestion_events," \
            "wireless_events,queue_drops,wireless_drops"


SPECIAL_FLOATS = [0.0, -0.0, 1e-10, -1e-10, 2.5e300, math.inf, -math.inf,
                  math.nan]


def csv_bytes(rows):
    """What csv.writer writes for ``rows``: the oracle of the writers."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode("utf-8")


def trace_fields(rec):
    return [f"{rec.t:.9f}", str(rec.flow_id), f"{rec.cwnd:.6f}", rec.phase,
            rec.event_type, rec.loss_class, str(rec.n), f"{rec.rott_i:.9f}",
            f"{rec.rott_mean:.9f}", f"{rec.rott_dev:.9f}"]


def read_dicts(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestCsvBytes:
    """The writers' bytes against csv.writer fed per-field f-strings, on a
    short lossy pair with timeouts and both loss classes."""

    SCENARIO = Scenario(flow_count=3, aggregate_rate_bps=1.5e6,
                        loss=LossSpec("gilbert", p=0.05, q=0.5),
                        duration_s=30.0, warmup_s=0.0, seed=1)

    @pytest.fixture(scope="class")
    def pair(self):
        pair = [run_scenario(self.SCENARIO.with_policy(p))
                for p in ("baseline", "zigzag")]
        for result in pair:
            assert sum(fs.timeouts for fs in result.flows) > 0
        assert pair[1].wireless_events > 0 and pair[1].congestion_events > 0
        return pair

    def test_controller_trace(self, pair, tmp_path):
        path = tmp_path / "trace.csv"
        for result in pair:
            metrics.write_controller_trace_csv(path, result)
            records = [rec for trace in result.traces for rec in trace]
            header = list(TraceRecord._fields)
            assert path.read_bytes() == csv_bytes(
                [header] + [trace_fields(rec) for rec in records])
            rows = read_dicts(path)
            assert len(rows) == len(records)
            for row, rec in zip(rows, records):
                assert list(row) == header
                assert int(row["flow_id"]) == rec.flow_id
                assert int(row["n"]) == rec.n
                assert (row["phase"], row["event_type"], row["loss_class"]) \
                    == (rec.phase, rec.event_type, rec.loss_class)
                assert float(row["t"]) == pytest.approx(rec.t, abs=1e-9)
                assert float(row["cwnd"]) == pytest.approx(rec.cwnd, abs=1e-6)
                for name in ("rott_i", "rott_mean", "rott_dev"):
                    assert float(row[name]) \
                        == pytest.approx(getattr(rec, name), abs=1e-9)
            assert {row["loss_class"] for row in rows} >= {"", "congestion"}

    def test_series(self, pair, tmp_path):
        path = tmp_path / "series.csv"
        for result in pair:
            series = metrics.throughput_series(result)
            metrics.write_series_csv(path, series)
            expected = [[f"{i * metrics.BUCKET_S:.3f}", flow_id, f"{bps:.3f}"]
                        for flow_id, samples in enumerate(series)
                        for i, bps in enumerate(samples)]
            assert path.read_bytes() == csv_bytes(
                [["t_bucket_start", "flow_id", "throughput_bps"]] + expected)
            rows = read_dicts(path)
            assert [(float(r["t_bucket_start"]), int(r["flow_id"]),
                     float(r["throughput_bps"])) for r in rows] \
                == [(float(t), flow_id, float(bps))
                    for t, flow_id, bps in expected]

    def test_summary(self, pair, tmp_path):
        path = tmp_path / "summary.csv"
        row = metrics.summarize(*pair)
        metrics.write_summary_csv(path, [row, row])
        header = list(metrics.ExperimentResult._fields)
        values = [getattr(row, name) for name in header]
        assert path.read_bytes() == csv_bytes([header, values, values])
        for read in read_dicts(path):
            assert list(read) == header
            for name, value in zip(header, values):
                assert type(value)(read[name]) == value

    def test_run_summary(self, pair, tmp_path):
        path = tmp_path / "run_summary.csv"
        for result in pair:
            sc = result.scenario
            tput, util = metrics.write_run_summary_csv(path, result)
            assert tput == metrics.run_mean_throughput(result)
            assert util == metrics.bandwidth_utilization(
                tput, sc.aggregate_rate_bps)
            header = ["flow_count", "loss_kind", "plr_pct",
                      "aggregate_rate_bps", "policy", "seed",
                      "mean_throughput_bps", "bw_utilization_pct",
                      "congestion_events", "wireless_events",
                      "queue_drops", "wireless_drops"]
            values = [sc.flow_count, sc.loss.kind,
                      f"{100.0 * sc.loss.analytic_plr:.4f}",
                      sc.aggregate_rate_bps, sc.policy, sc.seed,
                      f"{tput:.3f}", f"{util:.3f}",
                      result.congestion_events, result.wireless_events,
                      sum(f.queue_drops for f in result.flows),
                      sum(f.wireless_drops for f in result.flows)]
            assert path.read_bytes() == csv_bytes([header, values])
            (read,) = read_dicts(path)
            assert list(read) == header
            assert read["policy"] == sc.policy
            assert int(read["seed"]) == sc.seed
            assert float(read["aggregate_rate_bps"]) == sc.aggregate_rate_bps
            assert float(read["mean_throughput_bps"]) \
                == pytest.approx(tput, abs=1e-3)
            assert int(read["wireless_events"]) == result.wireless_events

    @pytest.mark.parametrize("x", SPECIAL_FLOATS)
    def test_trace_row_special_floats(self, x, tmp_path):
        rec = TraceRecord(x, 0, x, "slow_start", "ack", "", 0, x, x, x)
        path = tmp_path / "trace.csv"
        trace = trace_of(0, [(x, x, "slow_start", "ack", "", 0, x, x, x)])
        metrics.write_controller_trace_csv(path, Traces(trace))
        header = list(TraceRecord._fields)
        assert path.read_bytes() == csv_bytes([header, trace_fields(rec)])


# cwnd values at and around the halving check's 1e-12 tolerance
NEAR_FLOATS = [2.0, 5.0, 5.0 - 1e-12, 5.0 - 2e-12, 10.0]
# every (phase, event_type, loss_class) a controller traces
TRACED_KINDS = [(phase, event, cls)
                for phase in ("slow_start", "congestion_avoidance")
                for event, cls in (("ack", ""), ("loss", "wireless"),
                                   ("loss", "congestion"))]


def row_floats(extra=()):
    return st.sampled_from(SPECIAL_FLOATS + list(extra)) | st.floats()


trace_rows = st.lists(st.tuples(
    row_floats(), row_floats(NEAR_FLOATS), st.sampled_from(TRACED_KINDS),
    st.integers(0, 2 ** 63 - 1), row_floats(), row_floats(), row_floats()),
    max_size=40)


def halve_violations_oracle(result):
    """count_halve_violations as it read TraceRecords, row by row."""
    violations = 0
    for trace in result.traces:
        prev_cwnd = None
        for rec in trace:
            if prev_cwnd is not None and rec.cwnd < prev_cwnd - 1e-12:
                ok = rec.event_type == "loss" and rec.loss_class == "congestion"
                if not ok:
                    violations += 1
            prev_cwnd = rec.cwnd
    return violations


def field_reprs(rec):
    # repr tells -0.0 from 0.0 and matches nan with nan, as == does not
    return [repr(value) for value in rec]


class TestControllerTraceColumns:
    """The packed rows against the TraceRecords they stand for: the views,
    the text and the halving check, over every row kind, special floats and
    n up to 2**63 - 1."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10 ** 6), trace_rows),
                    min_size=1, max_size=3))
    def test_columns_match_records(self, flows):
        traces, expected = [], []
        for flow_id, rows in flows:
            traces.append(trace_of(flow_id, [
                (t, cwnd, *kind, n, rott_i, mean, dev)
                for t, cwnd, kind, n, rott_i, mean, dev in rows]))
            expected.append([
                TraceRecord(t, flow_id, cwnd, *kind, n, rott_i, mean, dev)
                for t, cwnd, kind, n, rott_i, mean, dev in rows])
        for trace, records in zip(traces, expected):
            views = list(trace)
            assert len(trace) == len(views) == len(records)
            assert all(type(view) is TraceRecord for view in views)
            assert [field_reprs(v) for v in views] \
                == [field_reprs(r) for r in records]
            for end in ("\n", "\r\n"):
                assert trace.text(end) \
                    == "".join([rec.as_row() + end for rec in records])
        assert metrics.count_halve_violations(Traces(*traces)) \
            == halve_violations_oracle(Traces(*expected))
