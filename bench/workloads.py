"""The three workloads: their inputs, the timed operation, and the checks.

Each workload writes its inputs from the seed, runs one round of the same
operations per call to ``operate``, and checks the first round's outputs
in ``check``.  Later rounds must reproduce the first round's digest.
The program is always reached through module attributes
(``harness.run_scenario``, ``cli.run_matrix``, ...) so that the traced
run's wrappers see every call.
"""

import csv
import hashlib
import os
import re
import traceback
from array import array

import checks

PAIR_CFG = """\
# acceptance criterion 10: 10 flows offering 1.5 Mb/s to the 1.3 Mb/s
# wireless hop, 1.96 % bursty loss
flow_count = 10
aggregate_rate_bps = 1.5e6
loss.kind = gilbert
loss.p = 0.01
loss.q = 0.5
duration_s = 500
seed = {seed}
"""

# moderate (0.01:0.5, 1.96 %) and heavy (0.1:0.6, 14.3 %) loss, bursty and
# uniform, 1 and 5 flows: 8 pairs, 16 runs
MATRIX_CFG = """\
flows = 1, 5
couples = 0.01:0.5, 0.1:0.6
rates_bps = 1.0e6
kinds = gilbert, uniform
duration_s = 200
seed = {seed}
"""

# the four Gilbert couples of acceptance criterion 1
LOSS_COUPLES = ((0.001, 0.6), (0.01, 0.5), (0.1, 0.6), (0.1, 0.4))
LOSS_SEEDS_PER_COUPLE = 3
LOSS_PACKETS = 10 ** 6
# the tolerance validate-loss documents for its verdict
VERDICT_REL_TOL = 0.05


class Outcome:
    """One round: operations attempted and failed, what they returned, and
    a message per failed operation."""

    def __init__(self, attempted, failed, data, failures=()):
        self.attempted = attempted
        self.failed = failed
        self.data = data
        self.failures = list(failures)


def _failure():
    return traceback.format_exc().strip().splitlines()[-1]


def _flow_dicts(result):
    return [{"generated": f.generated, "sent": f.sent,
             "delivered": f.delivered, "queue_drops": f.queue_drops,
             "wireless_drops": f.wireless_drops,
             "delivery_times": f.delivery_times} for f in result.flows]


def check_run(result, where):
    """Conservation and trace checks of one in-memory RunResult.

    Returns (errors, congestion rows, wireless rows).
    """
    sc = result.scenario
    errors = checks.check_conservation(
        _flow_dicts(result), [e[1] for e in result.loss_trace],
        [e[1] for e in result.queue_drop_log], sc, where)
    min_rtt = checks.base_rtt(sc.packet_size_bytes, sc.feedback_size_bytes)
    congestion = wireless = 0
    for i, trace in enumerate(result.traces):
        rows = [(r.t, r.cwnd, r.event_type, r.loss_class, r.n, r.rott_i)
                for r in trace]
        errs, c, w = checks.check_flow_trace(rows, sc.policy, min_rtt,
                                             f"{where} flow {i}")
        ctrl = result.controllers[i]
        if (c, w) != (ctrl.congestion_events, ctrl.wireless_events):
            errs.append(f"{where} flow {i}: trace has {c}/{w} congestion/"
                        f"wireless events, controller counts "
                        f"{ctrl.congestion_events}/{ctrl.wireless_events}")
        errors += errs
        congestion += c
        wireless += w
    return errors, congestion, wireless


class Workload:
    """Defaults shared by the workloads."""

    name = ""
    fail_verdicts = 0   # validate-loss FAIL verdicts in the checked round
    over_ceiling = 0    # runs whose window throughput exceeds
    #                     min(offered, wireless rate); see CHANGES.md

    def late_check(self, parsed, art_dir, expected_digest):
        """Checks that need their own round; none by default."""
        return []


class PairCongested(Workload):
    name = "pair_congested"

    def write_inputs(self, seed, input_dir):
        with open(os.path.join(input_dir, "pair.cfg"), "w",
                  encoding="utf-8") as fh:
            fh.write(PAIR_CFG.format(seed=seed))

    def operate(self, parsed, art_dir):
        from zigzagsim import harness, metrics
        baseline_sc, zigzag_sc = parsed
        try:
            baseline = harness.run_scenario(baseline_sc)
            zigzag = harness.run_scenario(zigzag_sc)
            row = metrics.summarize(baseline, zigzag)
        except Exception:  # a failed operation is counted, not fatal
            return Outcome(1, 1, None, [f"{self.name}: {_failure()}"])
        return Outcome(1, 0, (baseline, zigzag, row))

    def digest(self, outcome, art_dir):
        if outcome.data is None:
            return None
        delivery, trace = hashlib.sha256(), hashlib.sha256()
        for result in outcome.data[:2]:
            for fs in result.flows:
                delivery.update(array("d", fs.delivery_times).tobytes())
            for flow in result.traces:
                trace.update(array("d", [
                    x for r in flow
                    for x in (r.t, r.cwnd, r.rott_i, r.rott_mean, r.rott_dev)
                ]).tobytes())
                trace.update("".join(
                    f"{r.flow_id},{r.phase},{r.event_type},{r.loss_class},"
                    f"{r.n};" for r in flow).encode())
        return {"delivery": delivery.hexdigest(), "trace": trace.hexdigest(),
                "summary": repr(outcome.data[2].as_row())}

    def check(self, outcome, parsed, art_dir):
        """Returns (errors, packets delivered in the round)."""
        if outcome.data is None:
            return [], 0
        baseline, zigzag, row = outcome.data
        errors = []
        events = {}
        self.over_ceiling = 0
        for result in (baseline, zigzag):
            policy = result.scenario.policy
            where = f"{self.name} {policy}"
            errs, events[policy, "congestion"], events[policy, "wireless"] = \
                check_run(result, where)
            errors += errs
            sc = result.scenario
            times = [t for f in result.flows for t in f.delivery_times]
            tput = checks.window_throughput(times, sc.packet_size_bytes,
                                            sc.warmup_s, sc.duration_s)
            reported = getattr(row, f"mean_throughput_{policy}_bps")
            errs, over = checks.check_throughput(
                tput, reported, sc,
                sum(1 for t in times if t <= sc.warmup_s), where,
                checks.TOL * reported)
            errors += errs
            self.over_ceiling += over
        counted = (row.congestion_baseline, row.congestion_zigzag,
                   row.wireless_zigzag, row.halve_violations)
        recounted = (events["baseline", "congestion"],
                     events["zigzag", "congestion"],
                     events["zigzag", "wireless"], 0)
        if counted != recounted:
            errors.append(f"{self.name}: summary counts {counted}, "
                          f"recounted {recounted}")
        errors += checks.check_prefix(baseline.loss_trace, zigzag.loss_trace,
                                      self.name)
        delivered = sum(f.delivered for r in (baseline, zigzag)
                        for f in r.flows)
        return errors, delivered


ARTIFACT = re.compile(
    r"^(?P<kind>[a-z]+)_plr(?P<plr>[0-9.]+)pct_(?P<flows>\d+)f_.*"
    r"seed(?P<seed>\d+)_(?P<policy>baseline|zigzag)_(?P<what>series|trace)"
    r"\.csv$")


def _template_key(sc):
    """(kind, PLR % to 3 decimals, flows, seed), computed by the benchmark."""
    loss = sc.loss
    plr = loss.p / (loss.p + loss.q) if loss.kind == "gilbert" else loss.plr
    return loss.kind, f"{100.0 * plr:.3f}", sc.flow_count, sc.seed


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class CampaignArtifacts(Workload):
    name = "campaign_artifacts"
    delivered = 0   # packets delivered in a round, counted from the series

    def write_inputs(self, seed, input_dir):
        with open(os.path.join(input_dir, "matrix.cfg"), "w",
                  encoding="utf-8") as fh:
            fh.write(MATRIX_CFG.format(seed=seed))

    def operate(self, parsed, art_dir):
        # what `zigzagsim matrix --out` does after parsing its spec
        from zigzagsim import cli, metrics
        rows, failures = cli.run_matrix(parsed, art_dir, jobs=1)
        metrics.write_summary_csv(os.path.join(art_dir, "summary.csv"), rows)
        return Outcome(len(parsed), len(failures), rows,
                       [f"{self.name}: {err}" for err in failures])

    def digest(self, outcome, art_dir):
        h = hashlib.sha256()
        for name in sorted(os.listdir(art_dir)):
            h.update(name.encode() + b"\0")
            with open(os.path.join(art_dir, name), "rb") as fh:
                h.update(fh.read())
        return {"artifacts": h.hexdigest(),
                "summary": repr([r.as_row() for r in outcome.data])}

    def check(self, outcome, parsed, art_dir):
        """Checks on the written artefacts; returns (errors, delivered)."""
        errors = []
        self.over_ceiling = 0
        by_key = {_template_key(sc): sc for sc in parsed}
        files = {}
        for name in os.listdir(art_dir):
            m = ARTIFACT.match(name)
            if m:
                key = (m["kind"], m["plr"], int(m["flows"]), int(m["seed"]))
                files[key, m["policy"], m["what"]] = name
        if len(files) != 4 * len(parsed):
            errors.append(f"{self.name}: {len(files)} series/trace files "
                          f"for {2 * len(parsed)} runs, expected "
                          f"{4 * len(parsed)}")
        summary = _read_csv(os.path.join(art_dir, "summary.csv"))
        if [[str(v) for v in r.as_row()] for r in outcome.data] != \
                [list(r.values()) for r in summary]:
            errors.append(f"{self.name}: summary.csv differs from the rows "
                          "run_matrix returned")
        delivered = 0
        for srow in summary:
            key = (srow["loss_kind"], f"{float(srow['plr_pct']):.3f}",
                   int(srow["flow_count"]), int(srow["seed"]))
            sc = by_key.get(key)
            if sc is None:
                errors.append(f"{self.name}: summary row {key} matches no "
                              "scenario of the spec")
                continue
            min_rtt = checks.base_rtt(sc.packet_size_bytes,
                                      sc.feedback_size_bytes)
            events = {}
            for policy in ("baseline", "zigzag"):
                where = f"{self.name} {key} {policy}"
                series = files.get((key, policy, "series"))
                trace = files.get((key, policy, "trace"))
                if series is None or trace is None:
                    errors.append(f"{where}: artefact missing")
                    continue
                tput, n, by_warmup = self._series_throughput(
                    os.path.join(art_dir, series), sc)
                delivered += n
                reported = float(srow[f"mean_throughput_{policy}_bps"])
                errs, over = checks.check_throughput(
                    tput, reported, sc, by_warmup, where, 0.01)
                errors += errs
                self.over_ceiling += over
                errs, events[policy] = self._trace_checks(
                    os.path.join(art_dir, trace), policy, min_rtt, where)
                errors += errs
            if len(events) == 2:
                counted = (int(srow["congestion_baseline"]),
                           int(srow["congestion_zigzag"]),
                           int(srow["wireless_zigzag"]),
                           int(srow["halve_violations"]))
                recounted = (events["baseline"][0], events["zigzag"][0],
                             events["zigzag"][1], 0)
                if counted != recounted:
                    errors.append(f"{self.name} {key}: summary counts "
                                  f"{counted}, recounted {recounted}")
        self.delivered = delivered
        return errors, delivered

    @staticmethod
    def _series_throughput(path, sc):
        """From a series CSV: window throughput, packets delivered, and
        packets delivered by the warm-up."""
        rows = [(float(r["t_bucket_start"]), float(r["throughput_bps"]))
                for r in _read_csv(path)]
        width = rows[1][0] - rows[0][0] if len(rows) > 1 else sc.duration_s
        window_bits = sum(bps * width for start, bps in rows
                          if sc.warmup_s <= start < sc.duration_s)
        early_bits = sum(bps * width for start, bps in rows
                         if start < sc.warmup_s)
        all_bits = sum(bps * width for _, bps in rows)
        packet_bits = 8 * sc.packet_size_bytes
        return (window_bits / (sc.duration_s - sc.warmup_s),
                round(all_bits / packet_bits), round(early_bits / packet_bits))

    @staticmethod
    def _trace_checks(path, policy, min_rtt, where):
        flows = {}
        for r in _read_csv(path):
            flows.setdefault(r["flow_id"], []).append(
                (float(r["t"]), float(r["cwnd"]), r["event_type"],
                 r["loss_class"], int(r["n"]), float(r["rott_i"])))
        errors = []
        congestion = wireless = 0
        for flow_id, rows in flows.items():
            errs, c, w = checks.check_flow_trace(
                rows, policy, min_rtt, f"{where} flow {flow_id}",
                checks.CSV_TOL)
            errors += errs
            congestion += c
            wireless += w
        return errors, (congestion, wireless)

    def late_check(self, parsed, art_dir, expected_digest):
        """One more round with every RunResult captured as it returns.

        Run after the timed rounds, so that peak memory is theirs alone.
        Checks conservation and the wireless drop prefix of each pair, the
        delivery count read from the series CSVs, and that the round
        reproduces the timed rounds' artefacts.
        """
        from zigzagsim import cli
        errors = []
        pending = {}
        delivered = []
        run_scenario = cli.run_scenario

        def capture(sc, *args, **kwargs):
            result = run_scenario(sc, *args, **kwargs)
            where = f"{self.name} {_template_key(sc)} {sc.policy}"
            errors.extend(check_run(result, where)[0])
            delivered.append(sum(f.delivered for f in result.flows))
            if sc.policy == "baseline":
                pending[sc.key()] = result.loss_trace
            else:
                errors.extend(checks.check_prefix(pending.pop(sc.key()),
                                                  result.loss_trace, where))
            return result

        cli.run_scenario = capture
        try:
            outcome = self.operate(parsed, art_dir)
        finally:
            cli.run_scenario = run_scenario
        if self.digest(outcome, art_dir) != expected_digest:
            errors.append(f"{self.name}: check round wrote other artefacts")
        if sum(delivered) != self.delivered:
            errors.append(f"{self.name}: runs delivered {sum(delivered)} "
                          f"packets, the series CSVs {self.delivered}")
        return errors


_REPORT = {
    "plr": re.compile(r"empirical PLR\s+([0-9.]+)%"),
    "analytic_plr": re.compile(r"analytic\s+PLR\s+([0-9.]+)%"),
    "burst": re.compile(r"empirical burst\s+([0-9.]+)"),
    "analytic_burst": re.compile(r"analytic\s+burst\s+([0-9.]+)"),
    "cond": re.compile(r"P\(drop\|drop\)\s+([0-9.]+)"),
    "verdict": re.compile(r"verdict\s+(PASS|FAIL)"),
}


class LossValidate(Workload):
    name = "loss_validate"

    def write_inputs(self, seed, input_dir):
        with open(os.path.join(input_dir, "validate.args"), "w",
                  encoding="utf-8") as fh:
            for p, q in LOSS_COUPLES:
                for i in range(LOSS_SEEDS_PER_COUPLE):
                    fh.write(f"validate-loss --p {p} --q {q} "
                             f"--n {LOSS_PACKETS} "
                             f"--seed {seed * LOSS_SEEDS_PER_COUPLE + i}\n")

    def operate(self, parsed, art_dir):
        from zigzagsim import cli
        results, errors = [], []
        for args in parsed:
            lines = []
            try:
                ok = cli.validate_loss_model(args.p, args.q, args.n,
                                             args.seed, report=lines.append)
            except Exception:  # a failed operation is counted, not fatal
                errors.append(f"{self.name}: {_failure()}")
                results.append(None)
                continue
            results.append((lines, ok))
        return Outcome(len(parsed), len(errors), results, errors)

    def digest(self, outcome, art_dir):
        return {"reports": hashlib.sha256(
            repr(outcome.data).encode()).hexdigest()}

    def check(self, outcome, parsed, art_dir):
        """Recount each trace; returns (errors, loss-model draws)."""
        from zigzagsim import kernel, loss
        errors = []
        draws = 0
        self.fail_verdicts = 0
        for args, res in zip(parsed, outcome.data):
            if res is None:
                continue
            lines, ok = res
            p, q = args.p, args.q
            where = f"{self.name} p={p} q={q} seed={args.seed}"
            # the same draws validate_loss_model made, recounted here
            drops = loss.simulate_trace(loss.GilbertElliottModel(p, q),
                                        kernel.RngStream(args.seed)
                                        .substream("loss"), args.n)
            stats = checks.drop_statistics(drops)
            del drops
            draws += stats["packets"]
            errors += checks.check_gilbert_statistics(stats, p, q, where)
            pi, burst = p / (p + q), 1.0 / q
            rule = (abs(stats["plr"] - pi) <= VERDICT_REL_TOL * pi
                    and abs(stats["mean_burst"] - burst)
                    <= VERDICT_REL_TOL * burst)
            text = "\n".join(lines)
            found = {k: rx.search(text) for k, rx in _REPORT.items()}
            if not all(found.values()):
                errors.append(f"{where}: report lacks a statistic")
                continue
            printed = {k: float(m[1]) for k, m in found.items()
                       if k != "verdict"}
            want = {"plr": 100 * stats["plr"], "analytic_plr": 100 * pi,
                    "burst": stats["mean_burst"], "analytic_burst": burst,
                    "cond": stats["p_drop_given_drop"]}
            for k, v in want.items():
                if abs(printed[k] - v) > 5.01e-5:
                    errors.append(f"{where}: reported {k} {printed[k]}, "
                                  f"recounted {v:.6f}")
            if (found["verdict"][1] == "PASS") != ok or ok != rule:
                errors.append(f"{where}: verdict {found['verdict'][1]} / "
                              f"{ok}, the 5 % rule on the recount gives "
                              f"{rule}")
            self.fail_verdicts += not ok
        return errors, draws


WORKLOADS = {w.name: w for w in (PairCongested(), CampaignArtifacts(),
                                 LossValidate())}
