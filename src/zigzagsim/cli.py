"""Command-line front end: single runs, the paired experiment matrix, and
loss-model validation."""

import itertools
import math
import os
import sys

from . import loss as loss_models
from .kernel import RngStream
# the simulation layers (control, harness, metrics) load only in the
# functions that run a simulation, so validate-loss never compiles them
from .scenario import (BASELINE, CONVERTERS, GILBERT, UNIFORM, ZIGZAG,
                       LossSpec, Scenario, ScenarioError, convert,
                       load_scenario, read_pairs)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_TOLERANCE = 3

# Table-style default campaign: the 19.8%-PLR couple is covered by
# validate-loss but not part of the comparison matrix.  These four axes
# stay outermost, in this order, so the default grid keeps its row order;
# any other axis of a spec varies inside them.
DEFAULT_GRID = {
    "loss.kind": [GILBERT, UNIFORM],
    "couples": [LossSpec(GILBERT, p=0.001, q=0.6),
                LossSpec(GILBERT, p=0.01, q=0.5),
                LossSpec(GILBERT, p=0.1, q=0.6)],
    "flow_count": [1, 5, 10],
    "aggregate_rate_bps": [1.0e6, 1.5e6],
}
SPEC_ALIASES = {"kinds": "loss.kind", "flows": "flow_count",
                "rates_bps": "aggregate_rate_bps"}

# validate-loss passes when the empirical PLR and mean burst are each
# within this fraction of p/(p+q) and 1/q
REL_TOL = 0.05


def _run_tag(scenario):
    import hashlib  # deferred: only artefact names and error tags use it
    plr = 100.0 * scenario.loss.analytic_plr
    # the digest tells apart scenarios that the readable part leaves equal
    digest = hashlib.sha256(repr(scenario.key()).encode()).hexdigest()[:8]
    return (f"{scenario.loss.kind}_plr{plr:.3f}pct_{scenario.flow_count}f_"
            f"{scenario.aggregate_rate_bps / 1e6:g}Mbps_{digest}_"
            f"seed{scenario.seed}_{scenario.policy}")


def run_scenario(scenario):
    """harness.run_scenario, under the name that run_pair and cmd_run call,
    which a caller may replace to see every run."""
    from . import harness
    return harness.run_scenario(scenario)


def _write_run_artifacts(out_dir, result):
    from . import metrics
    tag = _run_tag(result.scenario)
    series = metrics.throughput_series(result)
    metrics.write_series_csv(os.path.join(out_dir, f"{tag}_series.csv"),
                             series)
    metrics.write_controller_trace_csv(
        os.path.join(out_dir, f"{tag}_trace.csv"), result)
    return tag


def cmd_run(args):
    from . import metrics
    try:
        scenario = load_scenario(args.config)
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        os.makedirs(args.out, exist_ok=True)
        result = run_scenario(scenario)
        tag = _write_run_artifacts(args.out, result)
        tput, util = metrics.write_run_summary_csv(
            os.path.join(args.out, f"{tag}_summary.csv"), result)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"run complete: {tag} "
          f"(mean throughput {tput / 1e6:.4f} Mb/s, {util:.2f}% utilization)")
    return EXIT_OK


# -- matrix ------------------------------------------------------------


def _couple(text):
    p, sep, q = text.partition(":")
    if not sep:
        raise ValueError(f"expected p:q, got {text!r}")
    return LossSpec(GILBERT, p=float(p), q=float(q)).validate()


# every pair runs both policies over the loss that kinds x couples set
NOT_SPEC_KEYS = ("policy", "loss.p", "loss.q", "loss.plr")
SPEC_CONVERTERS = {**CONVERTERS, "couples": _couple,
                   **{alias: CONVERTERS[key]
                      for alias, key in SPEC_ALIASES.items()}}


def load_matrix_spec(path):
    """Parse a matrix spec: scenario keys, each with a comma-separated list
    of values; grid axes it leaves out keep DEFAULT_GRID's values."""
    spec = dict(DEFAULT_GRID)
    if path is None:
        return spec
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    for key, value in read_pairs(text, SPEC_ALIASES):
        if key in NOT_SPEC_KEYS:
            raise ScenarioError(f"{key}: not a matrix key; every pair runs "
                                "both policies, and kinds and couples set "
                                "the loss")
        values = [convert(key, item.strip(), SPEC_CONVERTERS)
                  for item in value.split(",") if item.strip()]
        # an empty axis runs no pair, and a repeated value runs one twice
        if not values:
            raise ScenarioError(f"{key}: no value")
        if len(set(values)) < len(values):
            raise ScenarioError(f"{key}: a value is repeated")
        spec[SPEC_ALIASES.get(key, key)] = values
    return spec


def expand_matrix(spec):
    """Expand a matrix spec into policy-free scenario templates, one per
    point of the product of its axes."""
    templates = []
    for values in itertools.product(*spec.values()):
        point = dict(zip(spec, values))
        kind = point.pop("loss.kind")
        couple = point.pop("couples")
        if kind == GILBERT:
            lspec = couple
        elif kind == UNIFORM:
            lspec = LossSpec(kind=UNIFORM, plr=couple.analytic_plr)
        else:
            raise ScenarioError(f"kinds: a matrix compares {GILBERT} or "
                                f"{UNIFORM} loss, not {kind!r}")
        template = Scenario(loss=lspec, **point).validate()
        # the uniform kind runs two couples with one p/(p+q) as one scenario
        if template in templates:
            raise ScenarioError("couples: two couples have the same p/(p+q), "
                                "so the uniform kind runs one pair twice")
        templates.append(template)
    return templates


def run_pair(template, out_dir=None):
    """Run one scenario under both policies and summarize the pair."""
    from . import metrics
    baseline = run_scenario(template.with_policy(BASELINE))
    zigzag = run_scenario(template.with_policy(ZIGZAG))
    if out_dir is not None:
        _write_run_artifacts(out_dir, baseline)
        _write_run_artifacts(out_dir, zigzag)
    return metrics.summarize(baseline, zigzag)


def _pair_worker(payload):
    template, out_dir = payload
    try:
        return run_pair(template, out_dir), None
    except Exception as exc:  # keep completed rows on partial failure
        return None, f"{_run_tag(template)}: {exc}"


def run_matrix(templates, out_dir, jobs=1):
    """Run every pair, return (rows in template order, failure messages)."""
    payloads = [(t, out_dir) for t in templates]
    # both return the outcomes in payload order
    if jobs > 1 and len(payloads) > 1:
        import multiprocessing  # deferred: only matrix --jobs N>1 uses it
        # loaded before the fork, so that no worker compiles them again
        from . import harness, metrics  # noqa: F401
        with multiprocessing.Pool(min(jobs, len(payloads))) as pool:
            outcomes = pool.map(_pair_worker, payloads)
    else:
        outcomes = [_pair_worker(p) for p in payloads]
    rows = [row for row, err in outcomes if err is None]
    failures = [err for _, err in outcomes if err is not None]
    return rows, failures


def cmd_matrix(args):
    from . import metrics
    if args.jobs < 1:
        print(f"error: --jobs: must be >= 1, got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    try:
        spec = load_matrix_spec(args.spec)
        templates = expand_matrix(spec)
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(args.out, exist_ok=True)
    rows, failures = run_matrix(templates, args.out, jobs=args.jobs)
    metrics.write_summary_csv(os.path.join(args.out, "summary.csv"), rows)
    print(f"matrix complete: {len(rows)} paired rows "
          f"({len(failures)} failures) -> {args.out}/summary.csv")
    for err in failures:
        print(f"failed: {err}", file=sys.stderr)
    return EXIT_RUNTIME if failures else EXIT_OK


# -- loss model validation ---------------------------------------------


def validate_loss_model(p, q, packet_count, seed, report=print):
    """Compare a simulated Gilbert trace against the analytic statistics.

    Returns True when the empirical PLR and mean burst length are within
    the documented tolerances of p/(p+q) and 1/q.
    """
    if packet_count < 10 ** 5:
        raise ValueError(f"--n must be >= 10^5, got {packet_count}")
    # rejects p outside [0, 1] and q outside (0, 1], so p + q > 0 below
    model = LossSpec(GILBERT, p=p, q=q).validate().build()
    analytic_burst = loss_models.mean_burst_length(q)
    analytic_plr = loss_models.steady_state_plr(p, q)
    rng = RngStream(seed).substream("loss")
    drops = loss_models.simulate_trace(model, rng, packet_count)
    stats = loss_models.trace_statistics(drops)
    # a chain with no variance (p = 0, or p = q = 1) has no z-score
    se = plr_standard_error(p, q, packet_count)
    z = f"{(stats['plr'] - analytic_plr) / se:+.2f}" if se else "n/a"
    report(f"gilbert p={p} q={q} packets={packet_count} seed={seed}")
    report(f"  empirical PLR      {100 * stats['plr']:.4f}%")
    report(f"  analytic  PLR      {100 * analytic_plr:.4f}%  (p/(p+q))")
    report(f"  PLR z-score        {z}  (standard errors from p/(p+q))")
    report(f"  empirical burst    {stats['mean_burst']:.4f}")
    burst_format = ".4f" if analytic_burst < 1e6 else ".4e"
    report(f"  analytic  burst    {analytic_burst:{burst_format}}  (1/q)")
    report(f"  P(drop|drop)       {stats['p_drop_given_drop']:.4f}  "
           f"(1-q = {1 - q:.4f})")
    if p == 0.0:
        ok = stats["plr"] == 0.0
    else:
        ok = abs(stats["plr"] - analytic_plr) <= REL_TOL * analytic_plr \
            and abs(stats["mean_burst"] - analytic_burst) \
            <= REL_TOL * analytic_burst
    report(f"  verdict            {'PASS' if ok else 'FAIL'}")
    return ok


def plr_standard_error(p, q, sample_size):
    """Asymptotic standard error of the empirical PLR of a 2-state chain."""
    pi = loss_models.steady_state_plr(p, q)
    variance = pi * (1.0 - pi) * (2.0 / (p + q) - 1.0) / sample_size
    return math.sqrt(variance)


def cmd_validate_loss(args):
    try:
        ok = validate_loss_model(args.p, args.q, args.n, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if ok else EXIT_TOLERANCE


def build_parser():
    import argparse  # deferred: library use never parses a command line
    parser = argparse.ArgumentParser(
        prog="zigzagsim",
        description="Wired-cum-wireless congestion control simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=cmd_run)

    p_matrix = sub.add_parser("matrix",
                              help="run the paired baseline/zigzag campaign")
    p_matrix.add_argument("--spec", default=None)
    p_matrix.add_argument("--out", required=True)
    p_matrix.add_argument("--jobs", type=int, default=1)
    p_matrix.set_defaults(func=cmd_matrix)

    p_val = sub.add_parser("validate-loss",
                           help="check Gilbert model statistics")
    p_val.add_argument("--p", type=float, required=True)
    p_val.add_argument("--q", type=float, required=True)
    p_val.add_argument("--n", type=int, default=10 ** 6)
    p_val.add_argument("--seed", type=int, default=1)
    p_val.set_defaults(func=cmd_validate_loss)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
