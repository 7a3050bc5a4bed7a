"""Benchmark of zigzagsim: end-to-end metrics, or per-layer metrics traced.

    python3 bench/run_bench.py --workload pair_congested --seed 1 \\
        --seconds 25 --trace 0

runs one checked, untimed round of the workload and then whole rounds for
``--seconds`` of measured time in this one process (no pool, no threads),
prints a table, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer
metrics from a separate traced run.  ``--workload all`` runs every
workload, each in a process of its own, one after the other.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("pair_congested", "campaign_artifacts", "loss_validate")
SETUP_SAMPLES = 9


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def setup_samples(workload, input_dir):
    """Seconds to import zigzagsim and parse the inputs, each sample in a
    fresh interpreter, started and waited for one after the other."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
             workload, input_dir],
            capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


class Run:
    """One benchmark invocation on one workload."""

    def __init__(self, workload, seed, seconds, work_dir):
        import setup_probe
        import workloads
        self.wl = workloads.WORKLOADS[workload]
        self.seconds = seconds
        self.input_dir = os.path.join(work_dir, "inputs")
        self.art_dir = os.path.join(work_dir, "artifacts")
        os.makedirs(self.input_dir)
        os.makedirs(self.art_dir)
        self.wl.write_inputs(seed, self.input_dir)
        self.setup = lambda: setup_probe.setup(workload, self.input_dir)
        self.parsed = self.setup()
        self.attempted = self.failed = 0
        self.failures = []   # operations that raised or reported failure
        self.errors = []     # outputs that failed a check
        self.work = 0
        self.digest = None
        self.rounds = 0

    def round(self, parsed):
        """Operate once, then check (first round) or compare digests.

        Returns the wall and CPU seconds of the operation alone.
        """
        gc.collect()
        t0, c0 = time.perf_counter(), time.process_time()
        outcome = self.wl.operate(parsed, self.art_dir)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.failures += outcome.failures
        digest = self.wl.digest(outcome, self.art_dir)
        if self.digest is None:
            errors, self.work = self.wl.check(outcome, parsed, self.art_dir)
            self.errors += errors
            self.digest = digest
        elif digest != self.digest:
            self.errors.append(f"round {self.rounds + 1}: outputs differ "
                               "from round 1")
        self.rounds += 1
        return wall, cpu

    def late_check(self):
        self.errors += self.wl.late_check(self.parsed, self.art_dir,
                                          self.digest)


def end_to_end(run):
    """Timed rounds with tracing off; returns metric name -> samples.

    A first round, checked and not timed, lets lazy set-up, memory arenas
    and the written files settle before timing starts.
    """
    run.round(run.parsed)
    walls, cpus = [], []
    while not walls or sum(walls) < run.seconds:
        wall, cpu = run.round(run.parsed)
        walls.append(wall)
        cpus.append(cpu)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.late_check()
    return {
        "wall_s": walls,
        "cpu_s": cpus,
        "pkts_per_s": [run.work / w for w in walls],
        "peak_mem_mb": [peak_mb],
        "setup_s": setup_samples(run.wl.name, run.input_dir),
    }


def csv_bytes(art_dir):
    return sum(os.path.getsize(os.path.join(art_dir, name))
               for name in os.listdir(art_dir) if name.endswith(".csv"))


def setup_and_round(run, tracer=None):
    """Wall seconds of parsing the inputs plus one round's operation, and
    the scenario layer's self time in the parse when ``tracer`` is given."""
    t0 = time.perf_counter()
    parsed = run.setup()
    setup_s = time.perf_counter() - t0
    parse_s = tracer.self_time("scenario.") if tracer else 0.0
    wall, _ = run.round(parsed)
    return setup_s + wall, parse_s


def traced_round(run, costs):
    """Set-up and one round with every layer boundary wrapped in spans."""
    import tracing
    tracer = tracing.Tracer(costs)
    patches = tracing.instrument(tracer)
    try:
        wall, parse_s = setup_and_round(run, tracer)
    finally:
        patches.undo()
    layers, bases = tracing.layer_metrics(tracer, parse_s, wall)
    layers["metrics.csv_bytes"] = csv_bytes(run.art_dir)
    return tracer, layers, bases


def memory_round(run):
    """Live MB by source file from a tracemalloc snapshot at the end of
    each pair, when both of its runs' results are live; the largest over
    the round's pairs."""
    import tracemalloc
    from zigzagsim import cli, harness
    live = {"harness.py": 0.0, "control.py": 0.0}

    def snapshotting(fn):
        def run_scenario(scenario, *args, **kwargs):
            result = fn(scenario, *args, **kwargs)
            if scenario.policy != "zigzag":
                return result
            for stat in tracemalloc.take_snapshot().statistics("filename"):
                path = stat.traceback[0].filename
                name = os.path.basename(path)
                if name in live and \
                        os.path.basename(os.path.dirname(path)) == "zigzagsim":
                    live[name] = max(live[name], stat.size / 2 ** 20)
            return result
        return run_scenario

    saved = harness.run_scenario, cli.run_scenario
    harness.run_scenario = snapshotting(saved[0])
    cli.run_scenario = snapshotting(saved[1])
    tracemalloc.start()
    try:
        run.round(run.setup())
    finally:
        tracemalloc.stop()
        harness.run_scenario, cli.run_scenario = saved
    return {"harness.live_mb": live["harness.py"],
            "control.live_mb": live["control.py"]}


def per_layer(run, spans_path):
    """Untraced and traced rounds in turn, then one memory round."""
    import tracing
    plain, traced = [], []
    exact = None
    costs = tracing.calibrate()
    print("span wrapper costs, ns per call: inside %.1f, outside %.1f, "
          "action wrap %.1f" % tuple(c * 1e9 for c in costs))
    while not traced or sum(plain) + sum(t["trace.wall_s"] for t in traced) \
            < run.seconds:
        plain.append(setup_and_round(run)[0])
        tracer, layers, bases = traced_round(run, costs)
        traced.append(layers)
        counts = tracing.exact_counts(tracer)
        if exact is None:
            exact = counts
            for tag in tracing.EVENT_TAGS:
                if counts.get(f"calls.harness.{tag}", 0) != \
                        counts.get(f"kernel.events.{tag}", 0):
                    run.errors.append(f"trace: {tag} actions dispatched "
                                      "differ from the event log")
        elif counts != exact:
            run.errors.append("trace: exact counts differ between rounds")
        with open(spans_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"round": len(traced), "costs": costs,
                                 "counts": counts, "spans": tracer.agg})
                     + "\n")
    metrics = {name: statistics.median(t[name] for t in traced)
               for name in traced[0]}
    metrics["trace.untraced_wall_s"] = statistics.median(plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] \
        - metrics["trace.untraced_wall_s"]
    if run.wl.name == "loss_validate":
        # no simulation run happens, so nothing is live at a run's end
        metrics.update({"harness.live_mb": 0.0, "control.live_mb": 0.0})
    else:
        metrics.update(memory_round(run))
    metrics["loss.fail_verdicts"] = run.wl.fail_verdicts
    run.late_check()
    return metrics, bases


def report(run, spec, trace, values, bases=None):
    """Print the table and return the metrics object for the JSON line."""
    print(f"{run.wl.name}: {run.rounds} rounds, {run.attempted} operations "
          f"attempted, {run.failed} failed")
    for msg in run.failures[:5]:
        print(f"  failed: {msg}")
    for msg in run.errors[:20]:
        print(f"  CHECK FAILED: {msg}")
    if run.wl.name == "loss_validate":
        print(f"  validate-loss verdicts in the checked round: "
              f"{run.wl.fail_verdicts} FAIL of {len(run.parsed)}")
    else:
        print(f"  runs whose window throughput exceeds min(offered, 1.3 Mb/s)"
              f" in the checked round: {run.wl.over_ceiling}")
    out = {}
    if trace:
        for m in spec["per_layer"]:
            name = m["name"]
            if name not in values:
                run.errors.append(f"per-layer metric {name} not produced")
                continue
            base = bases.get(name)
            note = f"  ({base[0]} / {base[1]})" if base else ""
            print(f"  {name:26s} {m['unit']:14s} {values[name]:.6g}{note}")
            out[name] = {"value": values[name], "unit": m["unit"]}
        return out
    print(f"  {'metric':14s} {'unit':5s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s}  samples")
    for m in spec["end_to_end"]:
        name = m["name"]
        q1, med, q3 = quartiles(values[name])
        print(f"  {name:14s} {m['unit']:5s} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g}  {len(values[name])}")
        out[name] = {"value": med, "unit": m["unit"]}
    return out


def run_all(args):
    """Every workload, each in a process of its own, one after another."""
    results = {}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zigzagsim", "__init__.py")):
        print(f"error: no zigzagsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    spec = load_spec()
    work_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    run = Run(args.workload, args.seed, args.seconds, work_dir)
    if args.trace:
        values, bases = per_layer(run, os.path.join(work_dir, "spans.jsonl"))
    else:
        values, bases = end_to_end(run), None
    metrics = report(run, spec, args.trace, values, bases)
    print(f"  digest {json.dumps(run.digest)[:200]}")
    result = {"correct": not run.errors, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    with open(os.path.join(work_dir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**result, "samples": values, "digest": run.digest,
                   "errors": run.errors, "failures": run.failures,
                   "fail_verdicts": run.wl.fail_verdicts,
                   "over_ceiling": run.wl.over_ceiling,
                   "python": sys.version, "seed": args.seed,
                   "seconds": args.seconds}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
