"""Spans around the public entry points of each zigzagsim layer.

Nothing in ``src/`` is edited: each entry point is replaced, where its
caller looks it up, by a wrapper that times the call.  Spans are
aggregated by name (count, total, self) so memory stays bounded however
many events a run dispatches.  A span's self time is its duration minus
the durations of the spans it directly contains; the layer of a span is
the part of its name before the first dot.
"""

import time
from collections import Counter

EVENT_TAGS = ("gen", "link", "wless", "fb", "rto")
LAYERS = ("kernel", "harness", "control", "loss", "metrics", "cli", "scenario")


class Tracer:
    """Aggregated spans plus exact counters, kept in memory.

    A span's wrapper costs time of its own: some inside the interval it
    measures, some outside it (charged to the parent span), and wrapping
    each scheduled action costs the span that schedules it.  ``costs``
    holds those three per-call costs, measured by ``calibrate``; self times
    are reported with them removed, and their sum as ``span_overhead_s``.
    """

    def __init__(self, costs=(0.0, 0.0, 0.0)):
        self.costs = costs
        self.agg = {}             # name -> [calls, total_s, self_s,
        #                                    child calls, actions wrapped]
        self.counts = Counter()   # exact counters recorded at the boundaries
        # per open span, innermost last; index 0 is the root, the parent of
        # top-level spans.  Parallel lists of floats and ints, so that a
        # span allocates nothing the garbage collector tracks.
        self._child_s = [0.0]
        self._kids = [0]
        self._wraps = [0]

    def wrap(self, name, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        rec = self.agg.setdefault(name, [0, 0.0, 0.0, 0, 0])
        child_s, kids, wraps = self._child_s, self._kids, self._wraps
        clock = time.perf_counter

        def span(*args, **kwargs):
            child_s.append(0.0)
            kids.append(0)
            wraps.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child_s.pop()
                rec[3] += kids.pop()
                rec[4] += wraps.pop()
                child_s[-1] += dur
                kids[-1] += 1
        return span

    def wrap_action(self, tag, action):
        """Wrap an event's action in a span named after its tag."""
        self._wraps[-1] += 1
        return self.wrap(f"harness.{tag or 'event'}", action)

    def _cost(self, rec):
        inside, outside, action = self.costs
        return rec[0] * inside + rec[3] * outside + rec[4] * action

    def total(self, name):
        """Summed duration of ``name`` less the wrapper costs of its spans
        and of their direct children."""
        rec = self.agg.get(name)
        return rec[1] - self._cost(rec) - rec[3] * self.costs[0] \
            if rec else 0.0

    def calls(self, name):
        return self.agg.get(name, (0,))[0]

    def self_time(self, prefix):
        """Self time, less wrapper costs, of the spans named ``prefix*``."""
        return sum(rec[2] - self._cost(rec) for name, rec in self.agg.items()
                   if name.startswith(prefix))

    @property
    def span_overhead_s(self):
        """Wrapper costs removed from the self times, plus those of the
        top-level spans."""
        return sum(map(self._cost, self.agg.values())) \
            + self._cost([0, 0.0, 0.0, self._kids[0], self._wraps[0]])


def _noop(*args):
    return None


def calibrate(calls=100_000, repeats=5):
    """Per-call wrapper costs (inside, outside, action), the least of
    ``repeats`` measurements of wrapped and direct no-op calls."""
    clock = time.perf_counter
    best = [float("inf")] * 3
    for _ in range(repeats):
        tracer = Tracer()
        inner = tracer.wrap("inner", _noop)
        t0 = clock()
        for _ in range(calls):
            _noop()
        direct = clock() - t0

        def spanned():
            for _ in range(calls):
                inner()

        tracer.wrap("outer", spanned)()
        t0 = clock()
        for _ in range(calls):
            tracer.wrap_action("gen", _noop)
        wrapping = clock() - t0
        measured = (tracer.agg["inner"][1] / calls,
                    (tracer.agg["outer"][2] - direct) / calls,
                    (wrapping - direct) / calls)
        best = [min(b, m) for b, m in zip(best, measured)]
    return tuple(best)


class Patches:
    """Attribute replacements that are undone together."""

    def __init__(self):
        self._saved = []

    def set(self, obj, attr, value):
        self._saved.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def undo(self):
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)


def instrument(tracer):
    """Wrap every layer boundary in spans; returns the Patches to undo.

    Simulation runs are switched to ``log_events=True`` so that event
    counts by tag come from the kernel's own event log; the log is counted
    and released inside a ``trace.count`` span when each run returns.
    """
    from zigzagsim import (cli, control, harness, kernel, loss, metrics,
                           scenario)

    p = Patches()
    wrap = tracer.wrap
    counts = tracer.counts

    # kernel: the event loop, scheduling, and every dispatched action,
    # which is harness code named after its event tag
    sim = kernel.Simulator
    sched_at = wrap("kernel.schedule_at", sim.schedule_at)

    def schedule_at(self, fire_at, action, tag=""):
        return sched_at(self, fire_at, tracer.wrap_action(tag, action), tag)

    p.set(sim, "schedule_at", schedule_at)
    p.set(sim, "run_until", wrap("kernel.run_until", sim.run_until))

    # harness: building and running the topology
    net = harness.Network
    build = wrap("harness.build", net.__init__)

    def network_init(self, scenario_, log_events=False):
        build(self, scenario_, log_events=True)

    run = wrap("harness.run", net.run)
    count_run = wrap("trace.count", lambda network, result:
                     _count_run(counts, network, result))

    def network_run(self):
        result = run(self)
        count_run(self, result)
        return result

    p.set(net, "__init__", network_init)
    p.set(net, "run", network_run)
    p.set(harness, "run_scenario",
          wrap("harness.run_scenario", harness.run_scenario))
    p.set(cli, "run_scenario", wrap("harness.run_scenario", cli.run_scenario))

    # control: what the harness calls on each ACK and loss event.  The
    # accessors allowed_in_flight, phase and estimate_rott do less work
    # than a span costs, so they stay unwrapped and count to their caller,
    # as does Simulator.schedule, which only forwards to schedule_at.
    ctrl = control.CongestionController
    for attr in ("__init__", "on_ack", "on_loss_event"):
        p.set(ctrl, attr, wrap(f"control.{attr}", getattr(ctrl, attr)))
    p.set(control, "classify_loss",
          wrap("control.classify_loss", control.classify_loss))
    p.set(harness, "TraceRecord", wrap("control.TraceRecord",
                                       harness.TraceRecord))
    p.set(harness, "LossEvent", wrap("control.LossEvent", harness.LossEvent))
    p.set(control.TraceRecord, "as_row",
          wrap("control.as_row", control.TraceRecord.as_row))

    # loss: per-packet draws on the wireless hop, trace generation and
    # statistics for validate-loss
    spec_build = wrap("scenario.LossSpec.build", scenario.LossSpec.build)

    def loss_build(self):
        model = spec_build(self)
        if model is not None:
            model.should_drop = wrap("loss.should_drop", model.should_drop)
        return model

    p.set(scenario.LossSpec, "build", loss_build)
    simulate = wrap("loss.simulate_trace", loss.simulate_trace)

    def simulate_trace(model, rng, count):
        counts["loss.trace_draws"] += count
        return simulate(model, rng, count)

    p.set(loss, "simulate_trace", simulate_trace)
    for attr in ("trace_statistics", "steady_state_plr", "mean_burst_length"):
        p.set(loss, attr, wrap(f"loss.{attr}", getattr(loss, attr)))

    # metrics: summaries and CSV writers, as cli and the benchmark call them
    for attr in ("summarize", "throughput_series", "write_series_csv",
                 "write_controller_trace_csv", "write_summary_csv"):
        p.set(metrics, attr, wrap(f"metrics.{attr}", getattr(metrics, attr)))

    # scenario: parsing and validation
    for attr in ("load_scenario", "parse_scenario_text"):
        p.set(scenario, attr, wrap(f"scenario.{attr}",
                                   getattr(scenario, attr)))
    for attr in ("validate", "with_policy"):
        p.set(scenario.Scenario, attr, wrap(f"scenario.{attr}",
                                            getattr(scenario.Scenario, attr)))

    # cli: the entry points the benchmark calls
    for attr in ("load_matrix_spec", "expand_matrix", "run_matrix",
                 "validate_loss_model", "build_parser"):
        p.set(cli, attr, wrap(f"cli.{attr}", getattr(cli, attr)))
    return p


def _count_run(counts, network, result):
    log = network.sim.event_log
    for tag, n in Counter(entry[2] for entry in log).items():
        counts[f"kernel.events.{tag}"] += n
    network.sim.event_log = None
    counts["harness.runs"] += 1
    counts["harness.delivered"] += sum(f.delivered for f in result.flows)
    counts["harness.timeouts"] += sum(f.timeouts for f in result.flows)
    counts["control.trace_records"] += sum(len(t) for t in result.traces)


def layer_metrics(tracer, parse_s, wall_s):
    """Per-layer figures of one traced round; every ratio names its base."""
    c = tracer.counts
    t = tracer
    events = sum(c[f"kernel.events.{tag}"] for tag in EVENT_TAGS)
    delivered = c["harness.delivered"]
    acks = t.calls("control.on_ack")
    draws = t.calls("loss.should_drop") + c["loss.trace_draws"]
    selfs = {layer: t.self_time(layer + ".") for layer in LAYERS}
    bookkeeping = t.self_time("trace.")
    overhead = t.span_overhead_s

    def ratio(num, base, scale=1.0):
        return scale * num / base if base else 0.0

    out = {
        "kernel.events": events,
        **{f"kernel.events.{tag}": c[f"kernel.events.{tag}"]
           for tag in EVENT_TAGS},
        "kernel.events_per_pkt": ratio(events, delivered),
        "kernel.self_s": selfs["kernel"],
        "kernel.ns_per_event": ratio(selfs["kernel"], events, 1e9),
        "harness.self_s": selfs["harness"],
        "harness.us_per_pkt": ratio(selfs["harness"], delivered, 1e6),
        "harness.rto_fired_ratio": ratio(c["harness.timeouts"],
                                         c["kernel.events.rto"]),
        "harness.build_s": t.total("harness.build"),
        "harness.delivered": delivered,
        "harness.timeouts": c["harness.timeouts"],
        "control.self_s": selfs["control"],
        "control.ns_per_ack": ratio(selfs["control"], acks, 1e9),
        "control.acks": acks,
        "control.loss_events": t.calls("control.on_loss_event"),
        "control.trace_records": c["control.trace_records"],
        "loss.self_s": selfs["loss"],
        "loss.ns_per_draw": ratio(t.self_time("loss.should_drop")
                                  + t.self_time("loss.simulate_trace"),
                                  draws, 1e9),
        "loss.draws": draws,
        "loss.stats_s": t.total("loss.trace_statistics"),
        "metrics.summarize_s": t.total("metrics.summarize"),
        "metrics.write_s": sum(t.total(name) for name in t.agg
                               if name.startswith("metrics.write_")),
        "metrics.self_s": selfs["metrics"],
        "cli.self_s": selfs["cli"],
        "scenario.parse_s": parse_s,
        "scenario.self_s": selfs["scenario"],
        "trace.wall_s": wall_s,
        "trace.bookkeeping_s": bookkeeping,
        "trace.span_overhead_s": overhead,
        "trace.remainder_s": (wall_s - sum(selfs.values()) - bookkeeping
                              - overhead),
    }
    bases = {
        "kernel.events_per_pkt": ("kernel.events", "harness.delivered"),
        "kernel.ns_per_event": ("kernel.self_s", "kernel.events"),
        "harness.us_per_pkt": ("harness.self_s", "harness.delivered"),
        "harness.rto_fired_ratio": ("harness.timeouts", "kernel.events.rto"),
        "control.ns_per_ack": ("control.self_s", "control.acks"),
        "loss.ns_per_draw": ("loss.should_drop + loss.simulate_trace self",
                             "loss.draws"),
    }
    return out, bases


def exact_counts(tracer):
    """The counts that must repeat exactly between traced rounds and runs."""
    counts = {k: v for k, v in tracer.counts.items()}
    counts.update({f"calls.{name}": rec[0]
                   for name, rec in tracer.agg.items() if rec[0]})
    return dict(sorted(counts.items()))
