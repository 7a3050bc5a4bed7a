"""Exact metamorphic relations between two runs of the simulator.

Each relation says how the outputs of two runs with related inputs must
relate, so it checks the program without a pinned output or a second
implementation (metamorphic testing: Chen, Cheung & Yiu, "Metamorphic
testing: a new approach for generating next test cases", HKUST CS98-01,
1998).  They still hold when a change moves every golden pin on purpose.

The relations are exact: runs that must agree compare their trace rows,
delivery times, per-flow counters, drop flags and queue-drop logs byte
for byte.  Three of them hold only under a condition on the first run
(no wireless call, no queue drop, no loss event of n >= 5).  Their
scenarios are drawn so that most meet it, not filtered; each test prints
how many examples it checked and requires at least MIN_CHECKED.
"""

from hypothesis import given, settings, strategies as st

from zigzagsim.control import ROW
from zigzagsim.harness import run_scenario
from zigzagsim.scenario import LossSpec, Scenario

EXAMPLES = 40
MIN_CHECKED = 10

RELATION = settings(max_examples=EXAMPLES, derandomize=True, deadline=None)

def scenarios(**fixed):
    """Short scenarios, 20 s or less, of every kind of run: 1-6 flows below
    and above the wireless bottleneck, both policies, both readings of
    the n >= 4 rule and all three loss kinds.  ``fixed`` maps a field to
    a strategy that replaces its own."""
    fields = dict(
        flow_count=st.integers(1, 6),
        aggregate_rate_bps=st.floats(5.0e4, 1.5e6),
        loss=st.one_of(
            st.builds(LossSpec, st.just("gilbert"), p=st.floats(0.0, 0.05),
                      q=st.floats(0.2, 1.0)),
            st.builds(LossSpec, st.just("uniform"), plr=st.floats(0.0, 0.05)),
            st.just(LossSpec())),
        policy=st.sampled_from(["baseline", "zigzag"]),
        duration_s=st.floats(4.0, 20.0),
        warmup_s=st.just(0.0),
        seed=st.integers(0, 2 ** 32),
        queue_capacity_pkts=st.integers(1, 100),
        packet_size_bytes=st.integers(500, 1500),
        alpha=st.floats(0.01, 0.49),
        strict_n4=st.booleans(),
        initial_ssthresh_pkts=st.floats(2.0, 60.0))
    fields.update(fixed)
    return st.builds(Scenario, **fields)


def outputs(result):
    """Everything a run records, in a form that compares exactly."""
    return ([trace.rows for trace in result.traces], result.flows,
            result.loss_trace[:], result.queue_drop_log)


def report(relation, checked, detail=""):
    """Print how many examples checked ``relation``; require MIN_CHECKED."""
    print(f"relation {relation}: {checked} of {EXAMPLES} examples "
          f"checked{detail}")
    assert checked >= MIN_CHECKED


def test_horizon_prefix():
    """A run to D is the run to a later horizon, cut at D: its trace rows,
    deliveries, drop flags and queue drops are prefixes of the longer
    run's, and what the longer run adds comes after D."""
    checked = []

    @RELATION
    @given(scenarios(), st.floats(0.3, 0.9))
    def relation(long_sc, fraction):
        cut = long_sc.duration_s * fraction
        short = run_scenario(long_sc._replace(duration_s=cut))
        long = run_scenario(long_sc)
        for before, after in zip(short.traces, long.traces):
            size = len(before.rows)
            assert after.rows[:size] == before.rows
            # the next row, if any, is that of an event after the cut
            if len(after.rows) > size:
                assert ROW.unpack_from(after.rows, size)[0] > cut
        for before, after in zip(short.flows, long.flows):
            n = before.delivered
            assert after.delivery_times[:n] == before.delivery_times
            assert after.delivered == n or after.delivery_times[n] > cut
        assert long.loss_trace[:len(short.loss_trace)] == short.loss_trace[:]
        n = len(short.queue_drop_log)
        assert long.queue_drop_log[:n] == short.queue_drop_log
        assert all(arrival > cut
                   for arrival, _flow, _seq in long.queue_drop_log[n:])
        checked.append(long_sc)

    relation()
    report("horizon prefix", len(checked))


def test_zero_loss_is_no_loss():
    """Gilbert loss with p = 0 and uniform loss with plr = 0 draw only
    zero flags, and their runs are the lossless run."""
    checked = []

    @RELATION
    @given(scenarios(loss=st.just(LossSpec())), st.floats(0.01, 1.0))
    def relation(lossless, q):
        rows, flows, flags, queue_drops = outputs(run_scenario(lossless))
        assert flags == b""
        for spec in LossSpec("gilbert", p=0.0, q=q), \
                LossSpec("uniform", plr=0.0):
            result = run_scenario(lossless._replace(loss=spec))
            # as many flags as admitted packets, each of them a zero byte
            assert outputs(result) == (rows, flows,
                                       bytes(len(result.loss_trace)),
                                       queue_drops)
        checked.append(lossless)

    relation()
    report("zero loss is no loss", len(checked))


def test_no_wireless_call_no_difference():
    """A zigzag run that classifies no loss as wireless is the baseline
    run.  Low loss and few flows make that the common case; the runs
    with loss events are the ones where the policies could differ."""
    checked, lossy = [], []

    @RELATION
    @given(scenarios(policy=st.just("zigzag"), flow_count=st.integers(1, 3)))
    def relation(zigzag_sc):
        zigzag = run_scenario(zigzag_sc)
        if zigzag.wireless_events:
            return
        baseline = run_scenario(zigzag_sc.with_policy("baseline"))
        assert outputs(zigzag) == outputs(baseline)
        checked.append(zigzag_sc)
        if zigzag.congestion_events:
            lossy.append(zigzag_sc)

    relation()
    report("no wireless call, no difference", len(checked),
           f", {len(lossy)} with loss events")


def test_unused_queue_capacity_is_irrelevant():
    """A run with no queue drop is unchanged when its queue is larger.
    Rates mostly below the 1.3 Mb/s bottleneck make that the common
    case."""
    checked = []

    @RELATION
    @given(scenarios(aggregate_rate_bps=st.floats(5.0e4, 1.2e6),
                     queue_capacity_pkts=st.integers(5, 100)),
           st.integers(1, 100))
    def relation(sc, extra):
        first = run_scenario(sc)
        if first.queue_drop_log:
            return
        larger = sc._replace(queue_capacity_pkts=sc.queue_capacity_pkts
                             + extra)
        assert outputs(run_scenario(larger)) == outputs(first)
        checked.append(sc)

    relation()
    report("unused queue capacity is irrelevant", len(checked))


def test_strict_n4_matters_only_past_n_4():
    """strict_n4 changes only the class of a zigzag loss event of n >= 5,
    so a baseline run, or a zigzag run with no loss event of n >= 5, is
    unchanged by it.  Short Gilbert bursts on 1-3 flows make such runs
    common, and many of them classify losses of n <= 4 as wireless."""
    checked, wireless = [], []

    @RELATION
    @given(scenarios(strict_n4=st.just(False), flow_count=st.integers(1, 3),
                     loss=st.builds(LossSpec, st.just("gilbert"),
                                    p=st.floats(0.005, 0.05),
                                    q=st.floats(0.25, 0.7))))
    def relation(sc):
        first = run_scenario(sc)
        if sc.policy == "zigzag" and any(
                kind >= 2 and n >= 5 for trace in first.traces
                for _t, _cwnd, kind, n, *_rott in trace.unpack()):
            return
        strict = run_scenario(sc._replace(strict_n4=True))
        assert outputs(strict) == outputs(first)
        checked.append(sc)
        if first.wireless_events:
            wireless.append(sc)

    relation()
    report("strict_n4 matters only past n = 4", len(checked),
           f", {len(wireless)} with a wireless call")
