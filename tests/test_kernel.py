import hashlib
import heapq

import pytest
from hypothesis import given, settings, strategies as st

from zigzagsim.kernel import RngStream, Simulator


def record(log, tag):
    return lambda: log.append(tag)


def test_schedule_at_zero_fires_before_later_events():
    sim = Simulator()
    log = []
    sim.schedule_at(1.0, record(log, "late"))
    sim.schedule_at(0.0, record(log, "now"))
    sim.run_until(2.0)
    assert log == ["now", "late"]


def test_equal_time_events_fire_in_insertion_order():
    sim = Simulator()
    log = []
    sim.schedule_at(2.0, record(log, "first"))
    sim.schedule_at(2.0, record(log, "second"))
    sim.schedule_at(1.0, record(log, "early"))
    count = sim.run_until(5.0)
    assert log == ["early", "first", "second"]
    assert count == 3


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule_at(1.0, lambda: None)
    sim.run_until(5.0)
    with pytest.raises(ValueError, match="cannot schedule at t=4.0"):
        sim.schedule_at(4.0, lambda: None)
    # NaN compares false with everything, so it must not slip past the
    # check and stall the heap
    with pytest.raises(ValueError, match="cannot schedule at t=nan"):
        sim.schedule_at(float("nan"), lambda: None)


def test_run_until_nan_rejected_and_clock_kept():
    # a NaN horizon would dispatch nothing and leave the clock at NaN, after
    # which every schedule_at fails
    sim = Simulator()
    log = []
    sim.run_until(2.0)
    sim.schedule_at(3.0, record(log, "queued"))
    with pytest.raises(ValueError, match="cannot run to t=nan"):
        sim.run_until(float("nan"))
    assert sim.now == 2.0
    assert sim.run_until(5.0) == 1
    assert log == ["queued"]


def test_run_until_empty_queue_advances_clock():
    sim = Simulator()
    assert sim.run_until(500.0) == 0
    assert sim.now == 500.0


def test_event_scheduled_during_dispatch_is_dispatched():
    sim = Simulator()
    log = []

    def reentrant():
        log.append("t1")
        sim.schedule_at(1.5, record(log, "t1.5"))

    sim.schedule_at(1.0, reentrant)
    sim.run_until(2.0)
    assert log == ["t1", "t1.5"]


def test_causality_clock_matches_fire_time():
    sim = Simulator()
    seen = []
    for t in (0.5, 1.25, 3.0):
        sim.schedule_at(t, lambda t=t: seen.append((t, sim.now)))
    sim.run_until(10.0)
    assert all(fire == now for fire, now in seen)


def test_clock_monotone_nondecreasing():
    sim = Simulator()
    times = []
    sim.schedule_at(1.0, lambda: times.append(sim.now))
    sim.schedule_at(1.0, lambda: times.append(sim.now))
    sim.schedule_at(2.0, lambda: times.append(sim.now))
    sim.run_until(3.0)
    assert times == sorted(times)


def test_event_due_before_the_lane_tail_goes_to_the_heap():
    sim = Simulator()
    log = []
    for t in (1.0, 3.0, 2.0, 3.0, 0.5):
        sim.schedule_at(t, record(log, t))
    assert [entry[0] for entry in sim._lane] == [1.0, 3.0, 3.0]
    assert sorted(entry[0] for entry in sim._heap) == [0.5, 2.0]
    assert sim.run_until(2.5) == 3
    assert log == [0.5, 1.0, 2.0]
    # the lane's tail is still 3.0, so an earlier event keeps to the heap
    sim.schedule_at(2.75, record(log, 2.75))
    sim.run_until(5.0)
    assert log == [0.5, 1.0, 2.0, 2.75, 3.0, 3.0]


class HeapSimulator:
    """The reference: one heap of (fire_at, seq, action, tag) entries."""

    def __init__(self):
        self.now = 0.0
        self._queue = []
        self._seq = 0
        self.event_log = []

    def schedule_at(self, fire_at, action, tag=""):
        assert fire_at >= self.now
        heapq.heappush(self._queue, (fire_at, self._seq, action, tag))
        self._seq += 1

    def run_until(self, t_end):
        count = 0
        while self._queue and self._queue[0][0] <= t_end:
            fire_at, seq, action, tag = heapq.heappop(self._queue)
            self.now = fire_at
            self.event_log.append((fire_at, seq, tag))
            action()
            count += 1
        self.now = t_end
        return count


# offsets on a coarse grid, so that equal times are common, plus a few far
# ahead, as a timer is
OFFSETS = st.integers(0, 8).map(lambda k: k * 0.25) | st.sampled_from(
    [0.1, 1.0 / 3.0, 7.5, 40.0])
# an event, and the events its action schedules when it fires
EVENTS = st.recursive(
    st.tuples(OFFSETS, st.just(())),
    lambda children: st.tuples(OFFSETS, st.lists(children, max_size=3)
                               .map(tuple)),
    max_leaves=6)
PROGRAMS = st.lists(
    st.tuples(st.just("schedule"), EVENTS)
    | st.tuples(st.just("run"), st.sampled_from([0.0, 0.25, 0.6, 1.0, 3.0])),
    max_size=30)


def execute(sim, program):
    """Run ``program`` on ``sim``: what fired, at what time, and each
    run_until's count."""
    fired = []
    counts = []

    def action(label, children):
        def act():
            fired.append((sim.now, label))
            for i, (offset, grand) in enumerate(children):
                sim.schedule_at(sim.now + offset,
                                action(f"{label}.{i}", grand), "inner")
        return act

    for step_no, (op, arg) in enumerate(program):
        if op == "run":
            counts.append(sim.run_until(sim.now + arg))
        else:
            offset, children = arg
            sim.schedule_at(sim.now + offset, action(str(step_no), children),
                            "outer")
    counts.append(sim.run_until(sim.now + 1.0))
    return fired, counts


class TestTwoLanesAgainstOneHeap:
    """The lane and the heap together dispatch exactly what one heap does,
    in (time, seq) order, whatever order events are scheduled in."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(PROGRAMS)
    def test_same_dispatch_order(self, program):
        sim = Simulator(log_events=True)
        ref = HeapSimulator()
        assert execute(sim, program) == execute(ref, program)
        assert sim.event_log == ref.event_log
        assert sim.now == ref.now
        sim.drop_pending()
        assert not sim._lane and not sim._heap
        assert sim.run_until(sim.now + 1e9) == 0


def _hash_log(sim):
    h = hashlib.sha256()
    for entry in sim.event_log:
        h.update(repr(entry).encode())
    return h.hexdigest()


def test_event_log_determinism():
    def build():
        sim = Simulator(log_events=True)
        rng = RngStream(7).substream("jitter")
        for i in range(50):
            sim.schedule_at(rng.random() * 10, lambda: None, f"e{i}")
        sim.run_until(10.0)
        return _hash_log(sim)

    assert build() == build()


def test_rng_substreams_independent():
    a1 = RngStream(42).substream("alpha")
    seq1 = [a1.random() for _ in range(5)]

    stream = RngStream(42)
    other = stream.substream("beta")
    other.random()  # draws on another sub-stream must not perturb "alpha"
    a2 = stream.substream("alpha")
    assert [a2.random() for _ in range(5)] == seq1


def test_rng_substream_starts_afresh_on_each_call():
    stream = RngStream(5)
    first = stream.substream("loss")
    drawn = [first.random() for _ in range(3)]
    again = stream.substream("loss")
    assert again is not first
    assert [again.random() for _ in range(3)] == drawn


def test_rng_same_seed_same_draws():
    s1 = RngStream(9).substream("loss")
    s2 = RngStream(9).substream("loss")
    assert [s1.random() for _ in range(10)] == [s2.random() for _ in range(10)]
    assert RngStream(9).substream("loss").random() \
        != RngStream(10).substream("loss").random()
