import hashlib

import pytest

from zigzagsim.kernel import PastTimeError, RngStream, Simulator


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
    with pytest.raises(PastTimeError):
        sim.schedule_at(4.0, lambda: None)
    # NaN compares false with everything, so it must not slip past the
    # check and stall the heap
    with pytest.raises(PastTimeError):
        sim.schedule_at(float("nan"), lambda: None)


def test_run_until_nan_rejected_and_clock_kept():
    # a NaN horizon would dispatch nothing and leave the clock at NaN, after
    # which every schedule_at fails
    sim = Simulator()
    log = []
    sim.run_until(2.0)
    sim.schedule_at(3.0, record(log, "queued"))
    with pytest.raises(PastTimeError):
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
