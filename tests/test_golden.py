"""Golden values of one short lossy pair, pinned exactly.

The scenario drops packets at the queue and on the wireless hop, fires
timeouts, and ends with packets still on the wired hop, so every path a
data packet can take is exercised.  A change to any pinned value,
including the count of events by tag, is a change of behaviour and must
be deliberate.

The ``gen`` and ``rto`` counts are those of the lazy source and timer: a
``gen`` wakeup is scheduled only while the window has room, so the 5,630
CBR instants take 68 events.  An ``rto`` event is scheduled only when the
flow's own feedback will not restart the timer before its deadline, so
the 3 and 1 timeouts take 7 and 5 events (3,626 and 3,707 with one event
per ACK, then 245 and 288 with one pending event per flow that re-armed
at each moved deadline).  The timeouts fire at the same instants, so
every hash and total, and the ``fb`` count, are unchanged by that.

There is no ``wless`` count: a sender computes each delivery when it
sends the packet, counts it at once and schedules its ``fb`` event, so a
delivered packet costs one event instead of two (3,870 and 4,035 ``wless``
events before).  The ``fb`` event now takes its insertion number at send
time, which could reorder events that share a timestamp; every hash,
total and other count is unchanged by that.

The loss trace is pinned by the sha256 of its drop flags, one byte per
draw.  It was pinned before as the repr of the (packet_index, dropped,
state) tuples its iteration yielded, where the state was derived from the
flag; the flag bytes pin the same draws, and their hashes were computed
before the derived state was dropped.

The trace and series CSVs that ``run`` and ``matrix --out`` write are pinned
by their sha256, so a writer that changes how it writes must still write
the same bytes.

Each run's event log, its ``(time, seq, tag)`` entries in dispatch order,
is pinned by its sha256 as well, so a change to the event queue or to the
order in which a sender schedules must leave the dispatch order as it is.
"""

import hashlib
import sys
from array import array
from collections import Counter

import pytest

from zigzagsim import metrics
from zigzagsim.harness import Network
from zigzagsim.scenario import LossSpec, Scenario

SCENARIO = Scenario(flow_count=10, aggregate_rate_bps=1.5e6,
                    loss=LossSpec("gilbert", p=0.01, q=0.5),
                    duration_s=30.5, warmup_s=0.0, seed=11)

GOLDEN = {
    "baseline": {
        "trace_hash": "14851079a232a9ca53cafd5c6b5972e9"
                      "5736667005eb7bc03be7328f45cfe46c",
        "delivery_hash": "def758aa0d73e69593d1ae386b2a334c"
                         "4dc145c087f0f8c482a81f2274ea4c94",
        "loss_flags_sha256": "31a93b77f57c966d39521637b0499012"
                             "67932f3559fbbaadd6e85bd8cd78357a",
        "queue_drop_log_hash": "a14015a912c6c0fab9b93af10c61bc87"
                               "a284c156e195695596205f27b784d719",
        "totals": {"generated": 5630, "sent": 4112, "delivered": 3870,
                   "queue_drops": 89, "wireless_drops": 97, "timeouts": 3,
                   "congestion_events": 127, "wireless_events": 0,
                   "loss_trace": 4004},
        "events": {"gen": 68, "fb": 3822, "rto": 7},
        "trace_csv_sha256": "0ea05befadbde3fecb37101eed846b08"
                            "e0c0d336d2ac3fefe1cfbeedab49bb7c",
        "series_csv_sha256": "5669105ef9e6751a38e7b740f7d6c1f5"
                             "8e521d6c68bfbf528cd687dfea0a2eb8",
        "event_log_sha256": "c1e71f8a71839c22e6a3a2a688d17360"
                            "4170aec13a6abf66b80aad81d170f0c7",
    },
    "zigzag": {
        "trace_hash": "54fd7c2c4cfe4c233f66d18ea41d448e"
                      "a40751b1ca37643fa1175107e5e89727",
        "delivery_hash": "494657580c62686d1360575f6abf2647"
                         "e94679b9d6e7826c5593f3747b267c0b",
        "loss_flags_sha256": "4df1edafa92b63f1da5045c331458da3"
                             "196366ffa67c84b1ae23bc225b556597",
        "queue_drop_log_hash": "a14015a912c6c0fab9b93af10c61bc87"
                               "a284c156e195695596205f27b784d719",
        "totals": {"generated": 5630, "sent": 4302, "delivered": 4035,
                   "queue_drops": 89, "wireless_drops": 97, "timeouts": 1,
                   "congestion_events": 110, "wireless_events": 18,
                   "loss_trace": 4195},
        "events": {"gen": 68, "fb": 3986, "rto": 5},
        "trace_csv_sha256": "4f157e23490abd5b1d6150b466dd318d"
                            "4e09a10330d8570608b2b2e614277eb1",
        "series_csv_sha256": "32d9c3eec2ad07e2b3a240abb5cddb12"
                             "fb990ad77bfd3f7bc71203f2cb8bad6b",
        "event_log_sha256": "9aadafb0377164ffbd4db225383b917c"
                            "a00270174698e493e893830068c86fdc",
    },
}


def digest(items):
    return hashlib.sha256(repr(items).encode()).hexdigest()


def file_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("policy", sorted(GOLDEN))
def test_golden_pair(policy, tmp_path):
    golden = GOLDEN[policy]
    net = Network(SCENARIO.with_policy(policy), log_events=True)
    result = net.run()
    flows = result.flows
    totals = {name: sum(getattr(fs, name) for fs in flows)
              for name in ("generated", "sent", "delivered", "queue_drops",
                           "wireless_drops", "timeouts")}
    totals["congestion_events"] = result.congestion_events
    totals["wireless_events"] = result.wireless_events
    totals["loss_trace"] = len(result.loss_trace)
    assert metrics.controller_trace_hash(result) == golden["trace_hash"]
    assert metrics.delivery_hash(result) == golden["delivery_hash"]
    assert hashlib.sha256(result.loss_trace[:]).hexdigest() \
        == golden["loss_flags_sha256"]
    assert digest(result.queue_drop_log) == golden["queue_drop_log_hash"]
    assert totals == golden["totals"]
    assert len(result.queue_drop_log) == totals["queue_drops"]
    events = dict(Counter(entry[2] for entry in net.sim.event_log))
    assert events == golden["events"]
    assert result.events_dispatched == sum(events.values())
    assert digest(net.sim.event_log) == golden["event_log_sha256"]
    # the bytes of the artefacts ``run`` and ``matrix --out`` write
    trace_path = tmp_path / "trace.csv"
    series_path = tmp_path / "series.csv"
    metrics.write_controller_trace_csv(trace_path, result)
    metrics.write_series_csv(series_path, metrics.throughput_series(result))
    assert file_sha256(trace_path) == golden["trace_csv_sha256"]
    assert file_sha256(series_path) == golden["series_csv_sha256"]


def test_trace_stores_at_most_50_bytes_per_row():
    """A finished controller trace keeps each row as one packed 49-byte
    record (five doubles, a kind byte and n) in one buffer at its exact
    size, with the flow id stored once."""
    result = Network(SCENARIO.with_policy("zigzag")).run()
    rows = sum(len(trace) for trace in result.traces)
    stored = sum(sys.getsizeof(trace)
                 + sum(sys.getsizeof(getattr(trace, name))
                       for name in trace.__slots__)
                 for trace in result.traces)
    assert rows > 1000
    assert stored / rows <= 50


def test_loss_flags_and_delivery_times_are_packed():
    """A finished run keeps one byte per wireless draw and one double per
    delivery, without the flags drawn ahead or the arrays' room to grow."""
    result = Network(SCENARIO.with_policy("zigzag")).run()
    trace = result.loss_trace
    draws = len(trace)
    assert draws > 1000
    assert (sys.getsizeof(trace) + sys.getsizeof(trace.flags)) / draws <= 1.1
    empty = sys.getsizeof(array("d"))
    deliveries = sum(fs.delivered for fs in result.flows)
    assert deliveries > 1000
    assert sum(sys.getsizeof(fs.delivery_times) - empty
               for fs in result.flows) / deliveries <= 8


def test_golden_run_makes_at_most_8_5_python_calls_per_packet():
    """Python-function calls during the golden zigzag run, per delivered
    packet, counted exactly as the ``call`` events of ``sys.setprofile``.

    The count is the same on every run, so it guards the per-packet path
    against added Python work without timing anything: 14.47 calls per
    packet before on_ack and the trace writers stopped calling accessors,
    10.50 after, 9.48 once the controller kept the ROTT mean and
    deviation itself and the loss writer stopped reading a phase
    property, and 8.43 once the controller appended its own trace rows
    in place of the sender's two writers.  Work done in C (a builtin, a
    ``struct`` pack, a ``deque`` operation) does not show in it, so a
    change that moves work into C can be faster at an equal count.
    """
    net = Network(SCENARIO.with_policy("zigzag"))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = net.run()
    finally:
        sys.setprofile(previous)
    delivered = sum(fs.delivered for fs in result.flows)
    assert delivered == GOLDEN["zigzag"]["totals"]["delivered"]
    assert calls / delivered <= 8.5
