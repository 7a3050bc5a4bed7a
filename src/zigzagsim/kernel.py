"""Discrete-event engine: virtual clock, ordered event queue, seeded RNG streams."""

import heapq
import random
from collections import deque


class Simulator:
    """Single-threaded event loop over a virtual clock in seconds.

    Events fire in (fire_at, insertion seq) order; equal timestamps are
    FIFO.  An optional event log records (time, seq, tag) per dispatched
    event for determinism hashing.

    Most events are scheduled in the order they come due, so the queue has
    two lanes, as a calendar queue has buckets (Brown, CACM 1988): a FIFO
    lane takes each event due no earlier than its tail, which keeps it
    sorted by (fire_at, seq) with no heap work, and a heap takes the rest.
    Dispatch takes the lower of the two heads.
    """

    def __init__(self, log_events=False):
        self.now = 0.0
        self._lane = deque()
        self._heap = []
        self._seq = 0
        self.event_log = [] if log_events else None

    def schedule_at(self, fire_at, action, tag=""):
        """Schedule ``action()`` at virtual time ``fire_at``.

        Scheduling in the past, or at NaN, raises ValueError.
        """
        if not fire_at >= self.now:
            raise ValueError(
                f"cannot schedule at t={fire_at} (clock is {self.now})")
        entry = (fire_at, self._seq, action, tag)
        lane = self._lane
        if not lane or fire_at >= lane[-1][0]:
            lane.append(entry)
        else:
            heapq.heappush(self._heap, entry)
        self._seq += 1

    def run_until(self, t_end):
        """Dispatch every event with fire_at <= t_end; leave clock at t_end.

        Running to a time in the past, or to NaN, raises ValueError.
        Returns the number of events dispatched.
        """
        if not t_end >= self.now:
            raise ValueError(
                f"cannot run to t={t_end} (clock is {self.now})")
        lane = self._lane
        heap = self._heap
        log = self.event_log
        popleft = lane.popleft
        pop = heapq.heappop
        count = 0
        while True:
            # seqs are unique, so comparing entries never reaches the action
            if heap and (not lane or heap[0] < lane[0]):
                if heap[0][0] > t_end:
                    break
                fire_at, seq, action, tag = pop(heap)
            elif lane and lane[0][0] <= t_end:
                fire_at, seq, action, tag = popleft()
            else:
                break
            self.now = fire_at
            if log is not None:
                log.append((fire_at, seq, tag))
            action()
            count += 1
        self.now = t_end
        return count

    def drop_pending(self):
        """Discard every queued event, in both lanes.

        An action often holds its owner, which holds this simulator, so
        a finished run is freed by reference counting alone only once
        the events it will never run are gone.
        """
        self._lane.clear()
        self._heap.clear()


class RngStream:
    """One 64-bit scenario seed fanned out into named independent sub-streams.

    Sub-stream derivation hashes the seed together with the name, so adding
    a component never perturbs another component's draws.
    """

    def __init__(self, seed):
        self.seed = int(seed)

    def substream(self, name):
        """Return a new random.Random seeded by the seed and ``name``.

        Each call starts the stream afresh, so each component asks once.
        """
        # str seeding is hashed with SHA-512, stable across runs/platforms
        return random.Random(f"{self.seed}\x1f{name}")
