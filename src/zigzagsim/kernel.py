"""Discrete-event engine: virtual clock, ordered event queue, seeded RNG streams."""

import heapq
import random


class PastTimeError(ValueError):
    """Raised when an event is scheduled before the current virtual time."""


class Simulator:
    """Single-threaded event loop over a virtual clock in seconds.

    Events fire in (fire_at, insertion seq) order; equal timestamps are
    FIFO.  An optional event log records (time, seq, tag) per dispatched
    event for determinism hashing.
    """

    def __init__(self, log_events=False):
        self.now = 0.0
        self._queue = []
        self._seq = 0
        self.dispatched = 0
        self.event_log = [] if log_events else None

    def schedule_at(self, fire_at, action, tag=""):
        """Schedule ``action()`` at virtual time ``fire_at``.

        Scheduling in the past, or at NaN, raises PastTimeError.
        """
        if not fire_at >= self.now:
            raise PastTimeError(
                f"cannot schedule at t={fire_at} (clock is {self.now})")
        heapq.heappush(self._queue, (fire_at, self._seq, action, tag))
        self._seq += 1

    def run_until(self, t_end):
        """Dispatch every event with fire_at <= t_end; leave clock at t_end.

        Returns the number of events dispatched.
        """
        if t_end < self.now:
            raise PastTimeError(
                f"cannot run to t={t_end} (clock is {self.now})")
        queue = self._queue
        log = self.event_log
        pop = heapq.heappop
        count = 0
        while queue and queue[0][0] <= t_end:
            fire_at, seq, action, tag = pop(queue)
            self.now = fire_at
            if log is not None:
                log.append((fire_at, seq, tag))
            action()
            count += 1
        self.now = t_end
        self.dispatched += count
        return count

    def drop_pending(self):
        """Discard every queued event.

        An action often holds its owner, which holds this simulator, so
        a finished run is freed by reference counting alone only once
        the events it will never run are gone.
        """
        self._queue.clear()


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
