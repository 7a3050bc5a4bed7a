"""Per-packet drop models for the wireless hop: bursty 2-state Gilbert and
memoryless uniform, plus their analytic reference statistics."""


class GilbertElliottModel:
    """2-state Markov loss process: 0% PLR in Good, 100% PLR in Bad.

    p is the probability of leaving the good state, q the probability of
    leaving the bad state.  The chain starts in Good; ``bad`` is True in
    Bad.  On each packet the state transitions first, then the packet is
    dropped iff the new state is Bad.
    """

    def __init__(self, p, q):
        self.p = p
        self.q = q
        self.bad = False

    def should_drop(self, rng):
        """Advance one transition step and return True iff the packet is lost."""
        self.bad = rng.random() >= self.q if self.bad else rng.random() < self.p
        return self.bad


class UniformLossModel:
    """Memoryless model: each packet dropped independently with probability plr."""

    def __init__(self, plr):
        self.plr = plr

    def should_drop(self, rng):
        return rng.random() < self.plr


def steady_state_plr(p, q):
    """Stationary probability of the Bad state, p/(p+q)."""
    if p + q <= 0.0:
        raise ValueError("p + q must be positive: no steady state")
    return p / (p + q)


def mean_burst_length(q):
    """Expected consecutive drops: geometric sojourn in Bad, 1/q."""
    if q <= 0.0:
        raise ValueError("q must be positive: a burst never ends")
    if 1.0 / q == float("inf"):
        raise ValueError(f"q = {q!r} is too small: 1/q overflows a float")
    return 1.0 / q


def simulate_trace(model, rng, count):
    """Drive ``model`` for ``count`` packets; return a bytearray of 0/1 drop
    flags.

    Makes the draws ``count`` calls to ``should_drop`` would make, from the
    model's current state, and leaves the model in the final state.
    """
    flags = bytearray(count)
    rand = rng.random
    if isinstance(model, GilbertElliottModel):
        # should_drop's chain rule
        p, q = model.p, model.q
        bad = model.bad
        for i in range(count):
            bad = rand() >= q if bad else rand() < p
            if bad:
                flags[i] = 1
        model.bad = bad
    else:
        plr = model.plr
        for i in range(count):
            if rand() < plr:
                flags[i] = 1
    return flags


def trace_statistics(drops):
    """Empirical PLR, mean burst length and P(drop | previous drop) of a
    trace of 0/1 drop flags (bytes or bytearray)."""
    n = len(drops)
    losses = drops.count(1)
    # a burst starts at each 0 -> 1 step, and at a leading drop
    bursts = drops.count(b"\x00\x01") + drops.startswith(b"\x01")
    # every drop starts a burst or follows a drop
    repeat = losses - bursts
    plr = losses / n if n else 0.0
    mean_burst = losses / bursts if bursts else 0.0
    # conditional drop frequency given the previous packet dropped
    prior = losses - drops.endswith(b"\x01")
    cond = repeat / prior if prior else 0.0
    return {
        "packets": n,
        "losses": losses,
        "plr": plr,
        "bursts": bursts,
        "mean_burst": mean_burst,
        "p_drop_given_drop": cond,
    }
