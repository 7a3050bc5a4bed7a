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


# draws per getrandbits call, in simulate_trace and in the path's draw-ahead
DRAW_CHUNK = 4096
# a class byte (0 keep, 1 flip, 2 reset) as a flip bit, as a reset bit;
# a state bit's digit as a drop flag
_FLIP_BITS = bytes.maketrans(b"\0\1\2", b"010")
_RESET_BITS = bytes.maketrans(b"\0\1\2", b"001")
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def simulate_trace(model, rng, count):
    """Drive ``model`` for ``count`` packets; return a bytearray of 0/1 drop
    flags.

    Makes the draws ``count`` calls to ``should_drop`` would make, from the
    model's current state, and leaves the model in the final state.  Each
    chunk is one ``getrandbits(64 * m)``: draw j is its words a, b (bytes
    8j to 8j + 8), and ``random()`` would return u = k / 2**53 with
    k = (a >> 5) << 26 | b >> 6, so u < x exactly when k < x * 2**53.
    Against lo <= hi, the scaled thresholds, a Gilbert draw flips the state
    below lo, resets it to Bad if p > q (else Good) below hi, and keeps it
    from hi.  Its top byte, ``raw[3::8]``, settles the class unless it
    equals a threshold's; only those draws are compared one at a time.
    """
    gilbert = isinstance(model, GilbertElliottModel)
    # the exact thresholds ceil(x * 2**53), by floor division of -x * 2**53
    if gilbert:
        kp, kq = (-int(x * -2.0 ** 53 // 1) for x in (model.p, model.q))
        lo, hi, bad = min(kp, kq), max(kp, kq), model.bad
    else:
        lo = hi = -int(model.plr * -2.0 ** 53 // 1)
    a, b = lo >> 45, hi >> 45
    table = b"\1" * a + b"\3" + b"\2" * (b - a - 1) + b"\3" * (a < b)
    table = (table + bytes(256))[:256]  # class of each top byte; 3 a tie
    flags = bytearray(count)
    for start in range(0, count, DRAW_CHUNK):
        m = min(DRAW_CHUNK, count - start)
        raw = rng.getrandbits(64 * m).to_bytes(8 * m, "little")
        cls = bytearray(raw[3::8].translate(table))
        j = cls.find(3)
        while j >= 0:
            w = int.from_bytes(raw[8 * j:8 * j + 8], "little")
            k = (w & 0xFFFFFFFF) >> 5 << 26 | w >> 38
            cls[j] = 1 if k < lo else 2 if k < hi else 0
            j = cls.find(3, j + 1)
        if gilbert:
            # bit i is draw i; the state is the prefix parity of the flips
            # (from the incoming state), corrected after each reset that
            # finds the parity unequal to the state it sets
            rev, full = cls[::-1], (1 << m) - 1
            par, shift = int(rev.translate(_FLIP_BITS), 2) ^ bad, 1
            while shift < m:
                par ^= par << shift
                shift <<= 1
            par &= full
            resets = int(rev.translate(_RESET_BITS), 2)
            # run is 0 at each reset that agrees with the parity, and the
            # parity is flipped from a run's first disagreeing reset to its
            # end; head, the part before that reset, is the carry from the
            # run's start that the first reset stops
            run = full ^ resets ^ (resets & (par ^ -(kp > kq)))
            rest = full ^ resets
            head = ((rest + (run & ~(run << 1))) ^ rest) & rest
            state = par ^ run ^ head
            bad = state >> (m - 1) == 1
            cls = format(state, f"0{m}b").encode()[::-1].translate(_FLAGS)
        flags[start:start + m] = cls
    if gilbert:
        model.bad = bad
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
