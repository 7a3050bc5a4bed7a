"""Output checks made apart from the program.

Every check here recomputes a quantity from raw outputs (delivery times,
controller trace rows, drop flags, written CSV files) with the
benchmark's own arithmetic and constants, and returns a list of error
messages; an empty list means the outputs passed.  The constants restate
the reference topology and controller rules of the paper, not the
program's variables, so a change in the program that alters them shows.
"""

import math

WIRED_BPS = 2.0e6
WIRED_DELAY_S = 0.100
WIRELESS_BPS = 1.3e6
WIRELESS_DELAY_S = 0.200
MIN_SSTHRESH = 2.0          # the window is never halved below two packets
TOL = 1e-9                  # float slack for in-memory values
CSV_TOL = 2e-6              # slack for values printed with 6 decimals
SIGMAS = 6.0                # statistical checks: false alarm ~1e-9


def base_rtt(packet_bytes, feedback_bytes):
    """Smallest possible RTT: serialization and propagation, no queueing."""
    data, fb = packet_bytes * 8.0, feedback_bytes * 8.0
    return (data / WIRED_BPS + WIRED_DELAY_S + data / WIRELESS_BPS
            + WIRELESS_DELAY_S + fb / WIRELESS_BPS + WIRELESS_DELAY_S
            + fb / WIRED_BPS + WIRED_DELAY_S)


def check_flow_trace(rows, policy, min_rtt, where, tol=TOL):
    """Halve-only-on-congestion, cwnd >= 1 and RTT >= base on one flow.

    ``rows`` are (t, cwnd, event_type, loss_class, n, rott_i) in trace
    order.  Returns (errors, congestion_rows, wireless_rows).
    """
    errors = []
    congestion = wireless = 0
    prev_t = prev_cwnd = None
    for i, (t, cwnd, event, cls, n, rott_i) in enumerate(rows):
        at = f"{where} row {i}"
        if cwnd < 1.0:
            errors.append(f"{at}: cwnd {cwnd} < 1")
        if prev_t is not None and t < prev_t:
            errors.append(f"{at}: time goes back {prev_t} -> {t}")
        if event == "ack":
            if 2.0 * rott_i < min_rtt - tol:
                errors.append(f"{at}: RTT {2 * rott_i} below base {min_rtt}")
            if prev_cwnd is not None and cwnd < prev_cwnd - tol:
                errors.append(f"{at}: cwnd fell on an ACK")
        elif event == "loss":
            if n < 1:
                errors.append(f"{at}: loss event with n={n}")
            if cls == "congestion":
                congestion += 1
                want = max(prev_cwnd / 2.0, MIN_SSTHRESH) \
                    if prev_cwnd is not None else cwnd
                if abs(cwnd - want) > tol:
                    errors.append(f"{at}: congestion cwnd {cwnd}, "
                                  f"halving gives {want}")
            elif cls == "wireless":
                wireless += 1
                if policy == "baseline":
                    errors.append(f"{at}: baseline classified a loss "
                                  "as wireless")
                if prev_cwnd is not None and abs(cwnd - prev_cwnd) > tol:
                    errors.append(f"{at}: wireless loss changed cwnd")
            else:
                errors.append(f"{at}: unknown loss class {cls!r}")
        else:
            errors.append(f"{at}: unknown event {event!r}")
        prev_t, prev_cwnd = t, cwnd
    return errors, congestion, wireless


def expected_generated(duration_s, per_flow_bps, packet_bytes):
    """Range of CBR packets one flow generates when it starts in [0, 1) s."""
    interval = packet_bytes * 8.0 / per_flow_bps
    return (duration_s - 1.0) / interval - 1.0, duration_s / interval + 2.0


def check_conservation(flows, loss_flags, queue_drop_flows, scenario, where):
    """Packet conservation of one run.

    ``flows`` holds per-flow dicts of generated, sent, delivered,
    queue_drops, wireless_drops and delivery_times; ``loss_flags`` the
    drop flag of every packet the wireless hop carried, in order;
    ``queue_drop_flows`` the flow id of every drop-tail drop.
    """
    errors = []
    lo, hi = expected_generated(scenario.duration_s,
                                scenario.per_flow_rate_bps,
                                scenario.packet_size_bytes)
    for i, f in enumerate(flows):
        at = f"{where} flow {i}"
        lost = f["queue_drops"] + f["wireless_drops"]
        if min(f["queue_drops"], f["wireless_drops"]) < 0:
            errors.append(f"{at}: negative drop counter")
        if not lo <= f["generated"] <= hi:
            errors.append(f"{at}: generated {f['generated']} outside "
                          f"[{lo:.1f}, {hi:.1f}] for the offered rate")
        if not f["generated"] >= f["sent"] >= f["delivered"] + lost:
            errors.append(f"{at}: generated {f['generated']} >= sent "
                          f"{f['sent']} >= delivered+lost "
                          f"{f['delivered'] + lost} does not hold")
        times = f["delivery_times"]
        if len(times) != f["delivered"]:
            errors.append(f"{at}: {len(times)} delivery times for "
                          f"{f['delivered']} deliveries")
        if any(b < a for a, b in zip(times, times[1:])):
            errors.append(f"{at}: delivery times out of order")
        if times and not (0.0 < times[0] and times[-1] <= scenario.duration_s):
            errors.append(f"{at}: delivery outside (0, duration]")
        if queue_drop_flows.count(i) != f["queue_drops"]:
            errors.append(f"{at}: queue-drop log disagrees with counter")
    wireless = sum(f["wireless_drops"] for f in flows)
    if sum(loss_flags) != wireless:
        errors.append(f"{where}: {sum(loss_flags)} wireless drops drawn, "
                      f"{wireless} counted")
    if len(queue_drop_flows) != sum(f["queue_drops"] for f in flows):
        errors.append(f"{where}: queue-drop log length disagrees")
    # admitted to the wireless hop but not yet out at the horizon: in the
    # drop-tail queue, or in propagation on the wireless link
    tx = scenario.packet_size_bytes * 8.0 / WIRELESS_BPS
    pending = len(loss_flags) - wireless - sum(f["delivered"] for f in flows)
    limit = scenario.queue_capacity_pkts + math.ceil(WIRELESS_DELAY_S / tx) + 1
    if not 0 <= pending <= limit:
        errors.append(f"{where}: {pending} packets pending on the wireless "
                      f"hop, expected 0..{limit}")
    return errors


def window_throughput(delivery_times, packet_bytes, warmup_s, duration_s):
    """Mean delivered bits/s over (warmup, duration]."""
    n = sum(1 for t in delivery_times if warmup_s < t <= duration_s)
    return n * packet_bytes * 8 / (duration_s - warmup_s)


def check_throughput(recomputed, reported, scenario, delivered_by_warmup,
                     where, tol):
    """The reported window throughput against its recomputation and the
    two limits no run can pass.

    The wireless hop delivers at most one packet per serialization time,
    plus the one in service at the window's start.  The senders deliver at
    most what they generated by the horizon less what was delivered by the
    warm-up: the application buffer is unbounded, so backlog built before
    the warm-up may drain inside the window and lift the mean above the
    offered rate.  Returns (errors, whether the mean exceeds
    min(offered, wireless rate)).
    """
    errors = []
    if abs(recomputed - reported) > tol:
        errors.append(f"{where}: throughput {reported} reported, "
                      f"{recomputed} recomputed")
    bits = scenario.packet_size_bytes * 8
    window = scenario.duration_s - scenario.warmup_s
    capacity = WIRELESS_BPS + bits / window
    generated = scenario.flow_count * expected_generated(
        scenario.duration_s, scenario.per_flow_rate_bps,
        scenario.packet_size_bytes)[1]
    backlog_limit = (generated - delivered_by_warmup) * bits / window
    if recomputed > min(capacity, backlog_limit):
        errors.append(f"{where}: throughput {recomputed} above the wireless "
                      f"capacity {capacity} or the packets left to deliver "
                      f"after warm-up ({backlog_limit})")
    ceiling = min(scenario.aggregate_rate_bps, WIRELESS_BPS)
    return errors, recomputed > ceiling


def check_prefix(baseline_trace, zigzag_trace, where):
    """Both runs of a pair must see the same wireless drop sequence."""
    n = min(len(baseline_trace), len(zigzag_trace))
    if n == 0:
        return [f"{where}: no wireless draws to compare"]
    if baseline_trace[:n] != zigzag_trace[:n]:
        return [f"{where}: wireless drop prefixes differ"]
    return []


def drop_statistics(drops):
    """Recount PLR, bursts, mean burst and P(drop | drop) of a drop trace."""
    losses = bursts = repeats = 0
    prev = False
    for d in drops:
        if d:
            losses += 1
            if prev:
                repeats += 1
            else:
                bursts += 1
        prev = d
    prior = losses - (1 if drops and drops[-1] else 0)
    n = len(drops)
    return {
        "packets": n, "losses": losses, "bursts": bursts, "prior": prior,
        "plr": losses / n if n else 0.0,
        "mean_burst": losses / bursts if bursts else 0.0,
        "p_drop_given_drop": repeats / prior if prior else 0.0,
    }


def check_gilbert_statistics(stats, p, q, where):
    """Recounted statistics against p/(p+q), 1/q and 1-q.

    The tolerance is SIGMAS standard errors of a two-state Markov chain:
    var(PLR) = pi(1-pi)(2/(p+q) - 1)/n, burst lengths are geometric with
    variance (1-q)/q^2, and each drop is followed by a drop w.p. 1-q.
    """
    errors = []
    pi = p / (p + q)
    n = stats["packets"]
    se_plr = math.sqrt(pi * (1 - pi) * (2.0 / (p + q) - 1.0) / n)
    if abs(stats["plr"] - pi) > SIGMAS * se_plr:
        errors.append(f"{where}: PLR {stats['plr']:.6f} vs p/(p+q) {pi:.6f}")
    if stats["bursts"]:
        se_burst = math.sqrt((1 - q) / q ** 2 / stats["bursts"])
        if abs(stats["mean_burst"] - 1.0 / q) > SIGMAS * se_burst + TOL:
            errors.append(f"{where}: mean burst {stats['mean_burst']:.4f} "
                          f"vs 1/q {1 / q:.4f}")
    if stats["prior"]:
        se_cond = math.sqrt(q * (1 - q) / stats["prior"])
        if abs(stats["p_drop_given_drop"] - (1 - q)) > SIGMAS * se_cond + TOL:
            errors.append(f"{where}: P(drop|drop) "
                          f"{stats['p_drop_given_drop']:.4f} vs 1-q {1 - q}")
    return errors
