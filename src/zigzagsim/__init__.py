"""Deterministic discrete-event simulator comparing a TCP-like window
controller against a zig-zag loss-discriminating variant over a
wired-cum-wireless topology with a bursty lossy last hop."""

__version__ = "0.1.0"
