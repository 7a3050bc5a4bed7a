"""Scenario description and its flat key-value file format."""

from collections import namedtuple
from sys import float_info

from . import loss as loss_models
from .control import (BASELINE, DEFAULT_ALPHA, INITIAL_SSTHRESH,
                      MIN_SSTHRESH, ZIGZAG)

GILBERT = "gilbert"
UNIFORM = "uniform"
NONE = "none"

# one Sender per flow is built up front: 1,000 times the paper's 10 flows
MAX_FLOWS = 10_000
# a run counts its CBR instants one loop step each: 1,000 times the
# paper's largest run, 1.5 Mb/s of 1000-byte packets for 500 s (93,750)
MAX_OFFERED_PKTS = 10 ** 8


class ScenarioError(ValueError):
    """Invalid scenario; the message names the offending field."""


def _check_types(record, prefix=""):
    """Reject a value not of its field default's type, naming the field; a
    float field also takes an int, only a bool field takes a bool, and a
    number must fit a float.  Neither message prints the value, which may
    have too many digits to print."""
    for name, default in record._field_defaults.items():
        value = getattr(record, name)
        kind = type(default)
        if isinstance(value, bool) != (kind is bool) or not isinstance(
                value, (int, float) if kind is float else kind):
            raise ScenarioError(f"{prefix}{name}: must be of type "
                                f"{kind.__name__}, got {type(value).__name__}")
        # unlike math.isfinite, also false for an int too large for a float
        if kind in (int, float) and not abs(value) <= float_info.max:
            raise ScenarioError(f"{prefix}{name}: must be finite and fit a "
                                "float")


class LossSpec(namedtuple("LossSpec", "kind p q plr",
                          defaults=(NONE, 0.0, 0.0, 0.0))):
    __slots__ = ()

    def validate(self):
        _check_types(self, "loss.")
        if self.kind not in (GILBERT, UNIFORM, NONE):
            raise ScenarioError(f"loss.kind: unknown kind {self.kind!r}")
        # a field that the kind never reads must be left at 0
        for name, reader in (("p", GILBERT), ("q", GILBERT), ("plr", UNIFORM)):
            if self.kind != reader and getattr(self, name) != 0.0:
                raise ScenarioError(f"loss.{name}: read only by loss.kind = "
                                    f"{reader}, not {self.kind}")
        if self.kind == GILBERT:
            if not (0.0 <= self.p <= 1.0):
                raise ScenarioError(f"loss.p: must be in [0,1], got {self.p}")
            if not (0.0 < self.q <= 1.0):
                raise ScenarioError(f"loss.q: must be in (0,1], got {self.q}")
        if self.kind == UNIFORM and not (0.0 <= self.plr <= 1.0):
            raise ScenarioError(f"loss.plr: must be in [0,1], got {self.plr}")
        return self

    @property
    def analytic_plr(self):
        if self.kind == GILBERT:
            return loss_models.steady_state_plr(self.p, self.q)
        if self.kind == UNIFORM:
            return self.plr
        return 0.0

    def build(self):
        """Instantiate the per-packet drop model, or None for lossless."""
        if self.kind == GILBERT:
            return loss_models.GilbertElliottModel(self.p, self.q)
        if self.kind == UNIFORM:
            return loss_models.UniformLossModel(self.plr)
        return None


# every Scenario field, in order, with its default; a value must be of the
# default's type (see _check_types), and the flat format converts by it
SCENARIO_DEFAULTS = {
    "flow_count": 1,
    "aggregate_rate_bps": 1.0e6,
    "loss": LossSpec(),
    "policy": BASELINE,
    "duration_s": 500.0,
    "seed": 1,
    "queue_capacity_pkts": 50,
    "packet_size_bytes": 1000,
    "feedback_size_bytes": 40,
    "alpha": DEFAULT_ALPHA,
    "warmup_s": 100.0,
    "strict_n4": False,
    "initial_ssthresh_pkts": INITIAL_SSTHRESH,
}


class Scenario(namedtuple("Scenario", SCENARIO_DEFAULTS,
                          defaults=SCENARIO_DEFAULTS.values())):
    __slots__ = ()

    def validate(self):
        _check_types(self)
        if not 1 <= self.flow_count <= MAX_FLOWS:
            raise ScenarioError(f"flow_count: must be in [1, {MAX_FLOWS}], "
                                f"got {self.flow_count}")
        if not abs(self.seed) < 2 ** 64:
            raise ScenarioError("seed: must be of magnitude below 2^64")
        if self.per_flow_rate_bps <= 0:
            raise ScenarioError("aggregate_rate_bps: must give each flow a "
                                "positive rate")
        if self.policy not in (BASELINE, ZIGZAG):
            raise ScenarioError(f"policy: unknown policy {self.policy!r}")
        if self.warmup_s < 0:
            raise ScenarioError(f"warmup_s: must be >= 0, got {self.warmup_s}")
        if self.duration_s <= self.warmup_s:
            raise ScenarioError(
                f"duration_s: must exceed warm-up ({self.warmup_s} s)")
        if self.queue_capacity_pkts < 1:
            raise ScenarioError("queue_capacity_pkts: must be >= 1")
        if self.packet_size_bytes < 1:
            raise ScenarioError("packet_size_bytes: must be >= 1")
        # the offered packets, rate * duration / (8 * size), in an order
        # that converts no int too large for a float, and in which an
        # overflow to inf can only reject
        if self.aggregate_rate_bps / 8.0 \
                * (self.duration_s / self.packet_size_bytes) \
                > MAX_OFFERED_PKTS:
            raise ScenarioError(f"aggregate_rate_bps: offers more than "
                                f"{MAX_OFFERED_PKTS:,} packets over "
                                "duration_s")
        if self.feedback_size_bytes < 1:
            raise ScenarioError("feedback_size_bytes: must be >= 1")
        if not (0.0 < self.alpha < 0.5):
            raise ScenarioError(f"alpha: must be in (0, 0.5), got {self.alpha}")
        if self.initial_ssthresh_pkts < MIN_SSTHRESH:
            raise ScenarioError(
                f"initial_ssthresh_pkts: must be >= {MIN_SSTHRESH:g}")
        self.loss.validate()
        return self

    @property
    def per_flow_rate_bps(self):
        return self.aggregate_rate_bps / self.flow_count

    def with_policy(self, policy):
        return self._replace(policy=policy)

    def key(self):
        """Scenario identity minus policy; paired runs must agree on this."""
        return tuple(value for name, value in zip(self._fields, self)
                     if name != "policy")


def _strict_bool(text):
    value = text.lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# one converter per key of the flat format, by the type of its default;
# Scenario.validate checks ranges
_FROM_TYPE = {int: int, float: float, str: str, bool: _strict_bool}
CONVERTERS = {
    **{name: _FROM_TYPE[type(default)]
       for name, default in SCENARIO_DEFAULTS.items() if name != "loss"},
    **{f"loss.{name}": _FROM_TYPE[type(default)]
       for name, default in LossSpec._field_defaults.items()},
}


def read_pairs(text, aliases=None):
    """Yield (key, value) per ``key = value`` line ('#' starts a comment).

    A key given twice is rejected; ``aliases`` maps a key to the one it
    stands for, so that setting both counts as twice.
    """
    aliases = aliases or {}
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ScenarioError(f"line {lineno}: expected 'key = value'")
        key = key.strip()
        name = aliases.get(key, key)
        if name in seen:
            raise ScenarioError(f"{key}: {name} is set twice, on lines "
                                f"{seen[name]} and {lineno}")
        seen[name] = lineno
        yield key, value.strip()


def convert(key, text, converters=CONVERTERS):
    """Convert the text of one value of ``key``; errors name the key."""
    if key not in converters:
        raise ScenarioError(f"unknown key {key!r}")
    try:
        return converters[key](text)
    except ValueError as exc:
        raise ScenarioError(f"{key}: bad value {text!r}") from exc


def parse_scenario_text(text):
    """Parse the flat ``key = value`` scenario format ('#' starts a comment)."""
    values = {}
    loss_fields = {}
    for key, value in read_pairs(text):
        if key.startswith("loss."):
            loss_fields[key.removeprefix("loss.")] = convert(key, value)
        else:
            values[key] = convert(key, value)
    if loss_fields:
        values["loss"] = LossSpec(**loss_fields)
    return Scenario(**values).validate()


def load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read())
