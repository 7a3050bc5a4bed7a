"""Deterministic discrete-event simulator comparing a TCP-like window
controller against a zig-zag loss-discriminating variant over a
wired-cum-wireless topology with a bursty lossy last hop."""

from .control import (BASELINE, CONGESTION, WIRELESS, ZIGZAG,
                      CongestionController, LossEvent, RottEstimator,
                      classify_loss, estimate_rott)
from .harness import Network, RunResult, run_scenario
from .kernel import PastTimeError, RngStream, Simulator
from .loss import (GilbertElliottModel, UniformLossModel, mean_burst_length,
                   steady_state_plr)
from .scenario import LossSpec, Scenario, ScenarioError, load_scenario

__all__ = [
    "BASELINE", "CONGESTION", "WIRELESS", "ZIGZAG",
    "CongestionController", "LossEvent", "RottEstimator",
    "classify_loss", "estimate_rott",
    "Network", "RunResult", "run_scenario",
    "PastTimeError", "RngStream", "Simulator",
    "GilbertElliottModel", "UniformLossModel",
    "mean_burst_length", "steady_state_plr",
    "LossSpec", "Scenario", "ScenarioError", "load_scenario",
]

__version__ = "0.1.0"
