"""Machine performance models (latency, bandwidth, flop rates)."""

from .model import MachineModel, unit_machine
from .nersc import MACHINES, cray_xt4, ibm_power5

__all__ = [
    "MachineModel",
    "unit_machine",
    "ibm_power5",
    "cray_xt4",
    "MACHINES",
]
