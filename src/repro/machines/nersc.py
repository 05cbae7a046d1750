"""Calibrated models of the two NERSC systems used in the paper's evaluation.

The paper (Section 6) reports for each system:

* **IBM p575 POWER5** ("Bassi"): 888 processors in 111 8-way nodes, 1.9 GHz,
  7.6 GFLOP/s theoretical peak per processor, 3100 MB/s peak internode
  bandwidth, 4.5 µs MPI point-to-point internode latency.
* **Cray XT4** ("Franklin"): 9660 nodes, each with a 2.6 GHz dual-core AMD
  Opteron, 5.2 GFLOP/s theoretical peak per (dual-core) node.  The paper does
  not print the XT4's latency/bandwidth; we use the published SeaStar2
  figures for the machine in that era (~7 µs MPI latency, ~1.6 GB/s sustained
  MPI bandwidth per node).

Effective flop rates: the paper's own measurements reach 40 % of peak on the
POWER5 and 23 % of peak on the XT4 for the largest problems (Table 7), and
TSLU reaches 44 % / 36 % of peak.  The machine models therefore use an
*efficiency* factor (fraction of peak sustained by DGEMM-dominated code) of
0.55 for the POWER5/ESSL and 0.45 for the XT4/LibSci+Goto, which puts the
model-predicted "percent of peak" columns in the same range the paper
reports.  The per-division cost γ_d is taken as ~20 flop times, a standard
figure for these cores.

These numbers shape the *ratios* between algorithms (which is what the tables
report); the absolute GFLOP/s values are only indicative.
"""

from __future__ import annotations

from ..core.options import UnknownOptionError
from .model import MachineModel


def ibm_power5(efficiency: float = 0.55) -> MachineModel:
    """Machine model of the NERSC IBM p575 POWER5 system ("Bassi")."""
    peak = 7.6e9  # flop/s per processor (paper, Section 6)
    gamma = 1.0 / (peak * efficiency)
    bandwidth = 3100.0e6  # bytes/s (paper, Section 6)
    return MachineModel(
        name="IBM POWER5 (NERSC Bassi)",
        gamma=gamma,
        gamma_d=20.0 * gamma,
        alpha=4.5e-6,  # MPI point-to-point internode latency (paper)
        beta=8.0 / bandwidth,
        peak_flops_per_proc=peak,
        notes=(
            "888 processors, 111 nodes x 8; ESSL BLAS; parameters from the "
            "paper's Section 6, efficiency factor calibrated to its Table 7"
        ),
    )


def cray_xt4(efficiency: float = 0.45) -> MachineModel:
    """Machine model of the NERSC Cray XT4 system ("Franklin")."""
    peak = 5.2e9  # flop/s per dual-core node (paper, Section 6)
    gamma = 1.0 / (peak * efficiency)
    bandwidth = 1.6e9  # bytes/s sustained MPI bandwidth (SeaStar2, public figure)
    return MachineModel(
        name="Cray XT4 (NERSC Franklin)",
        gamma=gamma,
        gamma_d=20.0 * gamma,
        alpha=7.0e-6,  # MPI latency on SeaStar2 (public figure; not in the paper)
        beta=8.0 / bandwidth,
        peak_flops_per_proc=peak,
        notes=(
            "9660 dual-core Opteron nodes; LibSci + threaded Goto BLAS; peak "
            "per node from the paper, network parameters from public SeaStar2 "
            "figures, efficiency calibrated to the paper's Table 7"
        ),
    )


#: The machine models addressable by name (``SolveConfig.machine``, spec
#: parameters).
MACHINES = {
    "ibm_power5": ibm_power5,
    "cray_xt4": cray_xt4,
}


def get_machine(name: str) -> MachineModel:
    """The named machine model; an unknown name raises :class:`UnknownOptionError`."""
    if name not in MACHINES:
        raise UnknownOptionError("machine", name, sorted(MACHINES))
    return MACHINES[name]()
