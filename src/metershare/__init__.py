"""Secret-sharing toolkit and simulator for privacy-preserving metering.

Meters split readings into Shamir shares over a 63-bit prime field;
non-colluding servers aggregate them per region and supplier with one of
three interchangeable algorithms, then deliver only the group totals.
Every interactive step is metered so measured cost can be checked
against the closed-form model in :mod:`metershare.costs`.
"""

from .field import PRIME
from .shamir import Share, SharingParams, reconstruct, share
from .abb import CostMeter, Engine, PhaseCount
from .gates import exchange_layers, oblivious_permute
from .aggregation import (
    distribute_outputs,
    grid_aggregate,
    naa_region,
    ncaa_region,
    niaa_region,
)
from .metering import Scenario, build_meters, generate_readings, submit
from .costs import CostParams, build_table, formula_comm, formula_mults
from .cli import check_result, run_scenario

__version__ = "0.1.0"

__all__ = [
    "PRIME",
    "CostMeter",
    "CostParams",
    "Engine",
    "PhaseCount",
    "Scenario",
    "Share",
    "SharingParams",
    "build_meters",
    "build_table",
    "check_result",
    "distribute_outputs",
    "exchange_layers",
    "formula_comm",
    "formula_mults",
    "generate_readings",
    "grid_aggregate",
    "naa_region",
    "ncaa_region",
    "niaa_region",
    "oblivious_permute",
    "reconstruct",
    "run_scenario",
    "share",
    "submit",
]
