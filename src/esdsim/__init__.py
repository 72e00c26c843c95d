"""Exact dynamics of two coupled qubits with one qubit driven by a single-mode thermal field.

Provides the analytic per-sector solution, thermally averaged two-qubit
density matrices, entanglement/coherence/purity observables, sudden-death
interval detection, and a brute-force matrix-exponential validator.
"""

from .model import ModelParams, ThermalField, build_thermal
from .dynamics import (
    SectorFrequencies,
    StateSeries,
    TwoQubitState,
    sector_frequencies,
    two_qubit_state,
    two_qubit_states,
)
from .observables import (
    Qubit1State,
    concurrence_wootters,
    concurrence_xstate,
    coherence_l1,
    qubit1_reduce,
    inversion_summed,
    inversion_closed,
    linear_entropy,
    observable_columns,
)
from .events import EsdInterval, scan_esd, dwell_fraction

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "ThermalField",
    "build_thermal",
    "SectorFrequencies",
    "StateSeries",
    "TwoQubitState",
    "sector_frequencies",
    "two_qubit_state",
    "two_qubit_states",
    "Qubit1State",
    "concurrence_wootters",
    "concurrence_xstate",
    "coherence_l1",
    "qubit1_reduce",
    "inversion_summed",
    "inversion_closed",
    "linear_entropy",
    "observable_columns",
    "EsdInterval",
    "scan_esd",
    "dwell_fraction",
]
