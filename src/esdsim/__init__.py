"""Exact dynamics of two coupled qubits with one qubit driven by a single-mode thermal field.

Provides the analytic per-sector solution, thermally averaged two-qubit
density matrices, entanglement/coherence/purity observables, sudden-death
interval detection, and a brute-force validator that diagonalises the
Hamiltonian of the full qubit x qubit x Fock space, held as its nonzero
entries and decomposed block by block.
"""

from .model import ModelParams, ThermalField, build_thermal
from .dynamics import SectorFrequencies, StateSeries, sector_frequencies, two_qubit_states
from .observables import concurrence_wootters, inversion_closed, observable_columns
from .events import EsdInterval, scan_esd, dwell_fraction

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "ThermalField",
    "build_thermal",
    "SectorFrequencies",
    "StateSeries",
    "sector_frequencies",
    "two_qubit_states",
    "concurrence_wootters",
    "inversion_closed",
    "observable_columns",
    "EsdInterval",
    "scan_esd",
    "dwell_fraction",
]
