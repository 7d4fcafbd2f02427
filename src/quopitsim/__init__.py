"""Exact evaluation of quopit Clifford circuits by sums over paths."""

from .circuit import (CapExceeded, Circuit, CircuitParseError, Gate,
                      classify_fourier_gates, make_circuit,
                      normalize_to_standard_form, parse_circuit,
                      serialize_circuit)
from .evaluator import (AmplitudeReport, amplitude, amplitude_table,
                        balance_weight, probability, weil_sum)
from .fields import ExactScalar, FieldElement, OddPrime, inverse_mod, legendre
from .oracle import (AffineForm, LabeledCircuit, brute_force_path_sum,
                     dense_amplitude, dense_state, diagonalize_reference,
                     extract_phase_polynomial, gf_rank, label_circuit,
                     split_step)
from .pathsum import QuadraticForm, phase_polynomial_direct
from .quadform import DiagonalizationResult, SymmetricEntries, diagonalize

__version__ = "0.1.0"

__all__ = [
    "AffineForm", "AmplitudeReport", "CapExceeded", "Circuit",
    "CircuitParseError", "DiagonalizationResult", "ExactScalar",
    "FieldElement", "Gate", "LabeledCircuit", "OddPrime", "QuadraticForm",
    "SymmetricEntries",
    "amplitude", "amplitude_table", "balance_weight", "brute_force_path_sum",
    "classify_fourier_gates", "dense_amplitude", "dense_state", "diagonalize",
    "diagonalize_reference", "extract_phase_polynomial", "gf_rank",
    "inverse_mod", "label_circuit", "legendre", "make_circuit",
    "normalize_to_standard_form", "parse_circuit",
    "phase_polynomial_direct", "probability", "serialize_circuit",
    "split_step", "weil_sum",
]
