"""Synthesis and verification of circuits over global Molmer-Sorensen pulses."""

__version__ = "0.1.0"

from .circuit import (ArgumentError, Circuit, CostReport, Exponential, Gate,
                      GuardError, PerPair, PowerLawSum, SchemaError, Uniform, cnot,
                      cp, deserialize, empty, gms, global_phase, h, rx, ry, rz,
                      serialize, xx)

__all__ = [
    "ArgumentError", "Circuit", "CostReport", "Exponential", "Gate", "GuardError", "PerPair",
    "PowerLawSum", "SchemaError", "Uniform", "cnot", "cp", "deserialize", "empty", "gms",
    "global_phase", "h", "rx", "ry", "rz", "serialize", "xx", "__version__",
]
