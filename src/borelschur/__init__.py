"""Exact Borel-Schur algebra toolkit.

Builds the Borel subalgebra of the Schur algebra from the divided-power
enveloping algebra of strictly upper-triangular matrices, checks the
construction against the classical tensor-space realization, and
transports minimal graded projective resolutions of the trivial module
into minimal projective resolutions of the one-dimensional simples.
"""

from .arrows import BorelAlgebra, ConvexTruncation, arrow_is_kept
from .divided_powers import DividedPowerAlgebra
from .fields import PrimeField, Rationals, field_of_characteristic
from .idempotents import (
    chain_report,
    quotient_algebra,
    tor_dimensions,
    two_idempotent_report,
)
from .resolutions import ModuleComplex, minimal_resolution
from .tensor_space import TensorAction, upper_table_json, verify_isomorphism
from .transport import (
    ext_table_csv,
    resolve_simple,
    transport_resolution,
    verification,
)

__all__ = [
    "BorelAlgebra",
    "ConvexTruncation",
    "DividedPowerAlgebra",
    "ModuleComplex",
    "PrimeField",
    "Rationals",
    "TensorAction",
    "arrow_is_kept",
    "chain_report",
    "ext_table_csv",
    "field_of_characteristic",
    "minimal_resolution",
    "quotient_algebra",
    "resolve_simple",
    "tor_dimensions",
    "transport_resolution",
    "two_idempotent_report",
    "upper_table_json",
    "verification",
    "verify_isomorphism",
]
