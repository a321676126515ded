"""Hochschild cohomology of cluster-tilted algebras of finite representation
type: closed-form series from the quiver, with a brute-force exact-linear-
algebra oracle to verify every claim."""

from .fields import QQ, GF2, GF3, GF5, GF7, FieldSpec
from .quiver import Quiver, canonical_form, chordless_cycles, detect_dynkin, dynkin_seed, enumerate_class, mutate
from .relations import generate_relations
from .algebra import BoundAlgebra, CartanData, build_algebra, cartan
from .series import HSeries, f_coeff, format_h, hh_dim, parse_h
from .classify import classify_D, hh_closed_form, hh_type_A, lookup_E
from .oracle import center_dim, hh1_dim, hh_dims
from .verify import VerifyReport, check_quiver, verify_suite

__version__ = "0.1.0"

__all__ = [
    "QQ", "GF2", "GF3", "GF5", "GF7", "FieldSpec",
    "Quiver", "canonical_form", "chordless_cycles", "detect_dynkin",
    "dynkin_seed", "enumerate_class", "mutate",
    "generate_relations",
    "BoundAlgebra", "CartanData", "build_algebra", "cartan",
    "HSeries", "f_coeff", "format_h", "hh_dim", "parse_h",
    "classify_D", "hh_closed_form", "hh_type_A", "lookup_E",
    "center_dim", "hh1_dim", "hh_dims",
    "VerifyReport", "check_quiver", "verify_suite",
    "__version__",
]
