"""Exact singularity invariants: Frobenius roots, nu-invariants, F-pure
threshold enclosures and test ideals over prime fields, plus log canonical
thresholds and multiplier ideals of monomial ideals, with a prime-sweep
experiment harness."""

from .exact import PrimePower, format_rational, parse_rational, prime_power
from .gfpoly import GFPoly
from .groebner import Ideal, MonomialIdeal, normal_form
from .frobenius import (
    FptEnclosure,
    NuValue,
    TestIdealResult,
    bracket_power,
    fpt_enclosure,
    fpt_point,
    frobenius_root,
    frobenius_root_principal_power,
    nu,
    test_ideal,
)
from .newton import (
    INFINITY,
    NewtonPolytope,
    jumping_candidates,
    lct_monomial,
    multiplier_ideal_monomial,
    newton_order,
)
from .reduction import (
    CorpusEntry,
    IntegerIdeal,
    corpus,
    reduce_mod_p,
    truncate_ideal,
    truncate_integer_ideal,
)
from .experiment import ConvergenceReport, SweepRecord, convergence_report, emit, sweep

__version__ = "0.1.0"

__all__ = [
    "PrimePower", "format_rational", "parse_rational", "prime_power",
    "GFPoly",
    "Ideal", "MonomialIdeal", "normal_form",
    "FptEnclosure", "NuValue", "TestIdealResult", "bracket_power", "fpt_enclosure",
    "fpt_point", "frobenius_root", "frobenius_root_principal_power", "nu",
    "test_ideal",
    "INFINITY", "NewtonPolytope", "jumping_candidates", "lct_monomial",
    "multiplier_ideal_monomial", "newton_order",
    "CorpusEntry", "IntegerIdeal", "corpus", "reduce_mod_p", "truncate_ideal",
    "truncate_integer_ideal",
    "ConvergenceReport", "SweepRecord", "convergence_report", "emit", "sweep",
]
