"""Exact solver for a*x^2 + 2b*x*y + c*y^2 = m over the integers.

Everything runs on exact arithmetic: quadratic irrationals as integer
triples in lowest terms, unimodular integer matrices, and reduced words in
the continued-fraction groupoid.  See README.md for the CLI and a tour.
"""

from .errors import (
    ComposeMismatch, DiscriminantMismatch, DivisionByZero, InternalLimit, InvalidArgument,
    InvalidDiscriminant, NotAFormRoot, NotDivisible, NotIrrational, NotUnimodular,
    QuadformError, ZeroTarget,
)
from .exact import QuadIrr, is_square, isqrt, qi_floor, qi_make
from .lattice import Mat2, PMat, mobius_apply, pmat_canon
from .groupoid import (
    AdditiveIntegers, Morphism, Orbit, ProjectiveMatrices, compose, cycle_loop, derivative,
    free_extend, generator_matrix, hom_base, hom_in_H, identity_morphism, invert,
    morphism_matrix, normal_form, orbit,
)
from .forms import (
    Form, act, equivalent_sl, form_from_root, pell_fundamental, root, stabilizer_generator,
)
from .solver import (
    RepClass, SolveReport, attach_form, enumerate_solutions, proper_residue,
    residue_classes, solve_proper, verify_representation,
)

__all__ = [
    "ComposeMismatch", "DiscriminantMismatch", "DivisionByZero", "InternalLimit",
    "InvalidArgument", "InvalidDiscriminant", "NotAFormRoot", "NotDivisible",
    "NotIrrational", "NotUnimodular", "QuadformError", "ZeroTarget",
    "QuadIrr", "is_square", "isqrt", "qi_floor", "qi_make",
    "Mat2", "PMat", "mobius_apply", "pmat_canon",
    "AdditiveIntegers", "Morphism", "Orbit", "ProjectiveMatrices", "compose",
    "cycle_loop", "derivative", "free_extend", "generator_matrix", "hom_base",
    "hom_in_H", "identity_morphism", "invert", "morphism_matrix", "normal_form", "orbit",
    "Form", "act", "equivalent_sl", "form_from_root", "pell_fundamental", "root",
    "stabilizer_generator",
    "RepClass", "SolveReport", "attach_form", "enumerate_solutions", "proper_residue",
    "residue_classes", "solve_proper", "verify_representation",
]
