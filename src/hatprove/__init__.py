"""Theorem provers for the first-order logic of here-and-there.

A native sequent prover, an axiomatic embedding into intuitionistic
logic discharged by a single-succedent sequent prover and a prefixed
non-clausal connection prover, and a brute-force here-and-there oracle
used as ground truth.
"""

from .frontend import (
    Problem,
    ParseError,
    add_equality_axioms,
    assemble_goal,
    parse_native_formula,
    parse_problem,
    to_native,
)
from .oracle import (
    HTInterpretation,
    classical_valid_prop,
    eval_ht,
    ht_countermodel,
    ht_valid_prop,
)
from .terms import (
    And,
    Atom,
    Bindings,
    Exists,
    Forall,
    Formula,
    Fun,
    Iff,
    Imp,
    Neg,
    Or,
    Var,
    con,
    formula_size,
    free_vars,
    fresh_var,
    skolem_term,
    substitute,
    unify_occurs,
)
from .verdicts import ProverResult, Verdict

__all__ = [name for name in dir() if not name.startswith("_")]
