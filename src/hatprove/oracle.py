"""Brute-force validity oracles.

The here-and-there oracle enumerates all interpretations (H, T) with
H subseteq T over the formula's atoms: each atom is either absent,
true only at `there`, or true at both worlds, so n atoms make 3^n
interpretations.  Classical validity enumerates ordinary truth tables.
These are the ground truth every prover is tested against.

A separate first-order evaluator and finite refuter cover closed,
function-free formulas: a constant domain of one to three elements,
rigid constants, and H subseteq T over ground atoms.  Equality is an
ordinary predicate, as it is for the provers, which get its axioms
from the goal.  A countermodel found there is a finite HT model in
which the formula is false at `here`, so the formula is not HT-valid.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional

from .terms import And, Atom, Exists, Forall, Formula, Fun, Iff, Imp, Neg, Or, Var
from .terms import free_vars, signature, subformulas
from .verdicts import SearchTimeout

HERE = "here"
THERE = "there"


class QuantifierError(ValueError):
    """Raised when a quantified formula reaches a propositional oracle."""


@dataclass(frozen=True)
class HTInterpretation:
    here: frozenset
    there: frozenset

    def __post_init__(self):
        if not self.here <= self.there:
            raise ValueError("persistence requires H subseteq T")

    def __str__(self):
        return f"H={{{','.join(sorted(self.here))}}} T={{{','.join(sorted(self.there))}}}"


def eval_ht(f: Formula, interp: HTInterpretation, world: str = HERE) -> bool:
    """Kripke evaluation over the two-world frame h <= t.

    Conjunction and disjunction are pointwise; implication and negation
    at `here` quantify over both worlds, at `there` they are classical.
    """
    if isinstance(f, Atom):
        if f.args:
            raise QuantifierError("oracle handles propositional atoms only")
        w = interp.here if world == HERE else interp.there
        return f.pred in w
    if isinstance(f, And):
        return eval_ht(f.left, interp, world) and eval_ht(f.right, interp, world)
    if isinstance(f, Or):
        return eval_ht(f.left, interp, world) or eval_ht(f.right, interp, world)
    if isinstance(f, Imp):
        if world == THERE:
            return (not eval_ht(f.left, interp, THERE)) or eval_ht(f.right, interp, THERE)
        return ((not eval_ht(f.left, interp, HERE)) or eval_ht(f.right, interp, HERE)) and (
            (not eval_ht(f.left, interp, THERE)) or eval_ht(f.right, interp, THERE)
        )
    if isinstance(f, Iff):
        return eval_ht(Imp(f.left, f.right), interp, world) and eval_ht(
            Imp(f.right, f.left), interp, world
        )
    if isinstance(f, Neg):
        # ~G is G -> falsum: at `here` G must fail at both worlds
        if world == THERE:
            return not eval_ht(f.body, interp, THERE)
        return not eval_ht(f.body, interp, HERE) and not eval_ht(f.body, interp, THERE)
    if isinstance(f, (Forall, Exists)):
        raise QuantifierError("oracle handles propositional formulas only")
    raise TypeError(f"not a formula: {f!r}")


def _prop_atoms(f: Formula) -> list:
    out = set()
    for g in subformulas(f):
        if isinstance(g, (Forall, Exists)):
            raise QuantifierError("oracle handles propositional formulas only")
        if isinstance(g, Atom):
            if g.args:
                raise QuantifierError("oracle handles propositional atoms only")
            out.add(g.pred)
    return sorted(out)


def ht_interpretations(atom_names) -> "itertools.product":
    """All (H, T) pairs with H subseteq T, in enumeration order.

    Per atom: 0 = absent, 1 = there only, 2 = both worlds.
    """
    names = sorted(atom_names)
    for values in itertools.product((0, 1, 2), repeat=len(names)):
        here = frozenset(n for n, v in zip(names, values) if v == 2)
        there = frozenset(n for n, v in zip(names, values) if v >= 1)
        yield HTInterpretation(here, there)


def ht_countermodel(f: Formula) -> Optional[HTInterpretation]:
    """Smallest interpretation (in enumeration order) falsifying f at here."""
    for interp in ht_interpretations(_prop_atoms(f)):
        if not eval_ht(f, interp, HERE):
            return interp
    return None


def ht_valid_prop(f: Formula) -> bool:
    """Valid in propositional here-and-there: true at `here` in all models."""
    return ht_countermodel(f) is None


def classical_valid_prop(f: Formula) -> bool:
    """Two-valued truth-table validity."""
    names = _prop_atoms(f)
    for values in itertools.product((False, True), repeat=len(names)):
        assign = dict(zip(names, values))
        if not _eval_classical(f, assign):
            return False
    return True


def _eval_classical(f: Formula, assign: dict) -> bool:
    if isinstance(f, Atom):
        return assign[f.pred]
    if isinstance(f, And):
        return _eval_classical(f.left, assign) and _eval_classical(f.right, assign)
    if isinstance(f, Or):
        return _eval_classical(f.left, assign) or _eval_classical(f.right, assign)
    if isinstance(f, Imp):
        return (not _eval_classical(f.left, assign)) or _eval_classical(f.right, assign)
    if isinstance(f, Iff):
        return _eval_classical(f.left, assign) == _eval_classical(f.right, assign)
    if isinstance(f, Neg):
        return not _eval_classical(f.body, assign)
    raise QuantifierError("oracle handles propositional formulas only")


# ============================================================
# First-order interpretations over a finite constant domain
# ============================================================

# The refuter declines beyond a domain of three elements and beyond
# 3^9 = 19683 models (constant assignments times (H, T) pairs), which
# also caps the ground atoms at nine.
MAX_DOMAIN = 3
MAX_MODELS = 3**9


@dataclass(frozen=True)
class HTStructure(HTInterpretation):
    """A first-order HT interpretation over the domain {0, ..., size-1}.

    `here` and `there` hold ground atoms `(pred, args)` with `args` a
    tuple of domain elements; `constants` pairs each constant symbol
    with its element, the same at both worlds.
    """

    size: int = 1
    constants: tuple = ()

    def __str__(self):
        def atoms(world):
            return ",".join(
                f"{p}({','.join(map(str, args))})" if args else p
                for p, args in sorted(world)
            )

        consts = "".join(f" {c}={d}" for c, d in self.constants)
        return f"D={{0..{self.size - 1}}}{consts} H={{{atoms(self.here)}}} T={{{atoms(self.there)}}}"


def eval_ht_fo(f: Formula, model: HTStructure, world: str = HERE) -> bool:
    """Kripke evaluation of a closed, function-free first-order formula.

    The connectives are evaluated as in `eval_ht`.  Quantifiers range
    over the constant domain; by persistence a universal at `here`
    needs only its instances at `here`.
    """
    return _eval_fo(f, model, dict(model.constants), {}, world)


def _eval_fo(f, model, consts, env, world) -> bool:
    if isinstance(f, Atom):
        args = []
        for a in f.args:
            if isinstance(a, Var) and a.id in env:
                args.append(env[a.id])
            elif isinstance(a, Fun) and not a.args and a.sym in consts:
                args.append(consts[a.sym])
            else:
                raise ValueError(f"{a} is not a bound variable or a known constant")
        w = model.here if world == HERE else model.there
        return (f.pred, tuple(args)) in w
    if isinstance(f, And):
        return _eval_fo(f.left, model, consts, env, world) and _eval_fo(
            f.right, model, consts, env, world
        )
    if isinstance(f, Or):
        return _eval_fo(f.left, model, consts, env, world) or _eval_fo(
            f.right, model, consts, env, world
        )
    if isinstance(f, Imp):
        worlds = (THERE,) if world == THERE else (HERE, THERE)
        return all(
            not _eval_fo(f.left, model, consts, env, w)
            or _eval_fo(f.right, model, consts, env, w)
            for w in worlds
        )
    if isinstance(f, Iff):
        return _eval_fo(Imp(f.left, f.right), model, consts, env, world) and _eval_fo(
            Imp(f.right, f.left), model, consts, env, world
        )
    if isinstance(f, Neg):
        worlds = (THERE,) if world == THERE else (HERE, THERE)
        return not any(_eval_fo(f.body, model, consts, env, w) for w in worlds)
    if isinstance(f, (Forall, Exists)):
        test = all if isinstance(f, Forall) else any
        return test(
            _eval_fo(f.body, model, consts, {**env, f.var.id: d}, world)
            for d in range(model.size)
        )
    raise TypeError(f"not a formula: {f!r}")


def _fo_signature(f: Formula):
    """(predicates as (name, arity), constant symbols), or None when f
    has a free variable or a function symbol of arity one or more."""
    preds, funs = signature(f)
    if free_vars(f) or any(n for _, n in funs):
        return None
    return preds, [c for c, _ in funs]


def ht_countermodel_fo(
    f: Formula, size: int, deadline: Optional[float] = None
) -> Optional[HTStructure]:
    """A model on the domain {0, ..., size-1} falsifying f at `here`.

    Enumerates every constant assignment and every (H, T) over the
    ground atoms.  Returns None when there is no such model, and also
    declines with None outside its fragment: a free variable, a
    function symbol, a size outside 1..MAX_DOMAIN or more than
    MAX_MODELS models to try.  Raises SearchTimeout once the deadline
    has passed.
    """
    sig = _fo_signature(f)
    if sig is None or not 1 <= size <= MAX_DOMAIN:
        return None
    preds, consts = sig
    domain = range(size)
    atoms = [
        (p, args) for p, n in preds for args in itertools.product(domain, repeat=n)
    ]
    consts = sorted(consts)
    if size ** len(consts) * 3 ** len(atoms) > MAX_MODELS:
        return None
    for values in itertools.product(domain, repeat=len(consts)):
        constants = tuple(zip(consts, values))
        for interp in ht_interpretations(atoms):
            if deadline is not None and time.monotonic() > deadline:
                raise SearchTimeout
            model = HTStructure(interp.here, interp.there, size, constants)
            if not eval_ht_fo(f, model, HERE):
                return model
    return None
