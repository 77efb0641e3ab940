"""Brute-force here-and-there oracle.

One evaluator, `_eval`, works on a whole block of interpretations at
once.  A model is a constant domain {0, ..., size-1}, an assignment of
the constant symbols to elements (rigid, the same at both worlds) and
a pair H subseteq T of ground atoms `(pred, args)`; a propositional
atom is `(pred, ())` over the one-element domain.  Each ground atom
carries two integer bit masks with one bit per interpretation, its
truth at `here` and at `there`, and `_eval` returns the pair of masks
of a formula, so each connective is a few bitwise operations.
Equality is an ordinary predicate, as it is for the provers, which get
its axioms from the goal.

Interpretations are numbered in enumeration order: atoms sorted, the
first atom most significant, and per atom 0 = absent, 1 = true only at
`there`, 2 = true at both worlds; constant assignments vary slowest.
The lowest zero bit of the `here` mask is therefore the first
countermodel.  A block gives bit positions to at most the last
BLOCK_ATOMS atoms; the earlier ones are fixed per block, in the same
order.  The `there` world is classical and T ranges over every subset,
so classical validity is a full `there` mask.  These are the ground
truth every prover is tested against.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import lru_cache
from operator import and_, or_
from typing import Optional

from .terms import QUANT, And, Atom, Forall, Formula, Fun, Iff, Imp, Neg, Or
from .terms import free_vars, signature, subformulas
from .verdicts import SearchTimeout

HERE = "here"
THERE = "there"

# 3^10 bits, about 7 KB a mask
BLOCK_ATOMS = 10

# The first-order refuter declines beyond a domain of three elements
# and beyond 3^9 = 19683 models (constant assignments times (H, T)
# pairs), which also caps the ground atoms at nine.
MAX_DOMAIN = 3
MAX_MODELS = 3**9


class QuantifierError(ValueError):
    """Raised when a quantified formula reaches a propositional oracle."""


@dataclass(frozen=True)
class HTInterpretation:
    """An HT interpretation over the domain {0, ..., size-1}.

    `here` and `there` hold ground atoms `(pred, args)` with `args` a
    tuple of domain elements; `constants` pairs each constant symbol
    with its element, the same at both worlds.
    """

    here: frozenset
    there: frozenset
    size: int = 1
    constants: tuple = ()

    def __post_init__(self):
        if not self.here <= self.there:
            raise ValueError("persistence requires H subseteq T")

    def __str__(self):
        def atoms(world):
            return ",".join(
                f"{p}({','.join(map(str, args))})" if args else p
                for p, args in sorted(world)
            )

        consts = "".join(f" {c}={d}" for c, d in self.constants)
        return f"D={{0..{self.size - 1}}}{consts} H={{{atoms(self.here)}}} T={{{atoms(self.there)}}}"


def _eval(f: Formula, masks: dict, full: int, size: int, env: dict) -> tuple:
    """The (here, there) masks of f: bit i is set where f is true in
    interpretation i.

    `masks` maps ground atoms to their mask pairs (absent: false
    everywhere), `full` has a bit for every interpretation, and `env`
    maps bound variables and constants, both as terms, to elements.
    Implication and negation at `here` look at both worlds, at `there`
    they are classical; by persistence a universal at `here` needs only
    its instances at `here`.
    """
    if isinstance(f, Atom):
        try:
            key = f.pred, tuple(map(env.__getitem__, f.args))
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]} is not a bound variable or a known constant") from None
        return masks.get(key, (0, 0))
    if isinstance(f, Neg):
        h, t = _eval(f.body, masks, full, size, env)
        return full ^ (h | t), full ^ t
    if isinstance(f, QUANT):
        op, h, t = (and_, full, full) if isinstance(f, Forall) else (or_, 0, 0)
        for d in range(size):
            bh, bt = _eval(f.body, masks, full, size, {**env, f.var: d})
            h, t = op(h, bh), op(t, bt)
        return h, t
    lh, lt = _eval(f.left, masks, full, size, env)
    rh, rt = _eval(f.right, masks, full, size, env)
    if isinstance(f, And):
        return lh & rh, lt & rt
    if isinstance(f, Or):
        return lh | rh, lt | rt
    there = (full ^ lt) | rt
    if isinstance(f, Imp):
        return ((full ^ lh) | rh) & there, there
    if isinstance(f, Iff):
        back = (full ^ rt) | lt
        return ((full ^ lh) | rh) & ((full ^ rh) | lh) & there & back, there & back
    raise TypeError(f"not a formula: {f!r}")


@lru_cache(maxsize=None)
def _atom_masks(j: int, n: int) -> tuple:
    """The (here, there) masks of atom j of a block of n: its value is
    the base-3 digit of weight 3^(n-1-j) in the interpretation's number."""
    weight = 3 ** (n - 1 - j)
    # one bit at the start of every period of 3 * weight interpretations
    starts = ((1 << 3**n) - 1) // ((1 << 3 * weight) - 1)
    here = ((1 << weight) - 1) << 2 * weight
    there = ((1 << 2 * weight) - 1) << weight
    return here * starts, there * starts


def _blocks(f: Formula, atoms: list, size: int = 1, consts: list = (), deadline=None):
    """Evaluate f in every model over the sorted `atoms`, a block at a time.

    Yields (here, there, full, constants, fixed) per block in
    enumeration order, where `fixed` holds the values of the atoms
    before the block's.  Raises SearchTimeout once the deadline has
    passed, checked per block.
    """
    outer, inner = atoms[:-BLOCK_ATOMS], atoms[-BLOCK_ATOMS:]
    n = len(inner)
    full = (1 << 3**n) - 1
    block = {a: _atom_masks(j, n) for j, a in enumerate(inner)}
    for values in itertools.product(range(size), repeat=len(consts)):
        constants = tuple(zip(consts, values))
        env = {Fun(c): d for c, d in constants}
        for fixed in itertools.product((0, 1, 2), repeat=len(outer)):
            if deadline is not None and time.monotonic() > deadline:
                raise SearchTimeout
            masks = {a: (full if v == 2 else 0, full if v else 0) for a, v in zip(outer, fixed)}
            masks.update(block)
            here, there = _eval(f, masks, full, size, env)
            yield here, there, full, constants, fixed


def _countermodel(f: Formula, atoms: list, size=1, consts=(), deadline=None):
    """The first model in enumeration order falsifying f at `here`."""
    n = min(len(atoms), BLOCK_ATOMS)
    for here, _, full, constants, fixed in _blocks(f, atoms, size, consts, deadline):
        missing = full ^ here
        if missing:
            i = (missing & -missing).bit_length() - 1
            values = fixed + tuple(i // 3 ** (n - 1 - j) % 3 for j in range(n))
            return HTInterpretation(
                frozenset(a for a, v in zip(atoms, values) if v == 2),
                frozenset(a for a, v in zip(atoms, values) if v),
                size,
                constants,
            )
    return None


def _prop_atoms(f: Formula) -> list:
    atoms = set()
    for g in subformulas(f):
        if isinstance(g, QUANT) or isinstance(g, Atom) and g.args:
            raise QuantifierError("oracle handles propositional formulas only")
        if isinstance(g, Atom):
            atoms.add((g.pred, ()))
    return sorted(atoms)


def eval_ht(f: Formula, model: HTInterpretation, world: str = HERE) -> bool:
    """Kripke evaluation of a closed, function-free formula at `world`
    of the two-world frame h <= t, as a block of one interpretation."""
    masks = {a: (int(a in model.here), 1) for a in model.there}
    env = {Fun(c): d for c, d in model.constants}
    here, there = _eval(f, masks, 1, model.size, env)
    return bool(here if world == HERE else there)


def ht_countermodel(f: Formula) -> Optional[HTInterpretation]:
    """First interpretation (in enumeration order) falsifying the
    propositional formula f at `here`; raises QuantifierError on a
    quantifier or an atom with arguments."""
    return _countermodel(f, _prop_atoms(f))


def ht_valid_prop(f: Formula) -> bool:
    """Valid in propositional here-and-there: true at `here` in all models."""
    return all(h == full for h, _, full, _, _ in _blocks(f, _prop_atoms(f)))


def classical_valid_prop(f: Formula) -> bool:
    """Two-valued validity: true at `there` for every T."""
    return all(t == full for _, t, full, _, _ in _blocks(f, _prop_atoms(f)))


def ht_countermodel_fo(
    f: Formula, size: int, deadline: Optional[float] = None
) -> Optional[HTInterpretation]:
    """A model on the domain {0, ..., size-1} falsifying f at `here`.

    Enumerates every constant assignment and every (H, T) over the
    ground atoms.  Returns None when there is no such model, and also
    declines with None outside its fragment: a free variable, a
    function symbol, a size outside 1..MAX_DOMAIN or more than
    MAX_MODELS models to try.  Raises SearchTimeout once the deadline
    has passed.
    """
    preds, funs = signature(f)
    if free_vars(f) or any(n for _, n in funs) or not 1 <= size <= MAX_DOMAIN:
        return None
    consts = sorted(c for c, _ in funs)
    atoms = sorted(
        (p, args) for p, n in preds for args in itertools.product(range(size), repeat=n)
    )
    if size ** len(consts) * 3 ** len(atoms) > MAX_MODELS:
        return None
    return _countermodel(f, atoms, size, consts, deadline)
