"""Inputs of the benchmark workloads and their known statuses.

Three corpora:

* propositional families in the native syntax, each a ladder of sizes
  whose status follows from the family's construction (the Dyckhoff /
  ILTP SYJ2xx schemas and three ladders that separate HT from IL);
* the embed-prop corpus: every formula of at most five nodes over p, q
  plus a sample of 300 formulas of six or seven nodes, the corpus the
  embedding-soundness acceptance test draws, and a deep Horn chain;
* `problems/mini`, with a hand-written status table per logic.

Every status that the propositional oracle can decide is cross-checked
against it by `check_status`; a disagreement raises `StatusMismatch`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from hatprove.frontend import parse_native_formula, parse_problem, assemble_goal
from hatprove.terms import And, Atom, Formula, Iff, Imp, Neg, Or

ORACLE_MAX_ATOMS = 8


class StatusMismatch(Exception):
    """A construction status disagrees with the oracle."""


@dataclass(frozen=True)
class Problem:
    name: str
    fmt: str                    # "native" or "tptp"
    text: Optional[str]         # native text to write; None for files on disk
    ht_valid: bool
    il_valid: Optional[bool] = None   # only where an IL backend runs it


@dataclass(frozen=True)
class Attempt:
    """One (problem, backend) pair run under a budget."""

    problem: str
    path: str
    fmt: str
    backend: str
    budget: float
    valid: bool                 # status in the backend's logic
    known: Optional[str] = None  # the failing status the backend gives today


def logic_valid(problem: Problem, backend: str) -> bool:
    """`lj` and `conn` decide intuitionistic validity, the rest HT validity."""
    if backend in ("lj", "conn"):
        if problem.il_valid is None:
            raise ValueError(f"{problem.name}: no IL status for {backend}")
        return problem.il_valid
    return problem.ht_valid


# ============================================================
# Propositional families (native syntax)
# ============================================================


def _conj(parts) -> str:
    return "(" + " , ".join(parts) + ")"


def _disj(parts) -> str:
    return "(" + " ; ".join(parts) + ")"


def horn(n: int, gap: Optional[int] = None) -> str:
    """p0 , (p0 => p1) , ... , (p{n-1} => pn) => pn; `gap` drops one link."""
    links = [f"(p{i} => p{i + 1})" for i in range(n) if i != gap]
    return f"{_conj(['p0'] + links)} => p{n}"


def schwichtenberg(n: int) -> str:
    """SYJ209-style: pn , (pi => (pi => p{i-1})) for i = n..1, proves p0."""
    links = [f"(p{i} => (p{i} => p{i - 1}))" for i in range(n, 0, -1)]
    return f"{_conj([f'p{n}'] + links)} => p0"


def de_bruijn(n: int) -> str:
    """SYJ201: over a cycle of 2n+1 atoms, each (pi <=> p{i+1}) => all."""
    m = 2 * n + 1
    everything = _conj([f"p{i}" for i in range(1, m + 1)])
    cycle = [
        f"((p{i} <=> p{i % m + 1}) => {everything})" for i in range(1, m + 1)
    ]
    return f"{_conj(cycle)} => {everything}"


def g3_chain(n: int) -> str:
    """(p0 => p1) ; ... ; (p{n-1} => pn): HT-valid from n = 3, never in IL."""
    return _disj([f"(p{i} => p{i + 1})" for i in range(n)])


def linearity_cycle(n: int) -> str:
    """(p0 => p1) ; ... ; (p{n-1} => p0): valid in every Goedel logic."""
    return _disj([f"(p{i} => p{(i + 1) % n})" for i in range(n)])


def weak_lem(n: int) -> str:
    """(~ p1 ; ~ ~ p1) , ... , (~ pn ; ~ ~ pn): valid in HT, not in IL."""
    return _conj([f"(~ p{i} ; ~ ~ p{i})" for i in range(1, n + 1)])


# (family, generator, sizes, HT status by size).  With the 1 s lht
# budget every solved size finishes within half of it; the frontier size
# of each heavy family needs at least twice the budget today.
_STEPS = tuple(range(10, 121, 10))
LHT_FAMILIES = (
    ("horn", horn, tuple(range(1, 23)), lambda n: True),
    ("horn-frontier", horn, (50,), lambda n: True),
    ("horn-gap", lambda n: horn(n, gap=n // 2), tuple(range(2, 23)), lambda n: False),
    ("horn-gap-frontier", lambda n: horn(n, gap=n // 2), (40,), lambda n: False),
    ("schwicht", schwichtenberg, (1, 2, 3, 4, 5), lambda n: True),
    ("schwicht-frontier", schwichtenberg, (7,), lambda n: True),
    ("debruijn", de_bruijn, (1,), lambda n: True),
    ("debruijn-frontier", de_bruijn, (3,), lambda n: True),
    ("g3chain", g3_chain, tuple(range(2, 9)) + _STEPS, lambda n: n >= 3),
    ("lincycle", linearity_cycle, tuple(range(2, 9)) + _STEPS, lambda n: True),
    ("weaklem", weak_lem, tuple(range(1, 9)) + _STEPS, lambda n: True),
    # the recursive search overflows Python's stack on this one today
    ("horn-deep", horn, (300,), lambda n: True),
)

LHT_KNOWN = {"horn-deep-300": "Error"}


def lht_family_problems() -> list:
    return [
        Problem(f"{family}-{n}", "native", gen(n), status(n))
        for family, gen, sizes, status in LHT_FAMILIES
        for n in sizes
    ]


# ============================================================
# embed-prop: the embedding-soundness corpus
# ============================================================

EMBED_CORPUS_SEED = 99
EMBED_SAMPLE = 300
EMBED_INVALID = 8
# Deep input overflows the stack of both embedding backends today.
EMBED_DEEP = ("horn-deep-100", horn(100))


def enumerate_formulas(max_size: int):
    """Every formula over p, q and and/or/imp/neg with at most max_size nodes.

    Same order as the test suite's enumeration, so that seed 99 draws
    the corpus the embedding-soundness acceptance test draws.
    """
    atoms = [Atom("p"), Atom("q")]

    def gen(size):
        if size == 1:
            yield from atoms
            return
        for f in gen(size - 1):
            yield Neg(f)
        for ls in range(1, size - 1):
            for left in gen(ls):
                for right in gen(size - 1 - ls):
                    yield And(left, right)
                    yield Or(left, right)
                    yield Imp(left, right)

    for size in range(1, max_size + 1):
        yield from gen(size)


def embed_prop_formulas(seed: int, oracle) -> tuple:
    """(valid, invalid sample), labelled by `oracle`.

    The corpus is drawn with EMBED_CORPUS_SEED, so its valid part is
    always the acceptance test's 94 formulas: a corpus drawn by `seed`
    would move the valid count by about 12 % between seeds.  `seed`
    draws the HT-invalid formulas from the rest of the corpus.
    """
    formulas = list(enumerate_formulas(5))
    larger = list(enumerate_formulas(7))[len(formulas):]
    formulas += random.Random(EMBED_CORPUS_SEED).sample(larger, EMBED_SAMPLE)
    valid, invalid = [], []
    for f in formulas:
        (valid if oracle(f) else invalid).append(f)
    return valid, random.Random(seed).sample(invalid, EMBED_INVALID)


# ============================================================
# problems/mini: (HT valid, IL valid) per problem
# ============================================================

MINI_STATUS = {
    "contradictory_axioms": (True, True),
    "contraposition": (True, True),
    "contraposition_conv": (False, False),
    "demorgan_and": (True, False),
    "dne_iff": (False, False),
    "double_neg_elim": (False, False),
    "double_neg_lem": (True, True),
    "drinker": (True, False),
    "eq_congruence": (True, True),
    "eq_symmetry": (True, True),
    "exists_conj_dist": (True, True),
    "exists_imp_forall": (True, True),
    "forall_imp_exists": (True, True),
    "hos_instance": (True, False),
    "implication_chain": (True, True),
    "instantiation": (True, True),
    "kreisel_putnam": (True, False),
    "linearity_dist": (True, False),
    "modus_ponens": (True, True),
    "neg_or_variant": (False, False),
    "or_contraction": (True, True),
    "peirce": (False, False),
    "quantifier_shift": (False, False),
    "smetanich": (True, False),
    "syn048_pel18": (True, False),
    "syn387_lem": (False, False),
    "syn416_pel16": (True, False),
    "syn971_witness": (True, False),
    "weak_lem": (True, False),
    "witness_intro": (True, True),
}

# conn proves both first-order formulas, which are not IL-valid: its
# skolem terms miss arguments and no domain condition is checked.
MINI_KNOWN = {("conn", "drinker"): "Theorem", ("conn", "syn971_witness"): "Theorem"}


def mini_problems(root: Path) -> list:
    names = sorted(p.stem for p in root.glob("*.p"))
    if names != sorted(MINI_STATUS):
        raise StatusMismatch(
            f"{root} holds {names}, the status table {sorted(MINI_STATUS)}"
        )
    return [
        Problem(name, "tptp", None, ht, il)
        for name, (ht, il) in sorted(MINI_STATUS.items())
    ]


# ============================================================
# Cross-checking statuses with the oracle
# ============================================================


def atom_count(f: Formula) -> Optional[int]:
    """Distinct atom count of a propositional formula, None otherwise."""
    names: set = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            if g.args:
                return None
            names.add(g.pred)
        elif isinstance(g, Neg):
            stack.append(g.body)
        elif isinstance(g, (And, Or, Imp, Iff)):
            stack += [g.left, g.right]
        else:
            return None
    return len(names)


def problem_formula(problem: Problem, root: Optional[Path] = None) -> Formula:
    if problem.fmt == "native":
        return parse_native_formula(problem.text, close=True)
    path = root / f"{problem.name}.p"
    return assemble_goal(
        parse_problem(path.read_bytes(), "tptp", name=problem.name, axiom_root=root)
    )


def check_status(problem: Problem, f: Formula, oracle) -> bool:
    """Cross-check one problem; True when the oracle could decide it.

    IL-valid implies HT-valid, so an IL-valid entry whose formula the
    oracle refutes is a mismatch too.
    """
    if problem.il_valid and not problem.ht_valid:
        raise StatusMismatch(f"{problem.name}: IL-valid but not HT-valid")
    n = atom_count(f)
    if n is None or n > ORACLE_MAX_ATOMS:
        return False
    if oracle(f) != problem.ht_valid:
        raise StatusMismatch(
            f"{problem.name}: table says HT-valid={problem.ht_valid}, "
            f"the oracle says {not problem.ht_valid}"
        )
    return True
