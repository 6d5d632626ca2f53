"""Shared shorthand and theories for the test suite."""

import random
from fractions import Fraction

from cplogic import theories
from cplogic.oracle import _atom_names
from cplogic.syntax import (And, Atom, CPLaw, EffectLiteral, Formula,
                            HeadDisjunct, Not, Or, Theory, TRUE)


def atom(spec: str) -> Atom:
    """Build an atom from "P" or "P(a,b)" notation."""
    if "(" not in spec:
        return Atom(spec)
    pred, rest = spec.split("(", 1)
    return Atom(pred, tuple(rest.rstrip(")").split(",")))


def atoms(*specs: str) -> frozenset:
    return frozenset(atom(s) for s in specs)


def world_strs(world) -> list:
    return sorted(str(a) for a in world)


def deterministic_gears() -> Theory:
    """The gear train with every transfer made certain (probabilities 1)."""
    t = theories.get("gears")
    laws = tuple(
        CPLaw(law.vars,
              tuple(HeadDisjunct(d.literal, Fraction(1)) for d in law.head),
              law.body)
        for law in t.laws)
    return Theory(dict(t.domains), dict(t.exogenous), laws)


def random_deterministic_theory(seed: int, atoms: int = 6, laws: int = 6,
                                negation_rate: float = 0.4) -> Theory:
    """Seeded propositional deterministic theory; bodies may use negation
    freely, so the result may well be unsound."""
    rng = random.Random(seed)
    names = _atom_names(atoms)
    n_laws = rng.randint(1, laws)

    def body(depth: int) -> Formula:
        if depth == 0 or rng.random() < 0.45:
            atom = Atom(rng.choice(names))
            return Not(atom) if rng.random() < negation_rate else atom
        op = rng.choice((And, Or))
        return op(tuple(body(depth - 1) for _ in range(rng.randint(2, 3))))

    out = []
    for _ in range(n_laws):
        head_atom = Atom(rng.choice(names))
        phi = TRUE if rng.random() < 0.15 else body(2)
        out.append(CPLaw((), (HeadDisjunct(EffectLiteral(False, head_atom), Fraction(1)),), phi))
    return Theory({}, {}, tuple(out))
