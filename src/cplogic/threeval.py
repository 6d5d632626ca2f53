"""Kleene three-valued interpretations and formula evaluation.

Endogenous atoms take one of three values; exogenous atoms are always
two-valued and are read from a separate interpretation.  Conjunction is
minimum and disjunction maximum in the truth order f < u < t, and negation
swaps t/f while fixing u.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .syntax import (And, Atom, Exists, ForAll, Formula, Not, Or, Truth,
                     format_atom_set)


class UnboundAtomError(Exception):
    """Atom outside both the endogenous and the exogenous universe."""


class TruthValue(Enum):
    FALSE = 0
    UNKNOWN = 1
    TRUE = 2

    def __str__(self) -> str:
        return {0: "f", 1: "u", 2: "t"}[self.value]


F, U, T = TruthValue.FALSE, TruthValue.UNKNOWN, TruthValue.TRUE

_NOT = {F: T, U: U, T: F}


@dataclass(frozen=True)
class ThreeValuedInterp:
    """Total map from a finite atom universe to {t, f, u}.

    Stored as the t/u partition; every other universe atom is f.
    """

    universe: frozenset
    true_set: frozenset = field(default_factory=frozenset)
    unknown_set: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not self.true_set <= self.universe or not self.unknown_set <= self.universe:
            raise ValueError("assignment outside the universe")
        if self.true_set & self.unknown_set:
            raise ValueError("atom assigned both t and u")

    @property
    def false_set(self) -> frozenset:
        return self.universe - self.true_set - self.unknown_set

    def value(self, atom: Atom) -> TruthValue:
        if atom in self.true_set:
            return T
        if atom in self.unknown_set:
            return U
        if atom in self.universe:
            return F
        raise UnboundAtomError(f"atom {atom} not in the universe")

    def __str__(self) -> str:
        return (f"t:{format_atom_set(self.true_set)} "
                f"u:{format_atom_set(self.unknown_set)} "
                f"f:{format_atom_set(self.false_set)}")


def kleene_eval(phi: Formula, nu: ThreeValuedInterp, X: frozenset,
                exogenous: frozenset | None = None) -> TruthValue:
    """Kleene truth value of ground ``phi`` under ``nu``, exogenous atoms from ``X``.

    Atoms outside ``nu``'s universe must belong to ``exogenous`` (when given)
    and are read two-valued from ``X``; otherwise they are unbound.
    """
    match phi:
        case Atom():
            if phi in nu.universe:
                return nu.value(phi)
            if exogenous is not None and phi not in exogenous:
                raise UnboundAtomError(f"atom {phi} not in the endogenous or exogenous universe")
            if exogenous is None:
                raise UnboundAtomError(f"atom {phi} not in the universe")
            return T if phi in X else F
        case Truth(v):
            return T if v else F
        case Not(sub):
            return _NOT[kleene_eval(sub, nu, X, exogenous)]
        case And(parts):
            value = T
            for p in parts:
                value = min(value, kleene_eval(p, nu, X, exogenous), key=lambda t: t.value)
                if value is F:
                    return F
            return value
        case Or(parts):
            value = F
            for p in parts:
                value = max(value, kleene_eval(p, nu, X, exogenous), key=lambda t: t.value)
                if value is T:
                    return T
            return value
        case ForAll() | Exists():
            raise ValueError("quantifier in a formula handed to kleene_eval; ground it first")
    raise TypeError(f"not a formula: {phi!r}")


def holds(phi: Formula, true_atoms) -> bool:
    """Two-valued satisfaction: atoms are true iff they belong to ``true_atoms``."""
    match phi:
        case Atom():
            return phi in true_atoms
        case Truth(v):
            return v
        case Not(sub):
            return not holds(sub, true_atoms)
        case And(parts):
            return all(holds(p, true_atoms) for p in parts)
        case Or(parts):
            return any(holds(p, true_atoms) for p in parts)
        case ForAll() | Exists():
            raise ValueError("quantifier in a formula handed to holds; ground it first")
    raise TypeError(f"not a formula: {phi!r}")
