"""Kleene three-valued interpretations and formula evaluation.

Endogenous atoms take one of three values; exogenous atoms are always
two-valued and are read from a separate interpretation.  The values are
the ints ``F, U, T = 0, 1, 2``, in the truth order f < u < t: negation is
``2 - v``, and `kleene_junction` states conjunction and disjunction.
"""

from __future__ import annotations

from collections.abc import Set

from .syntax import (And, Atom, Exists, ForAll, Formula, Not, Or, Truth,
                     format_atom_set, record)


class UnboundAtomError(Exception):
    """Atom outside both the endogenous and the exogenous universe."""


F, U, T = 0, 1, 2


@record
class ThreeValuedInterp:
    """Total map from a finite atom universe to {t, f, u}.

    Stored as the t/u partition; every other universe atom is f.
    """

    universe: frozenset
    true_set: frozenset = frozenset()
    unknown_set: frozenset = frozenset()

    def __post_init__(self):
        if not self.true_set <= self.universe or not self.unknown_set <= self.universe:
            raise ValueError("assignment outside the universe")
        if self.true_set & self.unknown_set:
            raise ValueError("atom assigned both t and u")

    @property
    def false_set(self) -> frozenset:
        return self.universe - self.true_set - self.unknown_set

    def value(self, atom: Atom) -> int:
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
                exogenous: Set) -> int:
    """Kleene truth value of ground ``phi`` under ``nu``, exogenous atoms from ``X``.

    Atoms outside ``nu``'s universe must belong to ``exogenous`` and are
    read two-valued from ``X``; otherwise they are unbound.
    """
    match phi:
        case Atom():
            if phi in nu.universe:
                return nu.value(phi)
            if phi not in exogenous:
                raise UnboundAtomError(f"atom {phi} not in the endogenous or exogenous universe")
            return T if phi in X else F
        case Truth(v):
            return T if v else F
        case Not(sub):
            return 2 - kleene_eval(sub, nu, X, exogenous)
        case And(parts) | Or(parts):
            return kleene_junction(isinstance(phi, And),
                                   (kleene_eval(p, nu, X, exogenous) for p in parts))
        case ForAll() | Exists():
            raise ValueError("quantifier in a formula handed to kleene_eval; ground it first")
    raise TypeError(f"not a formula: {phi!r}")


def kleene_junction(conj: bool, values) -> int:
    """Kleene value of the conjunction (``conj``) or disjunction of ``values``.

    f decides a conjunction and t a disjunction, and ``values`` is read no
    further.  Otherwise any u gives u, and with none the result is the
    unit, t for a conjunction and f for a disjunction.
    """
    decisive = F if conj else T
    result = 2 - decisive
    for v in values:
        if v == decisive:
            return v
        if v == U:
            result = U
    return result


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
