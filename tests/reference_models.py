"""Classical fixpoint models of the deterministic fragments, kept as test
references.

A theory of deterministic laws with positive heads reads as a normal logic
program, one rule per law.  ``well_founded_model`` builds its well-founded
model by the alternating fixpoint (Van Gelder, Ross & Schlipf, JACM 1991)
and ``least_model`` the least model of a positive one, giving the engine
something external to agree with; `reference_lpad` reads each selection's
world from ``well_founded_model``.  Bodies are read by this module's own
walk, `_dual_eval`, not by the package's evaluator.
"""

from cplogic.ground import GroundTheory
from cplogic.syntax import (And, Atom, Exists, ForAll, Formula, Not, Or, Truth,
                            formula_atom_polarities)
from cplogic.threeval import ThreeValuedInterp


class OracleError(Exception):
    """Input outside the oracle's fragment (nondeterministic, negated, ...)."""


def _deterministic_rules(g: GroundTheory, what: str):
    rules = []
    for law in g.laws:
        if not law.is_deterministic():
            raise OracleError(f"{what} needs deterministic laws, got {law.head}")
        if law.head[0].literal.negated:
            raise OracleError(f"{what} does not accept negative head literals")
        rules.append((law.head[0].literal.atom, law.body))
    return rules


def _dual_eval(phi: Formula, inner: frozenset, outer: frozenset,
               X: frozenset, exogenous) -> bool:
    """Truth of ground ``phi`` with positive atom occurrences read from
    ``inner`` and occurrences under an odd number of negations read from
    ``outer``; exogenous atoms are true exactly when they are in ``X``."""
    def walk(phi, negated):
        match phi:
            case Atom():
                if phi in exogenous:
                    return phi in X
                return phi in (outer if negated else inner)
            case Truth(v):
                return v
            case Not(sub):
                return not walk(sub, not negated)
            case And(parts):
                return all(walk(p, negated) for p in parts)
            case Or(parts):
                return any(walk(p, negated) for p in parts)
            case ForAll() | Exists():
                raise ValueError("quantifier in a formula; ground it first")
        raise TypeError(f"not a formula: {phi!r}")

    return walk(phi, False)


def well_founded_model(g: GroundTheory, X: frozenset = frozenset()) -> ThreeValuedInterp:
    """Alternating-fixpoint well-founded model of a deterministic theory.

    The theory, read as a normal logic program (one rule per law, arbitrary
    ground bodies), is evaluated through the alternating sequence of
    underestimates and overestimates; atoms in neither limit set are unknown.
    """
    rules = _deterministic_rules(g, "well_founded_model")
    exo = g.exogenous_atoms

    def gamma(assumed: frozenset) -> frozenset:
        derived: set = set()
        changed = True
        while changed:
            changed = False
            for head, body in rules:
                if head not in derived and _dual_eval(
                        body, frozenset(derived), assumed, X, exo):
                    derived.add(head)
                    changed = True
        return frozenset(derived)

    true_set = frozenset()
    while True:
        possible = gamma(true_set)
        advanced = gamma(possible)
        if advanced == true_set:
            break
        true_set = advanced
    assert true_set <= possible
    return ThreeValuedInterp(g.endogenous_atoms, true_set, possible - true_set)


def least_model(g: GroundTheory, X: frozenset = frozenset()) -> frozenset:
    """Immediate-consequence fixpoint of a positive deterministic theory:
    no atom of a body may occur under an odd number of negations."""
    rules = _deterministic_rules(g, "least_model")
    for _, body in rules:
        if any(negated for _, negated in formula_atom_polarities(body)):
            raise OracleError("least_model needs bodies without negated atoms")
    model: set = set()
    changed = True
    while changed:
        changed = False
        for head, body in rules:
            if head not in model and _dual_eval(body, model, model, X, g.exogenous_atoms):
                model.add(head)
                changed = True
    return frozenset(model)
