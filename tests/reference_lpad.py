"""The LPAD reading of a theory, kept as a second semantics for the tests.

Vennekens, Denecker & Bruynooghe (*CP-logic: A language of causal
probabilistic events and its relation to logic programming*, TPLP 2009)
prove that a stratified CP-theory has the distribution of the logic
program with annotated disjunctions that it reads as (Vennekens, Verbaeten
& Bruynooghe, ICLP 2004).  That distribution is a sum over selections:
each ground law picks one head disjunct or the no-op, a selection weighs
the product of its choices, and its world is the well-founded model of
the normal program it picks, with X as facts.  `tau_not` first turns
negative heads into positive ones, so the sum covers them too.

Nothing here runs the engine's execution fold or its formula evaluator:
the worlds come from `reference_models.well_founded_model`, so a fault in
building probability trees or in reading formulas cannot hide behind a
reference that shares it.
"""

from fractions import Fraction
from itertools import product
from math import prod

from cplogic.ground import GroundTheory, ground
from cplogic.syntax import CPLaw, EffectLiteral, HeadDisjunct
from cplogic.transform import tau_not

from reference_models import well_founded_model


class SelectionBudgetError(Exception):
    """The theory has more selections than the budget allows."""


def lpad_distribution(t, X=frozenset(), budget: int = 10_000) -> dict:
    """``{world: probability}`` over the worlds of ``t``'s head predicates,
    summed over the selections of ``ground(tau_not(t))``.  Raises
    `SelectionBudgetError` when there are more than ``budget`` selections,
    and `ValueError` when a selection's well-founded model leaves an atom
    undecided, which a stratified theory never does."""
    g = ground(tau_not(t)[0])
    choices = []  # per ground law: (the rule it picks or None, probability)
    for law in g.laws:
        options = [(CPLaw((), (HeadDisjunct(EffectLiteral(False, d.literal.atom), 1),),
                          law.body), d.prob) for d in law.head]
        rest = 1 - sum(d.prob for d in law.head)
        choices.append(options + [(None, rest)] if rest else options)
    if prod(map(len, choices)) > budget:
        raise SelectionBudgetError(f"more than {budget} selections")
    heads = {d.literal.atom.predicate for law in t.laws for d in law.head}
    dist: dict = {}
    for selection in product(*choices):
        rules = tuple(rule for rule, _ in selection if rule is not None)
        model = well_founded_model(GroundTheory(
            rules, g.endogenous_atoms, g.exogenous_atoms, g.domains), X)
        if model.unknown_set:
            raise ValueError("a selection has no two-valued well-founded model")
        world = frozenset(a for a in model.true_set if a.predicate in heads)
        dist[world] = dist.get(world, Fraction(0)) + prod(p for _, p in selection)
    return dist
