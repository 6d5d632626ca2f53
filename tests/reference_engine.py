"""The engine's overestimate and mixing by their definitions, kept as test
references.

`reference_U` computes the overestimate U by rescanning every unfired law
until nothing changes, for the compiled worklist `engine.compute_U` to agree
with; `reference_distribution` mixes with `Fraction` arithmetic throughout,
for the integer mixing of `engine.distribution` to agree with.
"""

from fractions import Fraction

from cplogic.engine import (Distribution, ExecState, UMode, _fold, _lowest,
                            _program)
from cplogic.ground import GroundTheory
from cplogic.threeval import F, T, U, ThreeValuedInterp, kleene_eval


def reference_U(g: GroundTheory, X: frozenset, state: ExecState,
                mode: UMode = UMode.EXTENDED) -> ThreeValuedInterp:
    """`engine.compute_U` by the definition: rescan every unfired law with
    `kleene_eval` until a whole round changes nothing.

    Starts from the current world (t on I, f elsewhere) and repeatedly
    downgrades to u: an atom may still be caused by an unfired law whose body
    is not yet ruled out, and (extended mode) a true atom may still be
    retracted by an unfired law with a matching negative head literal.
    Retracted atoms (N) stay pinned at f.
    """
    value = {a: (T if a in state.true_atoms else F) for a in g.endogenous_atoms}
    unfired = [i for i in range(len(g.laws)) if i not in state.fired]

    def snapshot():
        return ThreeValuedInterp(
            g.endogenous_atoms,
            frozenset(a for a, v in value.items() if v == T),
            frozenset(a for a, v in value.items() if v == U))

    changed = True
    while changed:
        changed = False
        nu = snapshot()
        for i in unfired:
            law = g.laws[i]
            if kleene_eval(law.body, nu, X, g.exogenous_atoms) == F:
                continue
            for disj in law.head:
                a = disj.literal.atom
                if a in state.negated:
                    continue
                if not disj.literal.negated:
                    if value[a] == F:
                        value[a] = U
                        changed = True
                elif mode is UMode.EXTENDED:
                    if value[a] == T:
                        value[a] = U
                        changed = True
    return snapshot()


def reference_distribution(g: GroundTheory, X: frozenset,
                           mode: UMode = UMode.EXTENDED) -> Distribution:
    """`engine.distribution` with `Fraction` arithmetic at every edge.

    It follows the same law per state, but walks the states children first
    with `engine._fold`, not forward by layers, and each state's
    sub-distribution is a dict of `Fraction`s mixed by ``+`` and ``*``: the
    plain rational arithmetic that the engine's integer masses must match.
    """
    def mix(key, branches, _path):
        if not branches:
            return {key[0]: Fraction(1)}  # the mask of the leaf's world
        ((_, kids),) = branches
        acc: dict = {}
        for _, num, den, sub in kids:
            prob = Fraction(num, den)
            for world, p in sub.items():
                acc[world] = acc.get(world, Fraction(0)) + prob * p
        return acc

    masses = _fold(g, X, mode, _lowest, mix)
    atoms_of = _program(g, X).atoms_of
    return Distribution({atoms_of(world): p for world, p in masses.items()})
