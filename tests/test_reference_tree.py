"""The engine against probability trees built from the definitions.

`tests/reference_tree.py` walks the canonical tree with its own Kleene
evaluator, a rescanning U over atom sets and `Fraction` sums.  `distribution`,
`query` and the leaves of `build_execution_model` must equal its answers in
both modes, on theories the LPAD sum cannot read too: unstratified ones
that are sound, and ones that get stuck, where `SoundnessError` must name
the interpreter's first stuck node and its satisfied laws.
"""

from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cplogic import theories
from cplogic.engine import (SoundnessError, UMode, build_execution_model,
                            distribution, query)
from cplogic.ground import ground, stratification_report
from cplogic.syntax import And, Not, Or

import reference_tree
from helpers import (leaf_paths, drawn_exogenous, quantified_theories,
                     random_deterministic_theory, random_stratified_theory)


def _reference(g, X, mode):
    """The interpreter's leaves, or the `Stuck` it raised."""
    try:
        return reference_tree.leaves(g, X, mode is UMode.EXTENDED)
    except reference_tree.Stuck as stuck:
        return stuck


def _check_distribution(g, X, mode, want) -> dict | None:
    """`distribution` equals the interpreter's, or raises where it got
    stuck; the distribution, or None when stuck."""
    if isinstance(want, reference_tree.Stuck):
        with pytest.raises(SoundnessError) as caught:
            distribution(g, X, mode)
        state = caught.value.state
        assert (state.true_atoms, state.negated, state.fired) == want.state
        assert caught.value.blocked == want.satisfied
        return None
    dist: dict = {}
    for world, p in want:
        dist[world] = dist.get(world, 0) + p
    assert distribution(g, X, mode) == dist
    return dist


def test_bundled_theories_agree_with_the_tree_interpreter():
    stuck = 0
    for name, bundled in theories.BUNDLED.items():
        g = ground(bundled.theory())
        for X in bundled.exo_cases:
            for mode in UMode:
                want = _reference(g, X, mode)
                dist = _check_distribution(g, X, mode, want)
                atoms = sorted(g.endogenous_atoms, key=str)
                if dist is None:
                    stuck += 1
                    with pytest.raises(SoundnessError):
                        build_execution_model(g, X, mode)
                    for a in atoms:
                        with pytest.raises(SoundnessError):
                            query(g, X, a, mode)
                    continue
                root = build_execution_model(g, X, mode)
                assert [(leaf.state.true_atoms, prod(e.prob for e in edges))
                        for edges, leaf in leaf_paths(root)] == want, (name, X, mode)
                a, b = atoms[0], atoms[-1]
                for phi in atoms + [Not(a), And((a, Not(b))), Or((a, b))]:
                    assert query(g, X, phi, mode) == reference_tree.probability(
                        dist, phi, X, g.exogenous_atoms), (name, X, mode, phi)
    assert stuck


def test_random_theories_agree_with_the_tree_interpreter():
    cases = [random_stratified_theory(s, 6, 6) for s in range(100)]
    cases += [random_deterministic_theory(s, 6, 6) for s in range(300)]
    cases += [random_stratified_theory(s, 10, 8) for s in range(40)]
    seen = {"stratified": 0, "unstratified sound": 0, "stuck": 0}
    for t in cases:
        g = ground(t)
        stratified = stratification_report(g).stratified
        for mode in UMode:
            try:
                want = _reference(g, frozenset(), mode)
            except reference_tree.TreeBudgetError:
                continue
            dist = _check_distribution(g, frozenset(), mode, want)
            seen["stuck" if dist is None else "stratified" if stratified
                 else "unstratified sound"] += 1
    # the cases that no LPAD sum covers are there in numbers
    assert seen["stratified"] > 500
    assert seen["unstratified sound"] > 100 and seen["stuck"] > 50, seen


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(quantified_theories(max_laws=3), st.data())
def test_quantified_theories_agree_with_the_tree_interpreter(t, data):
    g = ground(t)
    X = drawn_exogenous(data.draw, g)
    for mode in UMode:
        _check_distribution(g, X, mode, _reference(g, X, mode))
