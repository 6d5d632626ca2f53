"""A small battery of the engine's answers against the test references.

    PYTHONPATH=<package dir>:tests python tests/mutant_battery.py

`tests/test_mutants.py` runs it on copies of the package with one planted
fault each.  On every bundled theory, exogenous case and mode and on a few
seeded random theories, it checks against the tree interpreter
(`reference_tree`) both walkers, `distribution` and the leaves of
`build_execution_model` summed per world, and against its all-orders
sweep (`reference_tree.sweep`) the set of distributions that
`sweep_orders` finds, in both modes; a stuck run by the node it names.
The random cases include theories whose literal-mode sweep diverges, and
at least `MIN_DIVERGENT` of the cases must, so the sweep's mix of several
distributions per child is checked.  On some of the cases it also checks
U at every node of `build_execution_model` against `reference_engine`'s
rescanning U, and `query` of each atom's negation against the tree's leaf
mass.  It checks `distribution` against the LPAD sum (`reference_lpad`)
on the stratified bundled theories.  It prints the first disagreement, or
what the engine raised, and exits 1, or exits 0 when all agree.
"""

import sys

from cplogic import theories
from cplogic.engine import (SoundnessError, UMode, build_execution_model,
                            distribution, query)
from cplogic.ground import ground, stratification_report
from cplogic.oracle import sweep_orders
from cplogic.syntax import Not, parse_theory

import reference_tree
from helpers import random_deterministic_theory, random_stratified_theory
from reference_engine import reference_U
from reference_lpad import lpad_distribution


def engine_answer(run, g, X, mode):
    try:
        return run(g, X, mode)
    except SoundnessError as exc:
        s = exc.state
        return "stuck", (s.true_atoms, s.negated, s.fired), exc.blocked


def tree_leaves(g, X, mode) -> dict:
    """The leaves of `build_execution_model`, their path probabilities
    summed per world; a shared subtree is summed once."""
    mass: dict = {}

    def of(node) -> dict:
        if id(node) not in mass:
            acc = {node.state.true_atoms: 1} if node.is_leaf else {}
            for edge in node.children:
                for world, p in of(edge.child).items():
                    acc[world] = acc.get(world, 0) + edge.prob * p
            mass[id(node)] = acc
        return mass[id(node)]

    return of(build_execution_model(g, X, mode))


def swept(g, X, mode) -> set:
    """The distributions that the order sweep finds, as `reference_tree.sweep`
    gives them."""
    return {frozenset(dist.items()) for dist in sweep_orders(g, X, mode).distributions}


def deep_fault(g, X, mode, want: dict):
    """The first node of `build_execution_model` whose U is not
    `reference_U`'s, else the first atom whose negation `query` gives
    another mass than the tree's leaves ``want``, else None."""
    tree = build_execution_model(g, X, mode)
    for node in {id(n): n for n in tree.walk()}.values():
        ref = reference_U(g, X, node.state, mode)
        if node.u != ref:
            return f"U {node.u} at [{node.state.describe()}], reference {ref}"
    for a in sorted(g.endogenous_atoms, key=str):
        got = query(g, X, Not(a), mode)
        ref = reference_tree.probability(want, Not(a), X, g.exogenous_atoms)
        if got != ref:
            return f"query ~{a} {got}, tree {ref}"
    return None


def reference_answer(run, g, X, mode):
    try:
        return run(g, X, mode is UMode.EXTENDED)
    except reference_tree.Stuck as stuck:
        return "stuck", stuck.state, stuck.satisfied


def tree_distribution(g, X, extended) -> dict:
    dist: dict = {}
    for world, p in reference_tree.leaves(g, X, extended):
        dist[world] = dist.get(world, 0) + p
    return dist


# Two branches reach I = {A, B}, N = {} in the same layer through different
# laws; the one that fired law 1 has law 2 still to fire, the other not.
CONVERGING = "(A:1/2); (B:1/2). B <- A. (A:1/2); (C:1/2) <- B."

# The seeds of each generator that `deep_fault` also checks, as it does
# the hand-built and bundled theories.
DEEP_SEEDS = 7

# Seeds of `random_stratified_theory(seed, 6, 8)` whose literal-mode sweep
# reaches several distributions, and the fewest cases that must diverge.
DIVERGENT_SEEDS = (0, 2, 4, 38, 45, 50, 57)
MIN_DIVERGENT = 5


def cases():
    """``(label, g, X, deep)``, ``deep`` when `deep_fault` checks the case."""
    yield "converging", ground(parse_theory(CONVERGING)), frozenset(), True
    for name, bundled in sorted(theories.BUNDLED.items()):
        g = ground(bundled.theory())
        for X in bundled.exo_cases:
            yield name, g, X, True
    for seed in range(30):
        deep = seed < DEEP_SEEDS
        yield (f"stratified {seed}", ground(random_stratified_theory(seed, 6, 6)),
               frozenset(), deep)
        yield (f"deterministic {seed}", ground(random_deterministic_theory(seed, 6, 6)),
               frozenset(), deep)
    for seed in DIVERGENT_SEEDS:
        yield f"divergent {seed}", ground(random_stratified_theory(seed, 6, 8)), frozenset(), False


def main() -> int:
    try:
        return compare()
    except Exception as exc:  # a fault may break the engine's own checks
        print(f"battery failed: the engine raised {exc!r}")
        return 1


def compare() -> int:
    divergent = 0
    for label, g, X, deep in cases():
        for mode in UMode:
            where = f"{label}, X={sorted(map(str, X))}, {mode.value}"
            want = reference_answer(tree_distribution, g, X, mode)
            orders = reference_answer(reference_tree.sweep, g, X, mode)
            divergent += isinstance(orders, set) and len(orders) > 1
            for run, ref in ((distribution, want), (tree_leaves, want), (swept, orders)):
                got = engine_answer(run, g, X, mode)
                if got != ref:
                    print(f"battery failed: {where}: {run.__name__} {got}, reference {ref}")
                    return 1
            fault = deep and isinstance(want, dict) and deep_fault(g, X, mode, want)
            if fault:
                print(f"battery failed: {where}: {fault}")
                return 1
    for name, bundled in sorted(theories.BUNDLED.items()):
        g = ground(bundled.theory())
        if not stratification_report(g).stratified:
            continue
        for X in bundled.exo_cases:
            if distribution(g, X) != lpad_distribution(bundled.theory(), X):
                print(f"battery failed: {name}, X={sorted(map(str, X))}: LPAD sum differs")
                return 1
    if divergent < MIN_DIVERGENT:
        print(f"battery failed: only {divergent} cases diverge, not {MIN_DIVERGENT}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
