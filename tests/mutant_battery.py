"""A small battery of the engine's answers against the test references.

    PYTHONPATH=<package dir>:tests python tests/mutant_battery.py

`tests/test_mutants.py` runs it on copies of the package with one planted
fault each.  On every bundled theory, exogenous case and mode and on a few
seeded random theories, it checks against the tree interpreter
(`reference_tree`) both walkers: `distribution`, and the leaves of
`build_execution_model` summed per world, a stuck run by the node it
names; on the stratified ones, the one distribution that `sweep_orders`
finds in extended mode.  It checks `distribution` against the LPAD sum
(`reference_lpad`) on the stratified bundled theories.  It prints the
first disagreement, or what the engine raised, and exits 1, or exits 0
when all agree.
"""

import sys

from cplogic import theories
from cplogic.engine import (SoundnessError, UMode, build_execution_model,
                            distribution)
from cplogic.ground import ground, stratification_report
from cplogic.oracle import sweep_orders
from cplogic.syntax import parse_theory

import reference_tree
from helpers import random_deterministic_theory, random_stratified_theory
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


def one_sweep(g, X, mode) -> dict:
    """The one distribution that the order sweep finds, else its report."""
    report = sweep_orders(g, X, mode)
    return report.distributions[0] if report.invariant else report


def tree_answer(g, X, mode):
    try:
        leaves = reference_tree.leaves(g, X, mode is UMode.EXTENDED)
    except reference_tree.Stuck as stuck:
        return "stuck", stuck.state, stuck.satisfied
    dist: dict = {}
    for world, p in leaves:
        dist[world] = dist.get(world, 0) + p
    return dist


# Two branches reach I = {A, B}, N = {} in the same layer through different
# laws; the one that fired law 1 has law 2 still to fire, the other not.
CONVERGING = "(A:1/2); (B:1/2). B <- A. (A:1/2); (C:1/2) <- B."


def cases():
    yield "converging", ground(parse_theory(CONVERGING)), frozenset()
    for name, bundled in sorted(theories.BUNDLED.items()):
        g = ground(bundled.theory())
        for X in bundled.exo_cases:
            yield name, g, X
    for seed in range(30):
        yield f"stratified {seed}", ground(random_stratified_theory(seed, 6, 6)), frozenset()
        yield f"deterministic {seed}", ground(random_deterministic_theory(seed, 6, 6)), frozenset()


def main() -> int:
    try:
        return compare()
    except Exception as exc:  # a fault may break the engine's own checks
        print(f"battery failed: the engine raised {exc!r}")
        return 1


def compare() -> int:
    for label, g, X in cases():
        stratified = stratification_report(g).stratified
        for mode in UMode:
            want = tree_answer(g, X, mode)
            runs = [distribution, tree_leaves]
            if stratified and mode is UMode.EXTENDED:
                runs.append(one_sweep)
            for run in runs:
                got = engine_answer(run, g, X, mode)
                if got != want:
                    print(f"battery failed: {label}, X={sorted(map(str, X))}, {mode.value}: "
                          f"{run.__name__} {got}, tree {want}")
                    return 1
    for name, bundled in sorted(theories.BUNDLED.items()):
        g = ground(bundled.theory())
        if not stratification_report(g).stratified:
            continue
        for X in bundled.exo_cases:
            if distribution(g, X) != lpad_distribution(bundled.theory(), X):
                print(f"battery failed: {name}, X={sorted(map(str, X))}: LPAD sum differs")
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
