"""A small battery of the engine's answers against the test references.

    PYTHONPATH=<package dir>:tests python tests/mutant_battery.py

`tests/test_mutants.py` runs it on copies of the package with one planted
fault each.  It checks `distribution` against the tree interpreter
(`reference_tree`) on every bundled theory, exogenous case and mode and on
a few seeded random theories, a stuck run by the node it names, and
against the LPAD sum (`reference_lpad`) on the stratified bundled theories.
It prints the first disagreement and exits 1, or exits 0 when all agree.
"""

import sys

from cplogic import theories
from cplogic.engine import SoundnessError, UMode, distribution
from cplogic.ground import ground, stratification_report
from cplogic.syntax import parse_theory

import reference_tree
from helpers import random_deterministic_theory, random_stratified_theory
from reference_lpad import lpad_distribution


def engine_answer(g, X, mode):
    try:
        return distribution(g, X, mode)
    except SoundnessError as exc:
        s = exc.state
        return "stuck", (s.true_atoms, s.negated, s.fired), exc.blocked


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
    for label, g, X in cases():
        for mode in UMode:
            got, want = engine_answer(g, X, mode), tree_answer(g, X, mode)
            if got != want:
                print(f"battery failed: {label}, X={sorted(map(str, X))}, {mode.value}: "
                      f"engine {got}, tree {want}")
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
