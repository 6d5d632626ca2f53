"""Extended-mode execution against the LPAD selection semantics.

On a stratified theory the engine's distribution must equal the sum over
LPAD selections that `reference_lpad` computes with no code of the
execution fold.  Literal mode equals it too, except where a negative head
makes the literal overestimate order dependent.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cplogic import theories
from cplogic.engine import UMode, distribution
from cplogic.ground import ground, stratification_report

from helpers import drawn_exogenous, quantified_theories, random_stratified_theory
from reference_lpad import SelectionBudgetError, lpad_distribution


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10 ** 6))
def test_stratified_propositional_theories_agree(seed):
    t = random_stratified_theory(seed, atoms=6, laws=6)
    assert lpad_distribution(t) == distribution(ground(t), frozenset())


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(quantified_theories(max_laws=3), st.data())
def test_stratified_quantified_theories_agree(t, data):
    g = ground(t)
    assume(stratification_report(g).stratified)
    X = drawn_exogenous(data.draw, g)
    try:
        expected = lpad_distribution(t, X, budget=2_000)
    except SelectionBudgetError:
        assume(False)
    assert expected == distribution(g, X)


# With Crank1 and the lock, literal mode keeps Turns(gear1) t under U
# although the unfired lock law will retract it, so the law that
# Turns(gear1) drives may fire before the lock does.  That is the order
# dependence of a negative head that the extended U removes.
LITERAL_MODE_DIFFERS = {("locked_gears", "Crank1 Locked(g1)")}


def test_bundled_theories_agree():
    differs = set()
    compared = 0
    for name, bundled in sorted(theories.BUNDLED.items()):
        g = ground(bundled.theory())
        if not stratification_report(g).stratified:
            continue  # negation_loop: the theorem does not apply
        for case, X in zip(bundled.cases, bundled.exo_cases):
            expected = lpad_distribution(bundled.theory(), X)
            assert distribution(g, X, UMode.EXTENDED) == expected, (name, case)
            if distribution(g, X, UMode.LITERAL) != expected:
                differs.add((name, case))
            compared += 1
    assert compared == 24
    assert differs == LITERAL_MODE_DIFFERS
