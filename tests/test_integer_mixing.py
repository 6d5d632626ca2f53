"""Integer mixing against `Fraction` arithmetic.

`engine.distribution` and `oracle.sweep_orders` hold each state's
sub-distribution as one integer denominator and integer numerators.
`reference_engine.reference_distribution` folds the same states with `Fraction` ``+``
and ``*`` at every edge; the two must agree exactly, and the sweep must
freeze equal distributions equal.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cplogic import theories
from cplogic.engine import SoundnessError, UMode, _mix, distribution
from cplogic.ground import ground
from cplogic.oracle import BudgetExceededError, _freeze, _thaw, sweep_orders

from helpers import random_deterministic_theory, random_stratified_theory
from reference_engine import reference_distribution

NOTHING = frozenset()


def _outcome(fn, g, X, mode):
    try:
        return fn(g, X, mode)
    except SoundnessError as exc:
        return "unsound", str(exc)


def _agree(g, X, mode):
    """`distribution` equals the reference, or both raise the same error."""
    got = _outcome(distribution, g, X, mode)
    want = _outcome(reference_distribution, g, X, mode)
    assert got == want
    return want


def _swept(g, X, mode, max_nodes):
    """The sweep's distributions, checked to be pairwise unequal; None when
    the budget runs out."""
    try:
        report = sweep_orders(g, X, mode, max_nodes)
    except BudgetExceededError:
        return None
    dists = report.distributions
    assert all(sum(d.values()) == 1 for d in dists)
    assert len({frozenset(d.items()) for d in dists}) == len(dists)
    return dists


@pytest.mark.parametrize("name", sorted(theories.BUNDLED))
def test_bundled_theories(name):
    bundled = theories.BUNDLED[name]
    g = ground(bundled.theory())
    for X in bundled.exo_cases:
        for mode in UMode:
            want = _agree(g, X, mode)
            try:
                dists = _swept(g, X, mode, 1_000_000)
            except SoundnessError:
                assert isinstance(want, tuple), "only the sweep got stuck"
                continue
            if mode is UMode.EXTENDED:
                assert dists == (want,)


@pytest.mark.parametrize("seed", range(200))
def test_random_theories(seed):
    stratified = ground(random_stratified_theory(seed, atoms=12, laws=8))
    deterministic = ground(random_deterministic_theory(seed, atoms=12, laws=8))
    for g in (stratified, deterministic):
        for mode in UMode:
            _agree(g, NOTHING, mode)
    # Stratified theories are order-invariant in extended mode; every seed
    # finishes well within this budget (the largest needs about 4,400
    # states).
    want = reference_distribution(stratified, NOTHING, UMode.EXTENDED)
    assert _swept(stratified, NOTHING, UMode.EXTENDED, 20_000) == (want,)


# The seeds among 0-199 whose literal-mode sweep diverges within its budget,
# with the number of distinct distributions each reaches.
@pytest.mark.parametrize("seed, distinct",
                         [(75, 8), (98, 13), (137, 256), (168, 64)])
def test_divergent_sweeps_freeze_apart(seed, distinct):
    g = ground(random_stratified_theory(seed, atoms=12, laws=8))
    assert len(_swept(g, NOTHING, UMode.LITERAL, 20_000)) == distinct


def test_root_check_reports_the_fraction_total(monkeypatch):
    g = ground(theories.get("suzy_billy"))
    monkeypatch.setattr("cplogic.engine._fold",
                        lambda *args: (8, {frozenset(): 6}))
    with pytest.raises(ArithmeticError,
                       match=r"^leaf probabilities sum to 3/4, not 1$"):
        distribution(g, NOTHING)


# -- `_mix` and `_freeze` on random input --------------------------------------

_worlds = st.sampled_from("abcde")
_sub = st.integers(1, 60).flatmap(lambda D: st.tuples(
    st.just(D), st.dictionaries(_worlds, st.integers(0, D), min_size=1)))
_weight = st.integers(1, 12).flatmap(
    lambda den: st.tuples(st.integers(1, den), st.just(den)))
_children = st.lists(st.tuples(_weight, _sub), min_size=1, max_size=4)


def _items(children):
    return [(num, den, D, nums.items()) for (num, den), (D, nums) in children]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_children, st.integers(1, 6), st.integers(1, 6))
def test_mix_is_fraction_arithmetic(children, k, j):
    L, nums = _mix(_items(children))
    want: dict = {}
    for (num, den), (D, sub) in children:
        for world, n in sub.items():
            want[world] = want.get(world, Fraction(0)) \
                + Fraction(num, den) * Fraction(n, D)
    assert list(nums) == list(want)  # same worlds, same insertion order
    assert {w: Fraction(n, L) for w, n in nums.items()} == want

    frozen = _freeze(L, nums)
    D, pairs = frozen
    assert gcd(D, *(n for _, n in pairs)) == 1
    assert _thaw(frozen) == want
    # The same rationals written over other denominators freeze equal.
    scaled = [((num * j, den * j), (D * k, {w: n * k for w, n in sub.items()}))
              for (num, den), (D, sub) in children]
    assert _freeze(*_mix(_items(scaled))) == frozen
    assert _freeze(L * k, {w: n * k for w, n in nums.items()}) == frozen
