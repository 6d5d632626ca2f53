"""Integer mixing against `Fraction` arithmetic.

`engine.distribution` counts mass as integer numerators over one ``M`` per
program (`engine._unit`), the forward walk pushing each state's mass to
its children; `oracle.sweep_orders` mixes each state's sub-distributions,
each packed in one int, its numerators over the state's ``S``.  Both are
checked once to sum to exactly their denominator in `engine._thaw`.
`reference_engine.reference_distribution` folds the same states with
`Fraction` ``+`` and ``*`` at every edge, and `_fraction_sweep` here
follows every law as the sweep does with the same `Fraction` arithmetic;
the integers must agree with both exactly, and the sweep must pack equal
distributions equal, at whichever states of one ``S`` it reaches them.
"""
import itertools
import math
from fractions import Fraction

import pytest

from cplogic import oracle, theories
from cplogic.engine import SoundnessError, UMode, _fold, _program, distribution
from cplogic.ground import ground
from cplogic.oracle import BudgetExceededError, sweep_orders
from cplogic.syntax import parse_theory

from helpers import random_deterministic_theory, random_stratified_theory
import reference_tree
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
    monkeypatch.setattr("cplogic.engine._forward",
                        lambda *args: (8, {frozenset(): 6}))
    with pytest.raises(ArithmeticError,
                       match=r"^leaf probabilities sum to 3/4, not 1$"):
        distribution(g, NOTHING)


# -- the sweep's integer mixing, state by state -------------------------------

def _fraction_sweep(g, X, mode) -> dict:
    """Each state's value in the order sweep, mixed with `Fraction` ``+``
    and ``*``: ``{key: frozenset of distributions}``, a distribution being
    a frozenset of ``(world mask, probability)`` pairs."""
    values: dict = {}

    def combine(key, branches, _path):
        if not branches:
            values[key] = frozenset({frozenset({(key[0], Fraction(1))})})
            return values[key]
        out = set()
        for _, kids in branches:
            for combo in itertools.product(*(sub for *_, sub in kids)):
                acc: dict = {}
                for (_, num, den, _), dist in zip(kids, combo):
                    for world, p in dist:
                        acc[world] = acc.get(world, Fraction(0)) + Fraction(num, den) * p
                out.add(frozenset(acc.items()))
        values[key] = frozenset(out)
        return values[key]

    _fold(g, X, mode, lambda _key, app, _u: app, combine)
    return values


def _check_packed_sweep(g, monkeypatch):
    """`test_sweep_is_fraction_arithmetic` on ``g``, in both modes."""
    prog = _program(g, NOTHING)
    lcms = {i: math.lcm(*(den for *_, den in g._outcomes[i])) for i in prog.live}
    k = math.prod(lcms.values()).bit_length()
    packed: dict = {}  # key -> (the ints of the sweep's value there, leaf)

    def S(key):
        return math.prod(m for i, m in lcms.items() if not key[2] >> i & 1)

    def spy(*args):
        *head, combine = args

        def record(key, branches, path):
            value = combine(key, branches, path)
            packed[key] = value[1], not branches
            return value
        return _fold(*head, record)

    monkeypatch.setattr(oracle, "_fold", spy)
    for mode in UMode:
        packed.clear()
        try:
            report = sweep_orders(g, NOTHING, mode, 20_000)
        except (BudgetExceededError, SoundnessError):
            continue
        fields: dict = {}  # world mask -> its field, read off the leaves
        for key, (ints, leaf) in packed.items():
            if leaf:
                (v,) = ints
                j = (v.bit_length() - 1) // k
                assert v == S(key) << k * j
                assert fields.setdefault(key[0], j) == j
        assert len(set(fields.values())) == len(fields)

        def unpack(v, key):
            nums = {world: v >> k * j & (1 << k) - 1 for world, j in fields.items()}
            assert v == sum(n << k * fields[world] for world, n in nums.items())
            return frozenset((world, Fraction(n, S(key))) for world, n in nums.items() if n)

        thawed = {key: {v: unpack(v, key) for v in ints} for key, (ints, _) in packed.items()}
        for scale in {S(key) for key in packed}:
            of_scale = {v: d for key, ds in thawed.items() if S(key) == scale
                        for v, d in ds.items()}
            assert len(set(of_scale.values())) == len(of_scale)
        assert {key: frozenset(ds.values()) for key, ds in thawed.items()} \
            == _fraction_sweep(g, NOTHING, mode)
        assert {frozenset(d.items()) for d in report.distributions} == {
            frozenset((prog.atoms_of(world), p) for world, p in fd)
            for fd in thawed[0, 0, 0].values()}


@pytest.mark.parametrize("seed", range(60))
def test_sweep_is_fraction_arithmetic(seed, monkeypatch):
    """At every state, the sweep's packed distributions, one field of
    ``M.bit_length()`` bits per world read off the leaves, each leaf
    packing its state's ``S`` (the product of the ``lcm``s of the live laws
    it has not fired), unpacked over the state's ``S``, are the `Fraction`
    sweep's; no field carries; distinct ints of one ``S`` thaw apart, so
    equal distributions reached at states of one ``S`` packed equal; and
    the report is the root's value."""
    _check_packed_sweep(ground(random_stratified_theory(seed, atoms=6, laws=8)), monkeypatch)


@pytest.mark.parametrize("p", ["1/65537", "7/1000000007"])
def test_sweep_packs_wide_fields(p, monkeypatch):
    """The same on five coins and ``Any``, with an 81- and a 150-bit ``M``."""
    coins = [f"C{i}" for i in range(5)]
    text = "".join(f"({c}:{p}).\n" for c in coins) + f"Any <- {' ; '.join(coins)}.\n"
    _check_packed_sweep(ground(parse_theory(text)), monkeypatch)


# In literal mode, law 0's children reach one distribution (C) and then
# several (not C, where A and ~A may fire in either order), and law 1's
# several (E) and then one (not E).
ONE_THEN_SEVERAL = """
(C:1/2).
(E:1/2) <- ~C.
A <- E.
~A <- E.
B <- A.
"""


def test_a_law_mixes_one_and_several_distributions_in_either_order(monkeypatch):
    """The sweep's mix holds one int while each child so far reaches one
    distribution and a set from the first child that reaches several; both
    orders of children occur here, and the sweep is the references'."""
    g = ground(parse_theory(ONE_THEN_SEVERAL))
    shapes = set()  # per expanded law, how many distributions each child reaches

    def spy(*args):
        *head, combine = args

        def record(key, branches, path):
            shapes.update(tuple(len(dists) for *_, (_, dists) in kids) for _, kids in branches)
            return combine(key, branches, path)
        return _fold(*head, record)

    monkeypatch.setattr(oracle, "_fold", spy)
    report = sweep_orders(g, NOTHING, UMode.LITERAL)
    assert {(1, 2), (2, 1)} <= shapes
    assert len(report.distributions) == 2
    assert {frozenset(d.items()) for d in report.distributions} \
        == reference_tree.sweep(g, NOTHING, extended=False)
    _check_packed_sweep(g, monkeypatch)
