import itertools

import pytest

from cplogic.syntax import And, Atom, Not, Or, Truth, parse_formula, parse_theory
from cplogic.threeval import (F, T, ThreeValuedInterp, U, UnboundAtomError,
                              holds, kleene_eval)

from helpers import approximates, atom, atoms

A, B = Atom("A"), Atom("B")
UNIVERSE = frozenset({A, B})
NO_EXO = frozenset()


def interp(true=(), unknown=()):
    return ThreeValuedInterp(UNIVERSE, frozenset(true), frozenset(unknown))


def test_kleene_negation_of_unknown():
    assert kleene_eval(Not(A), interp(unknown=[A]), frozenset(), NO_EXO) == U


def test_kleene_conjunction_true_and_unknown():
    nu = interp(true=[A], unknown=[B])
    assert kleene_eval(And((A, B)), nu, frozenset(), NO_EXO) == U


@pytest.mark.parametrize("va,vb,expect_and,expect_or", [
    (T, T, T, T), (T, U, U, T), (T, F, F, T),
    (U, U, U, U), (U, F, F, U), (F, F, F, F),
], ids="fut".__getitem__)
def test_kleene_tables(va, vb, expect_and, expect_or):
    true = [a for a, v in ((A, va), (B, vb)) if v == T]
    unknown = [a for a, v in ((A, va), (B, vb)) if v == U]
    nu = interp(true, unknown)
    assert kleene_eval(And((A, B)), nu, frozenset(), NO_EXO) == expect_and
    assert kleene_eval(Or((A, B)), nu, frozenset(), NO_EXO) == expect_or


def test_body_negation_settles_once_atom_is_final():
    # At the node where Suzy's throw has failed: Throws(suzy) is f, the rest u.
    univ = atoms("Throws(suzy)", "Throws(billy)", "Broken")
    nu = ThreeValuedInterp(univ, frozenset(),
                           atoms("Throws(billy)", "Broken"))
    assert kleene_eval(Not(atom("Throws(suzy)")), nu, frozenset(), NO_EXO) == T
    assert kleene_eval(Not(atom("Broken")), nu, frozenset(), NO_EXO) == U


def test_exogenous_atoms_read_two_valued():
    E = Atom("E")
    nu = interp(unknown=[A, B])
    assert kleene_eval(E, nu, frozenset({E}), frozenset({E})) == T
    assert kleene_eval(E, nu, frozenset(), frozenset({E})) == F


def test_unbound_atom_raises():
    for exogenous in (NO_EXO, frozenset({Atom("E")})):
        with pytest.raises(UnboundAtomError, match="not in the endogenous or exogenous"):
            kleene_eval(Atom("Z"), interp(), frozenset(), exogenous)


def test_approximates_basics():
    all_u = interp(unknown=[A, B])
    for world in (frozenset(), frozenset({A}), frozenset({A, B})):
        assert approximates(all_u, world)
    committed = interp(true=[A])
    assert approximates(committed, frozenset({A}))
    assert not approximates(committed, frozenset())


def _all_formulas(atoms_pool):
    literals = [a for a in atoms_pool] + [Not(a) for a in atoms_pool]
    yield from literals
    yield Truth(True)
    yield Truth(False)
    for x, y in itertools.product(literals, repeat=2):
        yield And((x, y))
        yield Or((x, y))
        yield Not(And((x, y)))
        yield Not(Or((x, y)))


def _all_interps(universe):
    for assignment in itertools.product((T, U, F), repeat=len(universe)):
        pairs = list(zip(sorted(universe, key=str), assignment))
        yield ThreeValuedInterp(
            frozenset(universe),
            frozenset(a for a, v in pairs if v == T),
            frozenset(a for a, v in pairs if v == U))


def _approximated_worlds(nu):
    free = sorted(nu.unknown_set, key=str)
    for bits in itertools.product((False, True), repeat=len(free)):
        yield nu.true_set | frozenset(a for a, b in zip(free, bits) if b)


def test_approximation_soundness_exhaustive():
    # Committed evaluations agree with every approximated two-valued world.
    universe = [Atom(n) for n in "ABC"]
    for nu in _all_interps(universe):
        for phi in _all_formulas(universe):
            v = kleene_eval(phi, nu, frozenset(), NO_EXO)
            if v == U:
                continue
            for world in _approximated_worlds(nu):
                assert holds(phi, world) == (v == T)


def test_monotone_towards_unknown_exhaustive():
    universe = [Atom(n) for n in "AB"]
    for nu in _all_interps(universe):
        for phi in _all_formulas(universe):
            before = kleene_eval(phi, nu, frozenset(), NO_EXO)
            for a in sorted(nu.true_set | nu.false_set, key=str):
                blurred = ThreeValuedInterp(nu.universe, nu.true_set - {a},
                                            nu.unknown_set | {a})
                after = kleene_eval(phi, blurred, frozenset(), NO_EXO)
                assert after in (before, U)


def test_holds_two_valued():
    t = parse_formula("A, ~B", parse_theory("A. B."))
    assert holds(t, {A})
    assert not holds(t, {A, B})


def test_interp_partitions_and_str():
    nu = interp(true=[A], unknown=[B])
    assert nu.false_set == frozenset()
    assert str(nu) == "t:{A} u:{B} f:{}"
    with pytest.raises(ValueError):
        ThreeValuedInterp(UNIVERSE, frozenset({A}), frozenset({A}))
