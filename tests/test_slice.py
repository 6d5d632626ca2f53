"""`engine.query` on the relevant slice of a theory.

When the program compiled for X is stratified, `query` runs `distribution`
on the live laws that can cause or retract a query atom, or an atom that
such a law reads, and on the whole theory otherwise; the slice runs on the
program already compiled for X, so no law is compiled twice, and reads the
dependency graph that the compile built, so a query builds no graph.  That
graph must equal the one built from the compiled reads and heads by the
edge rule (`_reference_deps`).  Every answer must equal the one read off
the whole theory's distribution, a theory that gets stuck included, and in
extended mode the LPAD reading of a stratified theory
(`tests/reference_lpad.py`).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cplogic import engine, theories
from cplogic.engine import SoundnessError, UMode, distribution, query
from cplogic.ground import ground, stratification_report
from cplogic.syntax import (TRUE, And, Not, Or, Theory, formula_atoms,
                            parse_formula, parse_theory)

from helpers import (drawn_exogenous, mentioned_exogenous, quantified_theories,
                     random_deterministic_theory, random_stratified_theory)
from reference_lpad import lpad_distribution


def _full(g, X, phi, mode):
    """``phi``'s probability read off the whole theory's distribution."""
    try:
        return distribution(g, X, mode).prob(phi, X)
    except SoundnessError:
        return SoundnessError


def _answer(g, X, phi, mode):
    try:
        return query(g, X, phi, mode)
    except SoundnessError:
        return SoundnessError


def _sliced(g, X, phi) -> bool:
    """Whether `query` runs on a slice of ``g`` for ``phi`` under ``X``."""
    return bool(engine._slice(engine._Program(g, X), formula_atoms(phi))[1])


def _reference_deps(g, prog) -> dict:
    """The signed graph that `engine._slice` used to build on every query:
    an edge from each head atom of a live law to each atom its compiled body
    reads, negative when read under an odd number of ``~`` or when the head
    literal is negative."""
    deps: dict = {}
    for i in prog.live:
        pos, neg = prog.reads[i]
        for d in g.laws[i].head:
            out = deps.setdefault(prog.bit[d.literal.atom], {})
            for k in range(len(prog.atoms)):
                r = 1 << k
                if r & (pos | neg):
                    out[r] = d.literal.negated or bool(r & neg) or out.get(r, False)
    return deps


def _check_relations(g, X) -> int:
    """Check the graph and head tables that the compile of ``g`` for ``X``
    derives from its live laws; the number of laws that are not live."""
    prog = engine._Program(g, X)
    assert prog.deps == _reference_deps(g, prog)
    for i, law in enumerate(g.laws):
        if i not in prog.live:
            assert prog.heads[i] == ()  # nothing reads a dead law's heads
            continue
        assert [(negated, b) for negated, b, _ in prog.heads[i]] == \
            [(d.literal.negated, prog.bit[d.literal.atom]) for d in law.head]
        for _, b, readers in prog.heads[i]:
            assert list(readers) == [j for j in prog.live
                                     if b & (prog.reads[j][0] | prog.reads[j][1])]
    return len(g.laws) - len(prog.live)


def test_the_compiled_graph_is_the_per_query_graph():
    dead = 0
    for bundled in theories.BUNDLED.values():
        g = ground(bundled.theory())
        for X in bundled.exo_cases:
            dead += _check_relations(g, X)
    for seed in range(100):
        _check_relations(ground(random_stratified_theory(seed)), frozenset())
        _check_relations(ground(random_deterministic_theory(seed)), frozenset())
    assert dead  # some bundled law is not live, and has no head table


def test_every_bundled_atom_query_equals_the_full_distribution():
    sliced = stuck = 0
    for name, bundled in theories.BUNDLED.items():
        g = ground(bundled.theory())
        for X in bundled.exo_cases:
            for mode in UMode:
                try:
                    dist = distribution(g, X, mode)
                except SoundnessError:
                    dist = None
                for a in sorted(g.endogenous_atoms, key=str):
                    want = SoundnessError if dist is None else dist.prob(a, X)
                    assert _answer(g, X, a, mode) == want, (name, X, mode, a)
                    sliced += _sliced(g, X, a)
                    stuck += dist is None
    assert sliced and stuck  # both paths are taken


def test_random_stratified_queries_equal_the_full_distribution():
    sliced = 0
    for seed in range(100):
        g = ground(random_stratified_theory(seed))
        for mode in UMode:
            dist = distribution(g, frozenset(), mode)
            for a in sorted(g.endogenous_atoms, key=str):
                assert query(g, frozenset(), a, mode) == dist.prob(a), (seed, mode, a)
                sliced += _sliced(g, frozenset(), a)
    assert sliced > 60


@st.composite
def _queries(draw):
    """A quantified theory with negative heads, an X over the exogenous
    atoms its bodies mention, a mode, and a query over one or two of its
    atoms."""
    t = draw(quantified_theories())
    g = ground(t)
    mentioned = mentioned_exogenous(g)
    X = drawn_exogenous(draw, g)
    pool = sorted(g.endogenous_atoms, key=str) + mentioned or [TRUE]
    a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    phi = draw(st.sampled_from((a, Not(a), And((a, b)), Or((a, Not(b))))))
    return g, X, draw(st.sampled_from(UMode)), phi


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_queries())
def test_quantified_queries_equal_the_full_distribution(case):
    g, X, mode, phi = case
    _check_relations(g, X)
    assert _answer(g, X, phi, mode) == _full(g, X, phi, mode)


def test_extended_queries_equal_the_lpad_reading_of_stratified_theories():
    cases = [(b.theory(), X) for b in theories.BUNDLED.values() for X in b.exo_cases]
    cases += [(random_stratified_theory(seed), frozenset()) for seed in range(40)]
    checked = 0
    for t, X in cases:
        g = ground(t)
        if not stratification_report(g).stratified:
            continue
        lpad = lpad_distribution(t, X)
        for a in sorted(g.endogenous_atoms, key=str):
            want = sum((p for world, p in lpad.items() if a in world), Fraction(0))
            assert query(g, X, a) == want, (t, X, a)
            checked += 1
    assert checked > 100


_COINS = parse_theory("".join(f"(C{i}:1/2).\n" for i in range(10))
                      + "Any <- " + " ; ".join(f"C{i}" for i in range(10)) + ".\n")


def test_a_one_coin_query_visits_that_coin_only(monkeypatch):
    t = _COINS
    states = []
    real = engine.satisfied_unfired

    def counted(g, X, state):
        states.append(state)
        return real(g, X, state)

    monkeypatch.setattr(engine, "satisfied_unfired", counted)
    assert query(ground(t), frozenset(), parse_formula("C3", t)) == Fraction(1, 2)
    assert len(states) <= 3  # the root and one state per side of C3
    states.clear()
    distribution(ground(t), frozenset())
    whole = len(states)
    states.clear()
    query(ground(t), frozenset(), parse_formula("Any", t))
    assert len(states) == whole > 1000  # every law reaches Any: no slice


@pytest.mark.parametrize("loop, stuck", [
    (theories.get("negation_loop").laws, tuple(UMode)),
    # a cycle that only the negative head makes negative: A turns B on,
    # which would retract A, so extended mode cannot decide B's body A
    (parse_theory("A.\n~A <- B.\nB <- A.").laws, (UMode.EXTENDED,)),
])
def test_a_negation_loop_beside_a_coin_still_gets_stuck(loop, stuck):
    t = Theory({}, {}, loop + parse_theory("(Coin:1/2).").laws)
    g = ground(t)
    coin = parse_formula("Coin", t)
    kept, stratified = engine._slice(engine._Program(g, frozenset()), [coin])
    assert len(kept) == 1 and stratified is False  # the gate refuses the slice
    for mode in stuck:
        with pytest.raises(SoundnessError):
            query(g, frozenset(), coin, mode)


def test_a_sliced_query_runs_on_the_program_compiled_for_X(monkeypatch):
    t, X = _COINS, frozenset()
    want = distribution(ground(t), X)
    compiled = []
    real = engine._compile_body

    def counted(phi, *args):
        compiled.append(phi)
        return real(phi, *args)

    monkeypatch.setattr(engine, "_compile_body", counted)
    ran = []  # the program each distribution runs on
    real_distribution = engine.distribution

    def recorded(g, X, mode):
        ran.append(g._compiled[1])
        return real_distribution(g, X, mode)

    monkeypatch.setattr(engine, "distribution", recorded)
    g = ground(t)
    c3 = parse_formula("C3", t)
    for _ in range(2):
        assert query(g, X, c3) == Fraction(1, 2)
        assert len(compiled) == len(g.laws) == 11  # each law once per (g, X)
    prog = engine._program(g, X)
    # both slices are copies of the one program and share its one graph
    assert [p.live for p in ran] == [(3,), (3,)]
    assert all(p is not prog and p.deps is prog.deps for p in ran)
    assert engine._program(g, X).live == tuple(range(11))
    assert distribution(g, X) == want
    assert len(compiled) == 11
    assert _sliced(g, X, c3)


def test_a_slice_fires_its_laws_in_index_order():
    # In literal mode the order matters: ~A first pins A, so B is never
    # caused; B <- A first would see A true.  The coin is outside B's slice.
    t = parse_theory("~A.\nA.\nB <- A.\n(C:1/2).")
    g, b = ground(t), parse_formula("B", t)
    assert _sliced(g, frozenset(), b)
    assert query(g, frozenset(), b, UMode.LITERAL) == 0 \
        == _full(g, frozenset(), b, UMode.LITERAL)
