"""Dormant laws: the per-X compile skips what X cannot wake.

`ground` marks a law dormant when its body is f with every exogenous atom
f and every endogenous atom u, builds a dormant law's body only when it is
first read, and records each exogenous atom occurrence of each dormant
schema.  `engine._Program` compiles only the laws that X wakes and the laws
that are not dormant.  The result must be the program that compiling
every law gives; a `GroundTheory` built in code carries no record, so it
is that full compile.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from cplogic import engine
from cplogic.engine import _Program, distribution, query
from cplogic.ground import (GroundTheory, _DormantLaw, _woken, ground,
                            stratification_report)
from cplogic.syntax import formula_atoms, parse_theory

from helpers import (atom, atoms, drawn_exogenous, quantified_theories,
                     replace)


def _full(g: GroundTheory) -> GroundTheory:
    """``g``'s laws as a theory built in code, which compiles every law."""
    return GroundTheory(g.laws, g.endogenous_atoms, g.exogenous_atoms, g.domains)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(quantified_theories(), st.data())
def test_the_sparse_compile_equals_the_full_compile(t, data):
    g = ground(t)
    X = drawn_exogenous(data.draw, g)
    # a fresh grounding, so that no dormant body has been read
    fresh = ground(t)
    assert _woken(fresh, X) == {i for i in g._wake[0]
                                if X.intersection(formula_atoms(g.laws[i].body))}
    sparse, full = _Program(fresh, X), _Program(_full(g), X)
    assert sparse.atoms == full.atoms
    assert sparse.live == full.live
    assert sparse.heads == full.heads
    n = len(sparse.atoms)
    if n <= 4:
        for values in product((0, 1, 2), repeat=n):  # every (t, u) mask pair
            tm = sum(1 << k for k, v in enumerate(values) if v == 2)
            um = sum(1 << k for k, v in enumerate(values) if v == 1)
            assert [b(tm, um) for b in sparse.bodies] == \
                [b(tm, um) for b in full.bodies]


def test_dormancy_follows_kleene_values_at_rest():
    g = ground(parse_theory(
        "domain d = {a, b}.\ndomain none = {}.\nexogenous E/1.\n"
        "A <- E(a).\n"                       # 0: f at rest, woken by E(a)
        "B <- ~E(a).\n"                      # 1: t at rest
        "C <- A, ?x in d: E(x).\n"           # 2: f, woken by E(a) and E(b)
        "D <- A ; ?x in d: E(x).\n"          # 3: u at rest
        "F <- !x in none: E(x).\n"           # 4: an empty ! is true
        "G <- A, ?x in none: A.\n"           # 5: an empty ? is false
        "H <- true.\n"                       # 6: t, as coins' bodies
        "I <- false.\n"))                    # 7: f and never woken
    dormant, wakers = g._wake
    assert dormant == {0, 2, 5, 7}
    # one entry per dormant schema and exogenous occurrence, filed under its
    # constants: E(a) in law 0, and E(x) with x quantified over d (slot 0,
    # as law 2 has no binder) in law 2; nothing under the empty ?
    assert wakers == {"E": {("a",): [([], {(): 0}, ((None, "a"),))],
                            (None,): [([], {(): 2}, ((0, ("a", "b")),))]}}
    for X, woken in ((atoms(), set()), (atoms("E(a)"), {0, 2}),
                     (atoms("E(b)"), {2}), (atoms("E(a)", "E(b)"), {0, 2})):
        assert _woken(g, X) == woken
        full = _Program(_full(g), X)
        sparse = _Program(g, X)
        assert (sparse.live, sparse.heads) == (full.live, full.heads)
        assert distribution(g, X) == distribution(_full(g), X)


def test_an_atom_wakes_the_instances_whose_binders_it_fixes():
    g = ground(parse_theory(
        "domain d = {a, b, c}.\ndomain e = {a, c}.\nexogenous R/3.\n"
        "!x in d: !y in e: P(x, y) <- ?z in d: R(y, z, a).\n"  # 0..5
        "!x in d: Q(x) <- R(x, x, b).\n"))                     # 6..8
    for X, woken in ((atoms("R(c,b,a)"), {1, 3, 5}), (atoms("R(b,a,a)"), set()),
                     (atoms("R(a,b,c)"), set()), (atoms("R(b,b,b)"), {7}),
                     (atoms("R(a,b,b)"), set()),
                     (atoms("R(a,a,a)", "R(c,c,b)"), {0, 2, 4, 8})):
        assert _woken(g, X) == woken
        assert woken == {i for i in g._wake[0]
                         if X.intersection(formula_atoms(g.laws[i].body))}


def _reachability(k: int):
    nodes = ", ".join(f"v{i}" for i in range(k))
    return ground(parse_theory(
        f"domain node = {{{nodes}}}.\nexogenous Edge/2, Start/1, Cut/1.\n"
        "!y in node: (Reach(y):9/10) <- Start(y) ; "
        "(?x in node: (Reach(x), Edge(x, y))).\n"
        "!y in node: ~Reach(y) <- Cut(y).\n"))


def test_a_request_compiles_only_the_laws_its_evidence_touches(monkeypatch):
    g = _reachability(12)
    X = atoms("Start(v0)", "Edge(v0,v1)", "Edge(v1,v2)")
    compiled = []
    real = engine._compile_body

    def counted(phi, *rest):
        compiled.append(phi)
        return real(phi, *rest)

    monkeypatch.setattr(engine, "_compile_body", counted)
    assert query(g, X, atom("Reach(v2)")) == Fraction(9, 10) ** 3
    touched = [law for law in g.laws if X.intersection(formula_atoms(law.body))]
    assert 0 < len(compiled) <= len(touched) < len(g.laws)
    # A theory built in code has no record and compiles every law.
    compiled.clear()
    assert query(_full(g), X, atom("Reach(v2)")) == Fraction(9, 10) ** 3
    assert len(compiled) == len(g.laws)


def test_a_copy_with_other_laws_forgets_which_laws_were_dormant():
    g = _reachability(3)
    swapped = replace(g, laws=g.laws[::-1])
    assert swapped._wake is swapped._schemas is None
    # the report of a copy reads its laws, not the schemas of the original
    assert stratification_report(swapped) == stratification_report(g)
    X = atoms("Start(v0)")
    assert _Program(swapped, X).live == _Program(_full(swapped), X).live


def _count_built_bodies(monkeypatch) -> list:
    """The laws whose bodies are built from here on, as they are built."""
    built = []
    real = _DormantLaw.__getattr__

    def counted(law, name):
        if name == "body":
            built.append(law)
        return real(law, name)

    monkeypatch.setattr(_DormantLaw, "__getattr__", counted)
    return built


def test_a_dormant_law_answers_other_questions_without_its_body(monkeypatch):
    built = _count_built_bodies(monkeypatch)
    law = _reachability(2).laws[0]
    assert isinstance(law, _DormantLaw)
    assert law != "Reach(v0)" and not hasattr(law, "missing")
    assert built == [] and "body" not in vars(law)


def test_only_what_x_wakes_has_its_body_built(monkeypatch):
    built = _count_built_bodies(monkeypatch)
    g = _reachability(12)
    dormant = g._wake[0]
    assert len(dormant) == len(g.laws) == 24
    assert stratification_report(g).stratified
    assert distribution(g, frozenset()) == {frozenset(): 1}
    assert built == []
    X = atoms("Start(v0)", "Edge(v0,v1)", "Edge(v1,v2)")
    assert query(g, X, atom("Reach(v2)")) == Fraction(9, 10) ** 3
    assert 0 < len(built) == len(set(map(id, built))) <= len(_woken(g, X)) == 3
    # bodies built late equal those of another grounding, and their atoms
    # are the objects of the intern table
    assert g == _reachability(12)
    endo = {a: a for a in g.endogenous_atoms}
    assert all(endo[a] is a for law in g.laws for a in formula_atoms(law.body)
               if a in endo)
