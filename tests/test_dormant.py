"""Dormant laws: the per-X compile skips what X cannot wake.

`ground` marks a law dormant when its body is f with every exogenous atom
f and every endogenous atom u, and records which exogenous atoms each
dormant instance mentions.  `engine._Program` compiles only the laws that
X wakes and the laws that are not dormant.  The result must be the program
that compiling every law gives; a `GroundTheory` built in code carries no
record, so it is that full compile.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from cplogic import engine
from cplogic.engine import _Program, distribution, query
from cplogic.ground import GroundTheory, ground
from cplogic.syntax import formula_atoms, parse_theory

from helpers import atom, atoms, mentioned_exogenous, quantified_theories


def _full(g: GroundTheory) -> GroundTheory:
    """``g``'s laws as a theory built in code, which compiles every law."""
    return GroundTheory(g.laws, g.endogenous_atoms, g.exogenous_atoms, g.domains)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(quantified_theories(), st.data())
def test_the_sparse_compile_equals_the_full_compile(t, data):
    g = ground(t)
    mentioned = mentioned_exogenous(g)
    X = frozenset(data.draw(st.lists(st.sampled_from(mentioned), unique=True))
                  if mentioned else ())
    sparse, full = _Program(g, X), _Program(_full(g), X)
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
    assert wakers == {"E": {("a",): [0, 2], ("b",): [2]}}
    for X in (atoms(), atoms("E(a)"), atoms("E(b)"), atoms("E(a)", "E(b)")):
        full = _Program(_full(g), X)
        sparse = _Program(g, X)
        assert (sparse.live, sparse.heads) == (full.live, full.heads)
        assert distribution(g, X) == distribution(_full(g), X)


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
    assert swapped._wake is None
    X = atoms("Start(v0)")
    assert _Program(swapped, X).live == _Program(_full(swapped), X).live
