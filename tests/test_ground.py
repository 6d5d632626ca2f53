from fractions import Fraction

import pytest

from cplogic import theories
from cplogic.ground import ground, normalize, stratification_report
from cplogic.syntax import (TRUE, And, Atom, CPLaw, EffectLiteral, HeadDisjunct,
                            Or, Theory, TheoryError, Var, parse_theory)

from helpers import atom, atoms


def test_singleton_domain_expands_to_one_law():
    t = parse_theory("domain bird = {tweety}.\nexogenous Bird/1.\n"
                     "!x in bird: Flies(x) <- Bird(x).")
    g = ground(t)
    assert len(g.laws) == 1
    assert g.laws[0].head[0].literal.atom == atom("Flies(tweety)")


@pytest.mark.parametrize("head, body, message", [
    (Atom("A", (Var("x"),)), TRUE, "unbound variable 'x'"),
    (Atom("A"), Atom("P", (Var("y"),)), "unbound variable 'y'"),
    (Atom("A"), And((Atom("B"),)), "two parts"),
])
def test_ground_rejects_what_printing_hides(head, body, message):
    law = CPLaw((), (HeadDisjunct(EffectLiteral(False, head), Fraction(1)),), body)
    with pytest.raises(TheoryError, match=message):
        ground(Theory({"d": ("a",)}, {}, (law,)))


def test_penguin_rules_ground_to_four_laws():
    g = ground(theories.get("penguins"))
    assert len(g.laws) == 4
    heads = [law.head[0].literal for law in g.laws]
    assert sum(1 for h in heads if h.negated) == 2


def test_existential_expands_to_disjunction():
    t = parse_theory("domain d = {a, b}.\nQ <- ?x in d: P(x).")
    g = ground(t)
    assert g.laws[0].body == Or((atom("P(a)"), atom("P(b)")))


def test_instance_count_is_product_of_domain_sizes():
    t = parse_theory("domain d2 = {a, b}.\ndomain d3 = {u, v, w}.\n"
                     "!x in d2: !y in d3: P(x, y) <- Q(x).")
    g = ground(t)
    assert len(g.laws) == 6
    assert all(law.vars == () for law in g.laws)


def test_empty_domain_produces_zero_instances():
    t = parse_theory("domain d = {}.\n!x in d: P(x).")
    g = ground(t)
    assert g.laws == ()


def test_universe_split_by_predicate_classification():
    g = ground(theories.get("gears"))
    assert atom("Turns(gear2)") in g.endogenous_atoms
    assert atom("Crank1") in g.exogenous_atoms
    # a ground atom is endogenous iff its predicate is endogenous
    assert all(a.predicate == "Turns" for a in g.endogenous_atoms)
    assert all(a.predicate.startswith("Crank") for a in g.exogenous_atoms)


def test_normalize_pads_with_noop_outcome():
    law = parse_theory("(Broken:4/5) <- T.").laws[0]
    n = normalize(law)
    assert n.outcomes == ((law.head[0].literal, Fraction(4, 5)),
                          (None, Fraction(1, 5)))


def test_normalize_keeps_full_heads():
    law1 = parse_theory("A <- B.").laws[0]
    assert normalize(law1).outcomes == ((law1.head[0].literal, Fraction(1)),)
    law2 = parse_theory("(A:1/2); (B:1/2) <- C.").laws[0]
    n2 = normalize(law2)
    assert [p for _, p in n2.outcomes] == [Fraction(1, 2), Fraction(1, 2)]
    assert all(lit is not None for lit, _ in n2.outcomes)


def test_normalize_idempotent_and_verbatim():
    law = parse_theory("(A:1/3); (B:1/3) <- C.").laws[0]
    n = normalize(law, index=7)
    assert normalize(n) is n
    assert n.index == 7
    assert n.outcomes[:2] == tuple((d.literal, d.prob) for d in law.head)
    assert n.outcomes[-1] == (None, Fraction(1, 3))


def test_stratified_when_acyclic():
    g = ground(parse_theory("A <- ~B."))
    assert stratification_report(g).stratified


def test_negation_loop_reported():
    g = ground(parse_theory("A <- ~B. B <- ~A."))
    report = stratification_report(g)
    assert not report.stratified
    assert report.offending_cycles == (atoms("A", "B"),)
    assert "cycle" in report.describe()


def test_negative_head_edges_count_as_negative():
    # ~A <- B together with B <- A is a cycle through a negative edge.
    g = ground(parse_theory("~A <- B. B <- A."))
    report = stratification_report(g)
    assert not report.stratified
    assert report.offending_cycles == (atoms("A", "B"),)


def test_positive_cycle_is_fine():
    g = ground(parse_theory("A <- B. B <- A."))
    assert stratification_report(g).stratified


def test_suzy_billy_stratified():
    assert stratification_report(ground(theories.get("suzy_billy"))).stratified


def test_locked_gears_stratified():
    assert stratification_report(ground(theories.get("locked_gears"))).stratified


def test_ground_rejects_undeclared_domain():
    from cplogic.syntax import CPLaw, EffectLiteral, HeadDisjunct, Theory, TRUE, Var
    law = CPLaw((("x", "ghost"),),
                (HeadDisjunct(EffectLiteral(False, Atom("P", (Var("x"),))), Fraction(1)),),
                TRUE)
    with pytest.raises(TheoryError, match="ghost"):
        ground(Theory({}, {}, (law,)))


def test_declared_exogenous_predicates_always_in_universe():
    # even when no law mentions them, declared exogenous atoms are settable
    t = parse_theory("exogenous E/0.\nA <- B.")
    assert atom("E") in ground(t).exogenous_atoms
