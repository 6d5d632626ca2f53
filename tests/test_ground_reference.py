"""Template grounding and the head-only cycle check against plain references.

`reference_ground` keeps the node-by-node expansion, the listed exogenous
universe, the `Fraction` outcome tables and the full-graph Kosaraju.  On
random quantified theories (the print∘parse strategy, plus a hand-written
one with every tricky binder shape), on random propositional programs full
of negation cycles and on the bundled theories, the ground theories and
their outcome tables must be equal and the stratification reports equal
field by field, also before any dormant body has been built.  A law built
in code that breaks one of the parser's rules must raise the same error
through `ground`, the reference and `check_theory`.  The reference sorts
offending cycles by a hash-seed dependent root, so those are compared in
printed order.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from cplogic import theories
from cplogic.ground import (check_theory, expand_formula, ground,
                            stratification_report)
from cplogic.syntax import (TRUE, And, Atom, CPLaw, EffectLiteral, Exists,
                            HeadDisjunct, Theory, TheoryError, Var,
                            format_atom_set, parse_theory)

import reference_ground as ref
from helpers import (random_deterministic_theory, random_stratified_theory,
                     replace)
from test_print_parse import theory_values

# Nested law binders, a quantifier that shadows a law variable (the inner
# ?x), a quantifier over an empty domain, a negative head and a body atom
# of an exogenous predicate.  The last two laws are dormant; the last one's
# body, built only when read, has a negated atom, a repeated variable, a
# shadowed law variable and S, which heads no law, and it closes a
# negation cycle through P(a, a).
SHAPES = parse_theory("""
domain d = {a, b}.
domain none = {}.
exogenous R/2.
!x in d: !y in d: (P(x, y):1/2); (~Q(x):1/3) <- (?x in d: (R(x, y), !z in none: Q(z))) ; ~P(y, x).
!y in d: Q(y) <- ?z in none: P(z, y).
!x in d: ~P(x, x) <- R(x, a), ?y in d: (P(y, x), ~Q(y), S(x, y, y), ?x in d: R(x, y)).
""")


def assert_same_report(g):
    new, old = stratification_report(g), ref.stratification_report(g)
    assert new.stratified == old.stratified
    assert new.offending_cycles == tuple(sorted(old.offending_cycles,
                                                key=format_atom_set))


def assert_same_ground(t):
    """The groundings, their outcome tables and their reports agree."""
    g, old = ground(t), ref.ground(t)
    assert_same_report(g)  # from the schemas, before any body is read
    assert g == old
    assert g._outcomes == tuple(map(ref.outcomes, g.laws))
    assert len(g.exogenous_atoms) == len(old.exogenous_atoms)
    assert all(a in g.exogenous_atoms for a in old.exogenous_atoms)
    assert_same_report(old)  # a theory built in code is its own schemas
    return g


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example(SHAPES)
@given(theory_values(apart=True))
def test_quantified_theories_ground_and_stratify_as_the_references(t):
    assert_same_ground(t)
    for law in t.laws:
        # Bind only the first law variable: the others stay variables.
        env = {v: t.domains[d][0] for v, d in law.vars[:1] if t.domains[d]}
        assert expand_formula(law.body, env, t.domains) == \
            ref.expand_formula(law.body, env, t.domains)


def test_the_shapes_theory_has_what_it_promises():
    g = ground(SHAPES)
    assert len(g.laws) == 8
    assert any(d.literal.negated for law in g.laws for d in law.head)
    assert Atom("R", ("a", "b")) in g.exogenous_atoms
    assert g._wake[0] == {4, 5, 6, 7}
    assert not stratification_report(g).stratified


def test_propositional_programs_stratify_as_the_reference():
    several = 0
    for seed in range(300):
        for t in (random_deterministic_theory(seed, atoms=6, laws=8),
                  random_stratified_theory(seed, atoms=6, laws=8)):
            g = assert_same_ground(t)
            several += len(stratification_report(g).offending_cycles) > 1
    assert several  # the order of several offending cycles is exercised


@pytest.mark.parametrize("name", sorted(theories.BUNDLED))
def test_bundled_theories_ground_and_stratify_as_the_references(name):
    assert_same_ground(theories.get(name))


def test_code_built_oddities_are_rejected():
    # Only code can build these: an exogenous predicate in a head, and
    # exogenous body atoms of the wrong arity or with an undeclared constant.
    wrong_arity, unknown = Atom("E", ("a", "a")), Atom("E", ("zz",))
    t = parse_theory("domain d = {a}.\nexogenous E/1.\nA <- E(a).")
    law = t.laws[0]
    for odd, message in [
            (replace(law, head=(replace(law.head[0], literal=EffectLiteral(
                False, Atom("E", ("a",)))),), body=TRUE),
             r"exogenous atom E\(a\) may not occur in a head"),
            (replace(law, body=wrong_arity),
             "predicate 'E' used with arity 2, previously 1"),
            (replace(law, body=And((law.body, unknown))),
             r"undeclared constant 'zz' \(not in any domain\)")]:
        for grounding in (ground, ref.ground):
            with pytest.raises(TheoryError, match=f"^{message}$"):
                grounding(replace(t, laws=t.laws + (odd,)))


def _law(head, body=TRUE, prob=Fraction(1)):
    return CPLaw((), (HeadDisjunct(EffectLiteral(False, head), prob),), body)


@pytest.mark.parametrize("law, message", [
    (_law(Atom("A"), "B"), "not a formula: 'B'"),
    (_law(Atom("A"), prob=0.5), "probability 0.5 is not an int or a Fraction"),
    (_law(Atom("P", ("zz",))), r"undeclared constant 'zz' \(not in any domain\)"),
    (_law(Atom("A"), Atom("P", (["a"],))),
     r"undeclared constant \['a'\] \(not in any domain\)"),
    (_law(Atom("P", ("a",)), Atom("P")), "predicate 'P' used with arity 0, previously 1"),
    (_law(Atom("A"), Exists("x", "d", Atom("Q", (Var("x"), Var("y"))))),
     "unbound variable 'y'"),
    (_law(Atom("A"), Exists("x", "ghost", Atom("Q", (Var("x"), "a")))),
     "undeclared domain 'ghost'"),
], ids=["not a formula", "float", "head constant", "unhashable constant", "arity",
        "unbound", "domain"])
def test_a_law_built_in_code_is_rejected_alike_by_ground_reference_and_check(law, message):
    t = Theory({"d": ("a",)}, {}, (law,))
    for check in (ground, ref.ground, check_theory):
        with pytest.raises(TheoryError, match=f"^{message}$"):
            check(t)
