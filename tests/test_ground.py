import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import cplogic
from cplogic import theories
from cplogic.cli import main
from cplogic.engine import distribution
from cplogic.ground import (GroundTheory, _negation_cycles, check_theory,
                            expand_formula, ground, stratification_report)
from cplogic.syntax import (FALSE, TRUE, And, Atom, CPLaw, EffectLiteral,
                            Exists, ForAll, HeadDisjunct, Or, ParseError, Theory,
                            TheoryError, Var, formula_atoms, parse_theory,
                            print_theory)

from helpers import atom, atoms, replace


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


def _outcomes(text: str):
    """The one law of ``text`` and its outcome table in the ground theory."""
    g = ground(parse_theory(text))
    return g.laws[0], g._outcomes[0]


def test_normalize_pads_with_noop_outcome():
    law, table = _outcomes("(Broken:4/5) <- T.")
    assert table == ((law.head[0].literal, 4, 5), (None, 1, 5))


def test_normalize_keeps_full_heads():
    law1, table1 = _outcomes("A <- B.")
    assert table1 == ((law1.head[0].literal, 1, 1),)
    _, n2 = _outcomes("(A:1/2); (B:1/2) <- C.")
    assert [(num, den) for _, num, den in n2] == [(1, 2), (1, 2)]
    assert all(lit is not None for lit, _, _ in n2)


def test_normalize_keeps_head_verbatim():
    law, n = _outcomes("(A:1/3); (B:1/3) <- C.")
    assert n[:2] == tuple((d.literal, d.prob.numerator, d.prob.denominator)
                          for d in law.head)
    assert n[-1] == (None, 1, 3)


def test_the_remainder_is_in_lowest_terms():
    _, table = _outcomes("(A:1/6); (B:1/3); (C:1/4) <- D.")
    assert [(num, den) for _, num, den in table] == [(1, 6), (1, 3), (1, 4), (1, 4)]


def test_ground_rejects_a_head_summing_above_one():
    # the parser rejects this text; a law built in code reaches ground
    head = tuple(HeadDisjunct(EffectLiteral(False, Atom(name)), Fraction(2, 3))
                 for name in ("A", "B"))
    with pytest.raises(TheoryError, match=r"^head probabilities sum to 4/3 > 1$"):
        ground(Theory({}, {}, (CPLaw((), head, TRUE),)))


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


@pytest.mark.parametrize("text", ["A <- B, ~C. C <- A.",
                                  "A <- (B ; ~C). C <- A."])
def test_negation_inside_a_connective_is_negative(text):
    report = stratification_report(ground(parse_theory(text)))
    assert not report.stratified
    assert report.offending_cycles == (atoms("A", "C"),)


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


@pytest.mark.parametrize("binders, body", [
    ((), ForAll("x", "none", Exists("y", "ghost", Atom("B")))),
    ((("x", "none"),), Exists("y", "ghost", Atom("B"))),
])
def test_ground_rejects_an_undeclared_domain_it_never_expands(binders, body):
    # under an empty quantifier, and in a law with no instances
    law = CPLaw(binders, (HeadDisjunct(EffectLiteral(False, Atom("A")), Fraction(1)),),
                body)
    with pytest.raises(TheoryError, match="^undeclared domain 'ghost'$"):
        ground(Theory({"none": ()}, {}, (law,)))


def test_declared_exogenous_predicates_always_in_universe():
    # even when no law mentions them, declared exogenous atoms are settable
    t = parse_theory("exogenous E/0.\nA <- B.")
    assert atom("E") in ground(t).exogenous_atoms


def test_a_ground_theory_built_in_code_rejects_a_head_summing_above_one():
    head = tuple(HeadDisjunct(EffectLiteral(False, Atom(name)), Fraction(2, 3))
                 for name in ("A", "B"))
    with pytest.raises(TheoryError, match=r"^head probabilities sum to 4/3 > 1$"):
        GroundTheory((CPLaw((), head, TRUE),), atoms("A", "B"), frozenset(), {})
    halves = tuple(HeadDisjunct(EffectLiteral(False, Atom(name)), Fraction(1, 2))
                   for name in "ABCD")
    with pytest.raises(TheoryError, match=r"^head probabilities sum to 2 > 1$"):
        GroundTheory((CPLaw((), halves, TRUE),), atoms(*"ABCD"), frozenset(), {})


@pytest.mark.parametrize("prob, message", [
    (Fraction(-1, 2), r"probability -1/2 is not in \(0, 1\]"),
    (Fraction(0), r"probability 0 is not in \(0, 1\]"),
    (Fraction(3, 2), r"probability 3/2 is not in \(0, 1\]"),
], ids=["negative", "zero", "above one"])
def test_a_ground_theory_rejects_a_probability_outside_zero_to_one(prob, message):
    # (A:-1/2); B once grounded and gave a world of probability -1/2
    head = (HeadDisjunct(EffectLiteral(False, Atom("A")), prob),
            HeadDisjunct(EffectLiteral(False, Atom("B")), Fraction(1)))
    t = Theory({}, {}, (CPLaw((), head, TRUE),))
    with pytest.raises(TheoryError, match=f"^{message}$"):
        ground(t)
    with pytest.raises(TheoryError, match=f"^{message}$"):
        GroundTheory(t.laws, atoms("A", "B"), frozenset(), {})


@pytest.mark.parametrize("prob", [0.5, True, 1.0], ids=["float", "bool", "float one"])
def test_a_probability_that_is_not_an_int_or_a_fraction_is_rejected(prob):
    # (A:0.5) built in code printed as 1/2 and passed check_theory, then
    # crashed ground with AttributeError
    t = Theory({}, {}, (CPLaw((), (HeadDisjunct(EffectLiteral(False, Atom("A")), prob),),
                              TRUE),))
    message = rf"^probability {prob!r} is not an int or a Fraction$"
    with pytest.raises(TheoryError, match=message):
        check_theory(t)
    with pytest.raises(TheoryError, match=message):
        ground(t)


def test_an_exogenous_head_is_rejected():
    # (E(a):1/2) once made E(a) both endogenous and exogenous, and X = {E(a)}
    # was then ignored
    t = parse_theory("domain d = {a}.\nexogenous E/1.\nA <- E(a).")
    head = (HeadDisjunct(EffectLiteral(False, atom("E(a)")), Fraction(1, 2)),)
    odd = replace(t, laws=t.laws + (CPLaw((), head, TRUE),))
    with pytest.raises(TheoryError, match=r"^exogenous atom E\(a\) may not occur in a head$"):
        ground(odd)
    assert distribution(ground(t), atoms("E(a)")) == {atoms("A"): 1}


def _half(name: str, *args) -> HeadDisjunct:
    return HeadDisjunct(EffectLiteral(False, Atom(name, args)), Fraction(1, 2))


@pytest.mark.parametrize("t, message", [
    # P(a) came out at 3/4, not 1/2: the one law grounded twice
    (Theory({"d": ("a", "a")}, {}, (CPLaw((("x", "d"),), (_half("P", Var("x")),), TRUE),)),
     "constant 'a' listed twice in domain 'd'"),
    # A came out at probability 1
    (Theory({}, {}, (CPLaw((), (_half("A"), _half("A")), TRUE),)),
     "atom A appears in two disjuncts of the same head"),
    # each instance grounded twice
    (Theory({"d": ("a",)}, {}, (CPLaw((("x", "d"), ("x", "d")), (_half("P", Var("x")),), TRUE),)),
     "law variable 'x' bound twice"),
    # grounded to a law whose only outcome is the no-op
    (Theory({}, {}, (CPLaw((), (), TRUE),)), "law has an empty head"),
], ids=["constant twice", "head atom twice", "variable twice", "empty head"])
def test_ground_rejects_what_the_parser_rejects(t, message):
    with pytest.raises(TheoryError, match=f"^{message}$"):
        ground(t)
    with pytest.raises(TheoryError):
        check_theory(t)


def _laws(*heads, binders=()) -> tuple:
    """One law per head, each head given as ``(atom, probability)`` pairs."""
    return tuple(CPLaw(binders, tuple(HeadDisjunct(EffectLiteral(False, a), p)
                                      for a, p in head), TRUE) for head in heads)


_P_X, _HALF = Atom("P", (Var("x"),)), Fraction(1, 2)
_HINT = "; law variables need a '!x in d:' binder"


# Per rule of `syntax.Rules`, a theory built in code that breaks it, the
# message, and what the parser says of the printed theory: the same message
# (True), another (a string), or nothing to compare, the text breaking
# another rule or none (False).
@pytest.mark.parametrize("t, message, printed", [
    (Theory({"d": ("a", "a")}, {}, ()), "constant 'a' listed twice in domain 'd'", True),
    (Theory({"d": ("a",)}, {}, _laws([(_P_X, 1)], binders=(("x", "d"), ("x", "d")))),
     "law variable 'x' bound twice", True),
    (Theory({}, {}, _laws([(_P_X, 1)], binders=(("x", "ghost"),))),
     "undeclared domain 'ghost'", True),
    (Theory({"d": ("a",)}, {}, _laws([(Atom("P", ("a",)), 1)], [(Atom("P"), 1)])),
     "predicate 'P' used with arity 0, previously 1", True),
    (Theory({"d": ("a",)}, {}, _laws([(Atom("P", ("zz",)), 1)])),
     "undeclared constant 'zz' (not in any domain)",
     f"undeclared constant 'zz' (not in any domain{_HINT})"),
    (Theory({"d": ("a",)}, {"E": 1}, _laws([(Atom("E", ("a",)), 1)])),
     "exogenous atom E(a) may not occur in a head", True),
    (Theory({}, {}, _laws([(Atom("A"), _HALF), (Atom("A"), _HALF)])),
     "atom A appears in two disjuncts of the same head", True),
    (Theory({}, {}, _laws([(Atom("A"), Fraction(0))])), "probability 0 is not in (0, 1]", True),
    (Theory({}, {}, _laws([(Atom("A"), Fraction(3, 2))])),
     "probability 3/2 is not in (0, 1]", True),
    (Theory({}, {}, _laws([(Atom("A"), -_HALF)])),
     "probability -1/2 is not in (0, 1]", False),  # "-" is no token
    (Theory({}, {}, _laws([(Atom("A"), Fraction(2, 3)), (Atom("B"), Fraction(2, 3))])),
     "head probabilities sum to 4/3 > 1", True),
    # ground once ended in TypeError ("1") and ZeroDivisionError (-1)
    (Theory({}, {"E": "x"}, ()), "expected arity (a plain integer)", True),
    (Theory({}, {"E": True}, ()), "expected arity (a plain integer)", True),
    (Theory({}, {"E": "1"}, ()), "expected arity (a plain integer)", False),  # prints E/1
    (Theory({}, {"E": -1}, ()), "expected arity (a plain integer)", False),
], ids=["constant twice", "bound twice", "undeclared domain", "second arity",
        "undeclared constant", "exogenous head", "two disjuncts", "zero", "above one",
        "negative", "head sum", "arity x", "arity True", "arity '1'", "arity -1"])
def test_each_rule_gives_one_message_to_ground_check_and_the_parser(t, message, printed):
    for check in (ground, check_theory):
        with pytest.raises(TheoryError) as info:
            check(t)
        assert str(info.value) == message
    if printed:
        with pytest.raises(ParseError) as info:
            parse_theory(print_theory(t))
        assert info.value.message == (message if printed is True else printed)


def test_a_head_must_stay_apart_in_every_instance():
    t = parse_theory("domain d = {a, b}.\ndomain e = {b}.\n"
                     "!x in d: !y in e: (P(x):1/2); (P(y):1/2).")
    with pytest.raises(TheoryError,
                       match=r"^atom P\(b\) appears in two disjuncts of the same head$"):
        ground(t)
    # x over {a} alone never meets y: the head is fine
    ground(replace(t, domains={"d": ("a",), "e": ("b",)}))


def test_equal_ground_atoms_are_one_object():
    g = ground(parse_theory("domain d = {a, b}.\n!y in d: P(y) <- ?x in d: P(x)."))
    pa = [x for law in g.laws for x in formula_atoms(law.body) if x == atom("P(a)")]
    assert len(pa) == 2
    (interned,) = (x for x in g.endogenous_atoms if x == atom("P(a)"))
    assert all(x is interned for x in pa)
    assert g.laws[0].head[0].literal.atom is interned


def test_expansion_rejects_every_undeclared_domain():
    ghost = ForAll("y", "ghost", Atom("P", (Var("y"),)))
    assert expand_formula(Exists("x", "none", TRUE), {}, {"none": ()}) == FALSE
    with pytest.raises(TheoryError, match="undeclared domain 'ghost'"):
        expand_formula(Exists("x", "none", ghost), {}, {"none": ()})
    with pytest.raises(TheoryError, match="undeclared domain 'ghost'"):
        expand_formula(Exists("x", "one", ghost), {}, {"one": ("a",)})


def test_offending_cycles_come_in_printed_order():
    report = stratification_report(ground(parse_theory(
        "A <- ~D. D <- ~A. B <- ~C. C <- ~B.")))
    assert report.offending_cycles == (atoms("A", "D"), atoms("B", "C"))
    assert report.describe() == \
        "stratified: no (negation cycle through {A, D}; {B, C})"


def test_many_negation_cycles_are_found_in_linear_time():
    # 20,000 two-node negative cycles; scanning every node once per offending
    # component took over 15 s
    n = 20_000
    deps = {i ^ b: {i ^ b ^ 1: True} for i in range(0, 2 * n, 2) for b in (0, 1)}
    start = time.perf_counter()
    cycles = _negation_cycles(deps)
    elapsed = time.perf_counter() - start
    assert sorted(map(sorted, cycles)) == [[i, i + 1] for i in range(0, 2 * n, 2)]
    assert elapsed < 4


BIG_UNIVERSE = ("domain d = {" + ", ".join(f"c{i}" for i in range(100)) + "}.\n"
                "exogenous R/3.\nA <- R(c0, c1, c2).\n")


def test_the_exogenous_universe_is_counted_not_listed():
    t = parse_theory(BIG_UNIVERSE)
    universe = ground(t).exogenous_atoms
    assert len(universe) == 100 ** 3
    assert atom("R(c99,c0,c7)") in universe
    assert atom("R(c0,c1)") not in universe and atom("R(c0,c1,zz)") not in universe
    assert "R" not in universe
    assert repr(universe) == "<1000000 exogenous atoms>"
    assert frozenset({atom("R(c0,c1,c2)"), atom("Q")}) - universe == {atom("Q")}
    small = ground(parse_theory("domain d = {a, b}.\nexogenous E/0, R/2.\nA."))
    assert sorted(map(str, small.exogenous_atoms)) == \
        ["E", "R(a,a)", "R(a,b)", "R(b,a)", "R(b,b)"]


def test_grounding_a_large_exogenous_universe_takes_little_memory():
    script = ("import resource, sys\n"
              "from cplogic import ground, parse_theory\n"
              "t = parse_theory(sys.stdin.read())\n"
              "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
              "g = ground(t)\n"
              "print(len(g.exogenous_atoms),\n"
              "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cplogic.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], input=BIG_UNIVERSE,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    size, grown_kb = map(int, proc.stdout.split())
    assert size == 100 ** 3
    assert grown_kb < 8 * 1024  # listing the universe took over 200 MB


def test_check_prints_the_size_of_a_large_exogenous_universe(tmp_path, capsys):
    path = tmp_path / "big.cpl"
    path.write_text(BIG_UNIVERSE)
    assert main(["check", str(path), "--exo", "R(c0,c1,c2)=true"]) == 0
    out = capsys.readouterr().out
    assert "exogenous atoms: 1000000\n" in out
    assert "ok (1 worlds)" in out


@pytest.mark.parametrize("text, count", [
    ("domain d = {a, b}. exogenous E/64. A.", "2^64"),
    ("domain d = {a, b, c}. exogenous E/100000000. A.", "3^100000000"),
])
def test_a_universe_past_sys_maxsize_is_counted_in_powers(tmp_path, text, count):
    path = tmp_path / "huge.cpl"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(cplogic.__file__).parents[1]))
    for command, printed in (("check", f"exogenous atoms: {count}\n"), ("dist", "{A}  1 ")):
        proc = subprocess.run([sys.executable, "-m", "cplogic.cli", command, str(path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert printed in proc.stdout
    universe = ground(parse_theory(text)).exogenous_atoms
    assert repr(universe) == f"<{count} exogenous atoms>"
    with pytest.raises(OverflowError):
        len(universe)
