import re
import string
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cplogic import syntax, theories
from cplogic.ground import check_theory
from cplogic.syntax import (MAX_NESTING, And, Atom, Exists, ForAll, Not, Or,
                            ParseError, TheoryError, Theory, Truth, Var, _tokenize,
                            endogenous_signature, substitute_formula,
                            parse_assignment, parse_formula,
                            parse_literal, parse_theory, print_theory, TRUE)

from helpers import total

GEAR_PREAMBLE = "domain gear = {gear1, gear2, gear3}.\n"


def test_single_probabilistic_law():
    t = parse_theory(GEAR_PREAMBLE + "(Turns(gear1):0.9) <- Turns(gear2).")
    (law,) = t.laws
    assert len(law.head) == 1
    assert law.head[0].prob == Fraction(9, 10)
    assert law.head[0].literal.negated is False
    assert law.head[0].literal.atom == Atom("Turns", ("gear1",))
    assert law.body == Atom("Turns", ("gear2",))


def test_deterministic_sugar():
    t = parse_theory("A <- B.")
    (law,) = t.laws
    assert law.is_deterministic()
    assert law.head[0].prob == Fraction(1)


def test_vacuous_body():
    t = parse_theory("(A:0.5).")
    assert t.laws[0].body == TRUE


def test_head_sum_above_one_rejected():
    with pytest.raises(ParseError, match="6/5"):
        parse_theory("(A:0.7); (B:0.5) <- C.")


def test_probability_zero_and_above_one_rejected():
    for prob in ("0", "3/2"):
        with pytest.raises(ParseError) as info:
            parse_theory(f"(A:{prob}) <- B.")
        assert (info.value.message, info.value.line, info.value.col) == (
            f"probability {prob} is not in (0, 1]", 1, 4)


def test_probabilities_are_exact_rationals():
    t = parse_theory("(A:0.9) <- B. (C:1/3) <- B. (D:0.25) <- B.")
    assert [law.head[0].prob for law in t.laws] == [
        Fraction(9, 10), Fraction(1, 3), Fraction(1, 4)]


def test_exogenous_atom_in_head_rejected():
    with pytest.raises(ParseError, match="exogenous"):
        parse_theory("exogenous E/0. E <- A.")
    with pytest.raises(ParseError, match="exogenous"):
        parse_theory("exogenous E/0. ~E <- A.")


def test_negative_literal_allowed_in_head_and_body():
    t = parse_theory("~A <- ~B.")
    (law,) = t.laws
    assert law.head[0].literal.negated is True
    assert law.body == Not(Atom("B"))


def test_undeclared_constant_rejected():
    with pytest.raises(ParseError, match="undeclared constant 'gear9'"):
        parse_theory(GEAR_PREAMBLE + "Turns(gear9).")


def test_undeclared_domain_rejected():
    with pytest.raises(ParseError, match="undeclared domain"):
        parse_theory("!x in nowhere: A <- B.")


def test_duplicate_head_atom_rejected():
    with pytest.raises(ParseError, match="two disjuncts"):
        parse_theory("(A:0.3); (A:0.3) <- B.")


def test_arity_mismatch_rejected():
    with pytest.raises(ParseError, match="arity"):
        parse_theory(GEAR_PREAMBLE + "Turns(gear1) <- Turns(gear1, gear2).")


def test_declarations_must_precede_laws():
    with pytest.raises(ParseError, match="precede"):
        parse_theory("A <- B. exogenous E/0.")


def test_reserved_words_rejected():
    with pytest.raises(ParseError, match="reserved"):
        parse_theory("true <- A.")


def test_errors_carry_positions():
    try:
        parse_theory("A <- B.\n(C:0.6); (D:0.6) <- A.")
    except ParseError as exc:
        assert exc.line == 2
        assert exc.col == 1
    else:
        pytest.fail("expected a ParseError")

    try:
        parse_theory("A <- B ,, C.")
    except ParseError as exc:
        assert (exc.line, exc.col) == (1, 9)
    else:
        pytest.fail("expected a ParseError")


def test_comments_and_blank_lines_ignored():
    t = parse_theory("% nothing here\n\n A <- B. % trailing\n")
    assert len(t.laws) == 1


def test_quantifiers_parse_and_bind_tightly():
    src = "domain d = {a, b}.\nP <- Q, !x in d: R(x).\n"
    t = parse_theory(src)
    body = t.laws[0].body
    assert body == And((Atom("Q"), ForAll("x", "d", Atom("R", (Var("x"),)))))

    t2 = parse_theory("domain d = {a}.\nP <- ?x in d: (R(x); S(x)).\n")
    inner = t2.laws[0].body
    assert inner.var == "x" and isinstance(inner.sub, Or)


def test_law_variables_bind_head_and_body():
    t = parse_theory("domain bird = {tweety}.\n!x in bird: Flies(x) <- Bird(x).")
    (law,) = t.laws
    assert law.vars == (("x", "bird"),)
    assert law.head[0].literal.atom.args == (Var("x"),)


@pytest.mark.parametrize("name", sorted(theories.BUNDLED))
def test_round_trip_on_bundled(name):
    t = theories.get(name)
    assert parse_theory(print_theory(t)) == t


def test_negative_head_law_round_trips():
    src = ("domain gear = {gear1}.\ndomain lock = {g1}.\n"
           "exogenous Locked/1.\n~Turns(gear1) <- Locked(g1).")
    t = parse_theory(src)
    assert parse_theory(print_theory(t)) == t


def test_round_trip_preserves_parenthesised_grouping():
    t = parse_theory("A <- (B, C); D.   E <- ~(B; C).")
    assert parse_theory(print_theory(t)) == t


def test_empty_theory_prints_empty():
    assert print_theory(parse_theory("")) == ""
    decls_only = parse_theory("domain d = {a}.")
    assert print_theory(decls_only) == "domain d = {a}.\n"


def test_parse_formula_against_theory():
    t = theories.get("suzy_billy")
    phi = parse_formula("Broken, ~Throws(suzy)", t)
    assert phi == And((Atom("Broken"), Not(Atom("Throws", ("suzy",)))))
    with pytest.raises(ParseError, match="unknown predicate"):
        parse_formula("Nonsense", t)
    with pytest.raises(ParseError) as info:
        parse_formula("Turns(gear1), Foo", theories.get("locked_gears"))
    assert info.value.message == "unknown predicate 'Foo'"
    assert (info.value.line, info.value.col) == (1, 15)


def test_parse_assignment():
    t = theories.get("locked_gears")
    assert parse_assignment("Crank1=true, Locked(g1)=false,", t) == {
        Atom("Crank1"): True, Atom("Locked", ("g1",)): False}
    assert parse_assignment("", t) == {}


@pytest.mark.parametrize("text, message, col", [
    ("Crank1=true,Crank1=false", "Crank1 assigned twice", 13),
    ("Crank1=maybe", "expected true or false, got 'maybe'", 8),
    ("Crank1=", "expected true or false, got end of input", 8),
    ("Crank1=true,Foo=true", "unknown predicate 'Foo'", 13),
    ("Turns(gear1)=false", "Turns(gear1) is not exogenous", 1),
    ("Crank1=true, Turns(gear1)=true", "Turns(gear1) is not exogenous", 14),
    ("~Crank1=true", "write Crank1=true or Crank1=false, not ~Crank1", 1),
    ("Crank1=true Crank2=true", "expected ','", 13),
    (",", "expected predicate", 1),
])
def test_parse_assignment_errors_name_the_token(text, message, col):
    with pytest.raises(ParseError) as info:
        parse_assignment(text, theories.get("locked_gears"))
    assert (info.value.message, info.value.line, info.value.col) == (message, 1, col)


@pytest.mark.parametrize("parse, text, message, line, col", [
    (parse_theory, "domain d = {a}.\ndomain d = {b}.", "domain 'd' declared twice", 2, 8),
    (parse_theory, "exogenous E/x.", "expected arity (a plain integer)", 1, 13),
    (parse_theory, "exogenous E/1, E/1.", "exogenous predicate 'E' declared twice", 1, 16),
    (parse_theory, "domain d = {a}.\n!x in d: !x in d: P(x).",
     "law variable 'x' bound twice", 2, 11),
    (parse_theory, "(A:).", "expected a probability", 1, 4),
    (parse_theory, "(A:1/).", "expected denominator", 1, 6),
    (parse_theory, "(A:0.5/2).", "fraction numerator must be an integer", 1, 4),
    (lambda text: parse_formula(text, parse_theory("Q.")), "Q Q",
     "trailing input after formula", 1, 3),
    (lambda text: parse_literal(text, parse_theory("Q.")), "Q Q",
     "trailing input after literal", 1, 3),
])
def test_parse_errors_name_the_token(parse, text, message, line, col):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.message, info.value.line, info.value.col) == (message, line, col)


@pytest.mark.parametrize("text, col", [
    ("(A:\u00b2).", 4),          # superscript two passes str.isdigit
    ("A <- B\u00e9.", 7),        # e-acute passes str.isalpha
    ("(A:0.\u0663).", 6),        # Arabic-Indic three passes str.isdigit
])
def test_identifiers_and_numbers_are_ascii(text, col):
    with pytest.raises(ParseError) as info:
        parse_theory(text)
    assert info.value.message == f"unexpected character {text[col - 1]!r}"
    assert (info.value.line, info.value.col) == (1, col)


def test_parse_literal():
    t = theories.get("blood_pressure")
    lit = parse_literal("~HighBloodPressure", t)
    assert lit.negated and lit.atom == Atom("HighBloodPressure")


def test_parse_literal_against_theory_is_closed():
    t = theories.get("suzy_billy")
    for text, col in (("Brokn", 1), ("~Brokn", 2)):
        with pytest.raises(ParseError) as info:
            parse_literal(text, t)
        assert (info.value.message, info.value.line, info.value.col) == (
            "unknown predicate 'Brokn'", 1, col)


@pytest.mark.parametrize("text, col", [("!A.", 3), ("domain d = {a}. !x P(x).", 20)])
def test_a_law_opening_with_a_bang_needs_a_binder(text, col):
    # at the start of a law "!" can only open a binder
    with pytest.raises(ParseError) as info:
        parse_theory(text)
    assert (info.value.message, info.value.line, info.value.col) == ("expected 'in'", 1, col)


def test_binder_hint_only_where_a_binder_can_be_written():
    with pytest.raises(ParseError) as info:
        parse_theory("domain d = {a}. A(x).")
    assert info.value.message == ("undeclared constant 'x' "
                                  "(not in any domain; law variables need a '!x in d:' binder)")
    t = theories.get("gears")
    for parse, text in ((parse_formula, "Turns(gear9)"), (parse_literal, "Turns(gear9)"),
                        (parse_assignment, "Turns(gear9)=true")):
        with pytest.raises(ParseError) as info:
            parse(text, t)
        assert (info.value.message, info.value.line, info.value.col) == (
            "undeclared constant 'gear9' (not in any domain)", 1, 7)


# Pieces of every token class, ``<`` and ``-`` apart, whitespace, comments
# and two characters outside the language's alphabet.
_PIECES = ("A", "z", "_", "x1", "7", "0.5", "1.", *"(){}:;,.~!?=/", "<-", "<", "-",
           " ", "\t", "\r", "\n", "% note", "%", "\u00b2", "\u00e9")
_ALPHABET = frozenset(string.ascii_letters + string.digits + "_(){}:;,.~!?=/ \t\r\n")
_GAP = re.compile(r"(?:[ \t\r\n]|%[^\n]*)*")


def _first_outside_alphabet(text: str):
    """Offset of the first character outside comments that no token covers."""
    i = 0
    while i < len(text):
        if text[i] == "%":
            i = text.find("\n", i)
            if i < 0:
                return None
        elif text.startswith("<-", i):
            i += 2
        elif text[i] in _ALPHABET:
            i += 1
        else:
            return i
    return None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))
def test_token_positions(text):
    bad = _first_outside_alphabet(text)
    try:
        toks = _tokenize(text)
    except ParseError as exc:
        assert bad is not None
        before = text[:bad]
        assert exc.message == f"unexpected character {text[bad]!r}"
        assert (exc.line, exc.col) == (before.count("\n") + 1,
                                       len(before.rsplit("\n", 1)[-1]) + 1)
        return
    assert bad is None
    assert toks[-1] == ("eof", "", len(text))
    end = 0
    for tok in toks:
        assert tok.pos >= end
        assert text[tok.pos:tok.pos + len(tok.text)] == tok.text
        assert _GAP.fullmatch(text, end, tok.pos)
        end = tok.pos + len(tok.text)


def test_error_position_after_tab_and_carriage_return():
    with pytest.raises(ParseError) as info:
        parse_theory("A.\n% a comment\n\t\r\u00e9 <- B.")
    assert (info.value.message, info.value.line, info.value.col) == (
        "unexpected character '\u00e9'", 3, 3)


def test_check_theory_rejects_degenerate_connectives():
    bad = Theory({}, {}, (parse_theory("A <- B, C.").laws[0],))
    check_theory(bad)  # sanity: the parsed law is fine
    from cplogic.syntax import CPLaw, EffectLiteral, HeadDisjunct
    singleton = CPLaw((), (HeadDisjunct(EffectLiteral(False, Atom("A")), Fraction(1)),),
                      And((Atom("B"),)))
    with pytest.raises(TheoryError, match="two parts"):
        check_theory(Theory({}, {}, (singleton,)))


def test_check_theory_rejects_unbound_variable():
    from cplogic.syntax import CPLaw, EffectLiteral, HeadDisjunct
    law = CPLaw((), (HeadDisjunct(EffectLiteral(False, Atom("A")), Fraction(1)),),
                Atom("P", (Var("x"),)))
    with pytest.raises(TheoryError, match="unbound variable"):
        check_theory(Theory({}, {}, (law,)))


@pytest.mark.parametrize("domains, message", [
    ({"d": ("in",)}, "'in' is a reserved word"),
    ({"exogenous": ("a",)}, "'exogenous' is a reserved word"),
    ({"d": ("a b",)}, "expected '}'"),
    ({"d": ("a", "a")}, "listed twice"),
])
def test_check_theory_is_the_grammar(domains, message):
    with pytest.raises(TheoryError, match=message):
        check_theory(Theory(domains, {}, ()))


def test_check_theory_rejects_a_value_that_prints_as_another():
    law = parse_theory("A <- B.").laws[0]
    with pytest.raises(TheoryError, match="does not print as itself"):
        check_theory(Theory({"d": ["a"]}, {}, (law,)))  # a list, not a tuple


def test_substitution_renames_only_a_quantifier_that_would_capture():
    # the body does not mention x, so ?c keeps its name
    untouched = Exists("c", "d", Atom("Q", (Var("c"),)))
    assert substitute_formula(untouched, {"x": "c"}) == untouched
    # x is bound again inside, so no c reaches the outer ?c either
    shadowed = Exists("c", "d", Exists("x", "d", Atom("Q", (Var("c"), Var("x")))))
    assert substitute_formula(shadowed, {"x": "c"}) == shadowed
    # c1 is named in the body, so the fresh name is c2
    captured = Exists("c", "d", ForAll("c1", "d", Atom("S", (Var("c"), Var("x"), Var("c1")))))
    assert substitute_formula(captured, {"x": "c"}) == \
        Exists("c2", "d", ForAll("c1", "d", Atom("S", (Var("c2"), "c", Var("c1")))))


def test_fraction_probability_parses():
    t = parse_theory("(A:4/5) <- B.")
    assert t.laws[0].head[0].prob == Fraction(4, 5)


def test_zero_denominator_rejected():
    with pytest.raises(ParseError, match="zero denominator"):
        parse_theory("(A:1/0) <- B.")


def test_truth_constants_in_bodies():
    t = parse_theory("A <- true. B <- false, C.")
    assert t.laws[0].body == TRUE
    assert t.laws[1].body == And((Truth(False), Atom("C")))


def test_nesting_beyond_the_cap_is_a_parse_error():
    # Without the cap both die of RecursionError inside the parser.
    for opener, closer in (("(", ")"), ("~", "")):
        for depth in (MAX_NESTING + 1, 400, 5000):
            text = "A <- " + opener * depth + "B" + closer * depth + "."
            with pytest.raises(ParseError) as info:
                parse_theory(text)
            assert "nested more than" in info.value.message
            assert (info.value.line, info.value.col) == (1, 6 + MAX_NESTING)
    with pytest.raises(ParseError):
        parse_formula("~" * (MAX_NESTING + 1) + "Broken", theories.get("suzy_billy"))


def _deepest_theory() -> str:
    """Bodies at the nesting cap, in every shape the grammar allows."""
    n = MAX_NESTING
    nots = "~" * n + "B"
    mixed = "B"
    for k in range(n // 2):
        mixed = f"~(C, {mixed})" if k % 2 else f"~(C; {mixed})"
    parens = "B"
    for k in range(n):
        parens = f"(C, {parens})" if k % 2 else f"(C; {parens})"
    quants = "?x in d: " * (n - 1) + "(P(x), C)"
    return ("domain d = {k}.\n"
            "(B:1/2).\n(C:1/2) <- ~B.\n~C <- B.\n"
            f"A <- {nots}.\nA <- {mixed}.\nA <- {parens}.\nP(k) <- {quants}.\n")


def test_deepest_accepted_formula_goes_through_the_pipeline():
    from cplogic.engine import UMode, distribution
    from cplogic.ground import ground
    from cplogic.transform import intervene, tau_not
    text = _deepest_theory()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        t = parse_theory(text)
        assert parse_theory(print_theory(t)) == t
        dists = [distribution(ground(t), frozenset(), mode) for mode in UMode]
        compiled, _ = tau_not(t)
        assert parse_theory(print_theory(compiled)) == compiled
        distribution(ground(compiled), frozenset())
        done = intervene(t, parse_literal("~A", t))
        assert parse_theory(print_theory(done)) == done
        distribution(ground(done), frozenset())
    finally:
        sys.setrecursionlimit(limit)
    assert all(total(d) == 1 for d in dists)


def test_a_theory_vocabulary_follows_a_change_to_its_exogenous_declarations():
    t = parse_theory("domain d = {c}. A <- B.")
    with pytest.raises(ParseError, match="unknown predicate 'E'"):
        parse_literal("E(c)", t)
    t.exogenous["E"] = 1
    assert parse_literal("E(c)", t).atom == Atom("E", ("c",))
    del t.exogenous["E"]
    with pytest.raises(ParseError, match="unknown predicate 'E'"):
        parse_literal("E(c)", t)


def test_a_theory_signature_is_walked_once_per_theory(monkeypatch):
    walked = []
    real = syntax.law_atoms
    monkeypatch.setattr(syntax, "law_atoms", lambda law: walked.append(law) or real(law))
    parsed = parse_theory("domain d = {c}.\nexogenous E/1.\nA <- B, E(c).\nP(c) <- ~A.")
    for text in ("A", "P(c)", "E(c)"):
        parse_formula(text, parsed)
        parse_literal(text, parsed)
    assert walked == []  # the parser keeps the signature it built
    built = Theory(parsed.domains, parsed.exogenous, parsed.laws)
    for text in ("A", "P(c)", "E(c)"):
        parse_formula(text, built)
        parse_literal(text, built)
    assert walked == list(built.laws)  # one walk, on first use
    assert endogenous_signature(built) == endogenous_signature(parsed) == {
        "A": 0, "B": 0, "P": 1}
