import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cplogic import theories
from cplogic.engine import distribution
from cplogic.ground import check_theory, ground, stratification_report
from cplogic.syntax import (Atom, CPLaw, EffectLiteral, TheoryError, Var,
                            endogenous_signature, parse_literal, parse_theory,
                            print_law, print_theory)
from cplogic.transform import (NameClashError, SharedHeadError, TransformError,
                               intervene, internalize, negative_head_predicates,
                               tau_not)

from helpers import (atom, atoms, drawn_exogenous, quantified_theories,
                     random_stratified_theory, replace)

BP = theories.get("blood_pressure")


def test_negative_intervention_removes_all_mechanisms():
    out = intervene(BP, parse_literal("~HighBloodPressure", BP))
    assert len(out.laws) == 1
    assert out.laws[0].head[0].literal.atom == atom("Fatigue")
    assert out.exogenous == BP.exogenous


def test_intervention_on_unmentioned_atom_is_identity():
    t = parse_theory("A <- B.")
    assert intervene(t, EffectLiteral(True, Atom("C"))) == t


def test_positive_intervention_substitutes_a_fact():
    t = theories.get("repeat_class")
    out = intervene(t, parse_literal("Fail", t))
    kept = [law for law in out.laws if law.head[0].literal.atom == atom("Repeat")]
    facts = [law for law in out.laws if law.head[0].literal.atom == atom("Fail")]
    assert len(kept) == 1 and len(facts) == 1
    assert facts[0].is_deterministic()
    g = ground(out)
    assert distribution(g, atoms("Required")) == {atoms("Fail", "Repeat"): 1}
    assert distribution(g, atoms("Smart", "Required")) == {atoms("Fail", "Repeat"): 1}


def test_shared_multi_outcome_head_is_refused():
    t = theories.get("superhero")
    with pytest.raises(SharedHeadError):
        intervene(t, parse_literal("~Wound(s)", t))


def test_intervention_is_instance_exact():
    t = theories.get("penguins")
    out = intervene(t, parse_literal("~Flies(tweety)", t))
    heads = sorted(str(law.head[0].literal) for law in out.laws)
    assert heads == ["Flies(pingu)", "~Flies(pingu)"]
    g = ground(out)
    X = atoms("Bird(tweety)", "Bird(pingu)")
    assert distribution(g, X) == {atoms("Flies(pingu)"): 1}


@pytest.mark.parametrize("law, target, kept", [
    # a repeated variable matches only equal constants
    ("!x in d: P(x, x) <- Q(x).", "P(a, b)", None),
    ("!x in d: P(x, x) <- Q(x).", "P(a, a)", ["P(b,b) <- Q(b)."]),
    ("!x in d: P(x, b) <- Q(x).", "P(a, a)", None),
    # e = {b}: no instance of the binder has the target's constant
    ("!x in e: P(x, a) <- Q(x).", "P(a, a)", None),
    ("P(a, a) <- Q(b).", "P(a, a)", []),
    ("!x in d: (P(x, x):1/2); (Q(x):1/2).", "P(a, a)", SharedHeadError),
])
def test_intervention_matches_head_instances_exactly(law, target, kept):
    t = parse_theory("domain d = {a, b}.\ndomain e = {b}.\n"
                     f"P(b, a) <- Q(a).\n{law}\n")
    lit = parse_literal(f"~{target}", t)
    if kept is SharedHeadError:
        with pytest.raises(SharedHeadError):
            intervene(t, lit)
        return
    out = intervene(t, lit)
    assert out.laws[0] == t.laws[0]
    if kept is None:
        assert out == t
    else:
        assert [print_law(law) for law in out.laws[1:]] == kept


def test_intervention_substitutes_through_connectives_and_quantifiers():
    # the inner !x rebinds the law variable, so its body keeps x
    t = parse_theory("domain d = {a, b}.\nexogenous E/1.\n"
                     "!x in d: P(x) <- (E(x) ; ?y in d: Q(x, y)), "
                     "!x in d: ~R(x).\n")
    out = intervene(t, parse_literal("~P(a)", t))
    assert print_theory(out).splitlines()[-1] == \
        "P(b) <- (E(b); ?y in d: Q(b,y)), !x in d: ~R(x)."
    assert distribution(ground(out), atoms("E(b)")) == {atoms("P(b)"): 1}


CAPTURE = "domain d = {a, b}.\n!y in d: P(y) <- ?b in d: Q(b, y).\n!y in d: Q(y, y).\n"


def test_intervention_renames_a_quantifier_that_would_capture_a_constant():
    # P(b)'s instance puts the constant b under ?b, which would read back as
    # the quantified variable twice, so the quantifier becomes ?b1
    t = parse_theory(CAPTURE)
    out = intervene(t, parse_literal("~P(a)", t))
    assert print_law(out.laws[0]) == "P(b) <- ?b1 in d: Q(b1,b)."
    renamed = parse_theory(CAPTURE.replace("?b in d: Q(b, y)", "?z in d: Q(z, y)"))
    by_hand = intervene(renamed, parse_literal("~P(a)", renamed))
    assert print_law(by_hand.laws[0]) == "P(b) <- ?z in d: Q(z,b)."
    assert distribution(ground(out), frozenset()) == \
        distribution(ground(by_hand), frozenset())


def test_intervention_checks_the_laws_it_keeps_and_the_fact_it_adds():
    t = parse_theory("domain d = {a, b}.\n!y in d: P(y) <- Q(y).\nQ(a).\n")
    wrong_arity = replace(t, laws=(t.laws[0], CPLaw((), t.laws[1].head, Atom("Q"))))
    with pytest.raises(TheoryError, match="arity"):
        intervene(wrong_arity, parse_literal("~P(a)", t))
    with pytest.raises(TheoryError, match="arity"):
        intervene(t, EffectLiteral(False, Atom("P", ("a", "b"))))


def test_negative_intervention_idempotent():
    lit = parse_literal("~HighBloodPressure", BP)
    once = intervene(BP, lit)
    assert intervene(once, lit) == once


def test_intervene_rejects_exogenous_and_nonground():
    with pytest.raises(TransformError):
        intervene(BP, parse_literal("~Genetics", BP))
    with pytest.raises(TransformError, match=r"intervention atom P\(x\) is not ground"):
        intervene(BP, EffectLiteral(True, Atom("P", (Var("x"),))))


def test_internalize_rejects_exogenous_and_nonground():
    with pytest.raises(TransformError, match=r"atom P\(x\) is not ground"):
        internalize(BP, Atom("P", (Var("x"),)), "Trigger")
    with pytest.raises(TransformError, match="Genetics is exogenous"):
        internalize(BP, atom("Genetics"), "Trigger")


def test_internalize_adds_guarded_negative_law():
    out = internalize(BP, atom("HighBloodPressure"), "BPMedicine")
    assert out.exogenous["BPMedicine"] == 0
    added = out.laws[-1]
    assert added.head[0].literal == EffectLiteral(True, atom("HighBloodPressure"))
    assert added.body == atom("BPMedicine")
    assert out.laws[:-1] == BP.laws


def test_internalize_rejects_name_clash():
    with pytest.raises(NameClashError):
        internalize(BP, atom("HighBloodPressure"), "Genetics")
    with pytest.raises(NameClashError):
        internalize(BP, atom("HighBloodPressure"), "Fatigue")


@pytest.mark.parametrize("trigger", ["in", "Go now"])
def test_internalize_rejects_a_trigger_the_grammar_rejects(trigger):
    # Such a theory would print as text that does not parse.
    with pytest.raises(TheoryError):
        internalize(theories.get("suzy_billy"), Atom("Broken"), trigger)


def test_internalize_off_equals_original():
    out = internalize(BP, atom("HighBloodPressure"), "BPMedicine")
    g0, g1 = ground(BP), ground(out)
    for X in theories.BUNDLED["blood_pressure"].exo_cases:
        assert distribution(g0, X) == distribution(g1, X)


def test_internalize_on_equals_intervention():
    out = internalize(BP, atom("HighBloodPressure"), "BPMedicine")
    done = intervene(BP, parse_literal("~HighBloodPressure", BP))
    g1, g2 = ground(out), ground(done)
    for X in theories.BUNDLED["blood_pressure"].exo_cases:
        assert distribution(g1, X | atoms("BPMedicine")) == distribution(g2, X)


def test_tau_not_three_step_shape():
    t = parse_theory("~A <- B. A <- C.")
    out, taumap = tau_not(t)
    assert taumap == {"A": ("c_pos__A", "c_neg__A")}
    printed = print_theory(out)
    assert "c_neg__A <- B." in printed
    assert "c_pos__A <- C." in printed
    assert "A <- c_pos__A, ~c_neg__A." in printed
    assert negative_head_predicates(out) == frozenset()


def test_tau_not_identity_without_negative_heads():
    t = theories.get("suzy_billy")
    out, taumap = tau_not(t)
    assert out is t
    assert taumap == {}


@pytest.mark.parametrize("name", ["locked_gears", "superhero", "penguins",
                                  "probabilistic_birds"])
def test_tau_not_output_is_negation_head_free(name):
    out, _ = tau_not(theories.get(name))
    assert negative_head_predicates(out) == frozenset()


@pytest.mark.parametrize("name", ["locked_gears", "superhero", "penguins",
                                  "probabilistic_birds"])
def test_tau_not_preserves_distribution(name):
    b = theories.BUNDLED[name]
    t = b.theory()
    out, _ = tau_not(t)
    vocab = set(endogenous_signature(t))
    g0, g1 = ground(t), ground(out)
    for X in b.exo_cases:
        assert distribution(g1, X).project(vocab) == distribution(g0, X)


def test_tau_not_bridge_uses_variables():
    out, _ = tau_not(theories.get("penguins"))
    bridge = out.laws[-1]
    assert bridge.vars and bridge.vars[0][1] == "c_dom__all"
    assert set(out.domains["c_dom__all"]) == {"tweety", "pingu"}


def test_tau_not_fresh_name_collision_detected():
    t = parse_theory("~A <- B. c_pos__A <- B.")
    with pytest.raises(NameClashError):
        tau_not(t)


def test_tau_not_universe_domain_collision_detected():
    t = parse_theory("domain c_dom__all = {a}.\n!x in c_dom__all: ~P(x) <- Q.")
    with pytest.raises(NameClashError, match="domain 'c_dom__all' already declared"):
        tau_not(t)


def test_tau_not_output_round_trips_through_printer():
    out, _ = tau_not(theories.get("locked_gears"))
    assert parse_theory(print_theory(out)) == out


@pytest.mark.parametrize("seed", range(40))
def test_tau_not_equivalence_on_random_theories(seed):
    # seeds without negative heads exercise the identity case
    t = random_stratified_theory(seed, atoms=5, laws=5)
    compiled, _ = tau_not(t)
    vocab = set(endogenous_signature(t))
    d = distribution(ground(t), frozenset())
    assert distribution(ground(compiled), frozenset()).project(vocab) == d


def _theory_with_intervenable_atom(seed):
    """A random theory and an atom that some law causes and that no
    multi-outcome head mentions, so `intervene` can remove it.  Seeds
    ``seed``, ``seed + 1000``, ... are tried until a theory has one."""
    import random as _random
    for derived in range(seed, seed + 100_000, 1000):
        t = random_stratified_theory(derived, atoms=5, laws=5)
        caused = {d.literal.atom for law in t.laws for d in law.head}
        shared = {d.literal.atom for law in t.laws if len(law.head) > 1
                  for d in law.head}
        if caused - shared:
            return t, _random.Random(seed).choice(sorted(caused - shared, key=str))
    raise AssertionError(f"no intervenable atom from seed {seed}")


@pytest.mark.parametrize("seed", range(40))
def test_internalize_equivalence_on_random_theories(seed):
    t, target = _theory_with_intervenable_atom(seed)
    removed = intervene(t, EffectLiteral(True, target))
    guarded = internalize(t, target, "Zz_trigger")
    on = frozenset({Atom("Zz_trigger")})
    assert distribution(ground(guarded), on) == distribution(ground(removed), frozenset())
    assert distribution(ground(guarded), frozenset()) == distribution(ground(t), frozenset())


@st.composite
def _interventions(draw):
    """A stratified quantified theory whose quantified variables may be
    named like constants, an atom that some law causes and no
    multi-outcome head mentions, and an X of mentioned exogenous atoms."""
    t = draw(quantified_theories(max_laws=3, shadow=True))
    g = ground(t)
    assume(stratification_report(g).stratified)
    caused = {d.literal.atom for law in g.laws for d in law.head}
    shared = {d.literal.atom for law in g.laws if len(law.head) > 1 for d in law.head}
    assume(caused - shared)
    target = draw(st.sampled_from(sorted(caused - shared, key=str)))
    X = drawn_exogenous(draw, g)
    return t, target, X


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example((parse_theory(CAPTURE), atom("P(a)"), frozenset()))
@given(_interventions())
def test_internalize_matches_intervene_on_quantified_theories(case):
    t, target, X = case
    guarded = internalize(t, target, "T")
    removed = intervene(t, EffectLiteral(True, target))
    check_theory(removed)  # no constant captured: it prints as itself
    assert distribution(ground(guarded), X | {Atom("T")}) == \
        distribution(ground(removed), X)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(quantified_theories(max_laws=3), st.data())
def test_tau_not_preserves_the_projected_distribution_of_quantified_theories(t, data):
    g = ground(t)
    assume(stratification_report(g).stratified)
    X = drawn_exogenous(data.draw, g)
    compiled, _ = tau_not(t)
    vocab = set(endogenous_signature(t))
    assert distribution(ground(compiled), X).project(vocab) == \
        distribution(g, X).project(vocab)
