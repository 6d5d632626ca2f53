import tracemalloc
from fractions import Fraction

import pytest

from cplogic import theories
from cplogic.engine import SoundnessError, UMode, distribution
from cplogic.ground import GroundTheory, ground
from cplogic.oracle import BudgetExceededError, sweep_orders
from cplogic.syntax import (Atom, CPLaw, EffectLiteral, ForAll, HeadDisjunct, Var,
                            law_atoms, parse_theory)

from helpers import (atoms, deterministic_gears, random_deterministic_theory,
                     random_stratified_theory)
from reference_models import OracleError, least_model, well_founded_model

NOTHING = frozenset()


def test_suzy_sweep_single_distribution():
    g = ground(theories.get("suzy_billy"))
    report = sweep_orders(g, NOTHING)
    assert report.invariant
    assert report.distributions[0] == distribution(g, NOTHING)
    assert report.models_explored > 1  # several interleavings collapse


def test_single_law_theory_has_one_model():
    report = sweep_orders(ground(parse_theory("(A:1/2).")), NOTHING)
    assert report.models_explored == 1
    assert report.invariant


def test_locked_gears_literal_mode_diverges():
    g = ground(theories.get("locked_gears"))
    X = atoms("Crank1", "Locked(g1)")
    report = sweep_orders(g, X, UMode.LITERAL)
    assert len(report.distributions) >= 2
    assert distribution(g, X, UMode.LITERAL) in report.distributions
    assert report.witness is not None
    assert report.witness.dist_a != report.witness.dist_b
    assert "law" in report.witness.describe()


def test_locked_gears_extended_mode_invariant():
    g = ground(theories.get("locked_gears"))
    X = atoms("Crank1", "Locked(g1)")
    report = sweep_orders(g, X)
    assert report.invariant
    assert report.distributions[0] == {frozenset(): 1}


def test_sweep_propagates_soundness_errors():
    with pytest.raises(SoundnessError):
        sweep_orders(ground(theories.get("negation_loop")), NOTHING)


def test_sweep_budget_is_enforced():
    g = ground(theories.get("gears"))
    with pytest.raises(BudgetExceededError):
        sweep_orders(g, atoms("Crank1", "Crank2", "Crank3"), max_nodes=5)


# The smallest budget with which each literal-mode sweep finishes, and the
# number of distributions it then reports.
@pytest.mark.parametrize("seed, budget, distinct",
                         [(75, 221, 8), (137, 4_226, 256), (168, 9_182, 64)])
def test_sweep_budget_boundary_is_exact(seed, budget, distinct):
    g = ground(random_stratified_theory(seed, atoms=12, laws=8))
    report = sweep_orders(g, NOTHING, UMode.LITERAL, budget)
    assert len(report.distributions) == distinct
    with pytest.raises(BudgetExceededError):
        sweep_orders(g, NOTHING, UMode.LITERAL, budget - 1)


def test_a_divergent_sweep_stops_at_the_budget_in_little_memory():
    # The widest sweep measured for `oracle.DEFAULT_BUDGET`: about 11 MB
    # peak with packed distributions, 110 MB with one set of pairs each.
    g = ground(random_stratified_theory(47, atoms=14, laws=12))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            sweep_orders(g, NOTHING, UMode.LITERAL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32_000_000


def test_wfm_simple_negation():
    wfm = well_founded_model(ground(parse_theory("A <- ~B.")))
    assert wfm.true_set == atoms("A")
    assert wfm.false_set == atoms("B")


def test_wfm_self_negation_is_unknown():
    wfm = well_founded_model(ground(parse_theory("A <- ~A.")))
    assert wfm.unknown_set == atoms("A")


def test_wfm_positive_program_is_least_model():
    wfm = well_founded_model(ground(parse_theory("A. B <- A.")))
    assert wfm.true_set == atoms("A", "B")
    assert not wfm.unknown_set


def test_wfm_rejects_nondeterministic_and_negative_heads():
    with pytest.raises(OracleError):
        well_founded_model(ground(parse_theory("(A:1/2) <- B.")))
    with pytest.raises(OracleError):
        well_founded_model(ground(parse_theory("~A <- B.")))


def test_least_model_empty_theory():
    assert least_model(ground(parse_theory(""))) == frozenset()


def test_least_model_two_step_closure():
    assert least_model(ground(parse_theory("A. B <- A."))) == atoms("A", "B")


def test_least_model_gears_all_turn():
    g = ground(deterministic_gears())
    model = least_model(g, atoms("Crank1"))
    assert model == atoms("Turns(gear1)", "Turns(gear2)", "Turns(gear3)")


def test_least_model_rejects_negation():
    with pytest.raises(OracleError):
        least_model(ground(parse_theory("A <- ~B.")))


@pytest.mark.parametrize("text", ["A <- B, ~C.", "A <- (B ; ~C)."])
def test_least_model_rejects_negation_inside_connectives(text):
    with pytest.raises(OracleError, match="without negated atoms"):
        least_model(ground(parse_theory(text)))


def test_ungrounded_bodies_are_rejected_alike():
    # a code-built theory whose body still has a quantifier: every oracle
    # and the engine stop at the one walk that reads formulas
    body = ForAll("x", "d", Atom("Q", (Var("x"),)))
    head = (HeadDisjunct(EffectLiteral(False, Atom("A")), Fraction(1)),)
    g = GroundTheory((CPLaw((), head, body),), atoms("A"), frozenset(), {"d": ("a",)})
    for run in (least_model, well_founded_model, distribution, sweep_orders):
        with pytest.raises(ValueError, match="quantifier in a formula; ground it first"):
            run(g, NOTHING)


def test_least_model_accepts_double_negation():
    assert least_model(ground(parse_theory("B. A <- ~~B."))) == atoms("A", "B")


def test_engine_leaf_matches_least_model():
    g = ground(deterministic_gears())
    X = atoms("Crank1")
    (leaf,) = distribution(g, X)
    assert leaf == least_model(g, X)


@pytest.mark.parametrize("seed", range(30))
def test_random_stratified_sweeps_are_invariant(seed):
    t = random_stratified_theory(seed, atoms=5, laws=5)
    g = ground(t)
    report = sweep_orders(g, NOTHING)
    assert report.invariant
    assert report.distributions[0] == distribution(g, NOTHING)


@pytest.mark.parametrize("seed", range(60))
def test_random_deterministic_wfm_embedding(seed):
    t = random_deterministic_theory(seed)
    g = ground(t)
    wfm = well_founded_model(g)
    try:
        d = distribution(g, NOTHING)
    except SoundnessError:
        assert wfm.unknown_set, f"seed {seed}: stuck but WFM two-valued"
    else:
        assert not wfm.unknown_set, f"seed {seed}: ran but WFM three-valued"
        (leaf,) = d
        assert leaf == wfm.true_set


def test_generators_are_seed_deterministic():
    assert random_deterministic_theory(11) == random_deterministic_theory(11)
    assert random_stratified_theory(11) == random_stratified_theory(11)
    assert random_stratified_theory(11) != random_stratified_theory(12)


@pytest.mark.parametrize("make", [random_stratified_theory,
                                  random_deterministic_theory])
def test_generators_honour_the_atom_count(make):
    names = set()
    for seed in range(20):
        t = make(seed, atoms=12, laws=12)
        names.update(a.predicate for law in t.laws for a in law_atoms(law))
    assert len(names) == 12
    with pytest.raises(ValueError):
        make(0, atoms=27)
