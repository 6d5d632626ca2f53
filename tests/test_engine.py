import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cplogic import cli, engine, theories
from cplogic.engine import (Distribution, ExecState, ExogenousError,
                            SoundnessError, UMode, applicable, apply_disjunct,
                            build_execution_model, compute_U, distribution,
                            query, satisfied_unfired)
from cplogic.ground import ground, stratification_report
from cplogic.oracle import BudgetExceededError, sweep_orders
from cplogic.syntax import Atom, parse_formula, parse_theory
from cplogic.threeval import UnboundAtomError

import reference_tree
from helpers import (approximates, atom, atoms, leaf_paths,
                     drawn_exogenous, quantified_theories,
                     random_deterministic_theory, random_stratified_theory,
                     total)
from reference_models import well_founded_model

SUZY = theories.get("suzy_billy")
SUZY_G = ground(SUZY)
NOTHING = frozenset()


def state(true=(), negated=(), fired=()):
    return ExecState(frozenset(true), frozenset(negated), frozenset(fired))


# ---------------------------------------------------------------------------
# compute_U
# ---------------------------------------------------------------------------

def test_u_at_root():
    u = compute_U(SUZY_G, NOTHING, state())
    assert u.true_set == frozenset()
    assert u.unknown_set == atoms("Throws(suzy)", "Throws(billy)", "Broken")


def test_u_after_suzy_declines():
    u = compute_U(SUZY_G, NOTHING, state(fired=[0]))
    assert u.true_set == frozenset()
    assert u.unknown_set == atoms("Throws(billy)", "Broken")
    assert u.false_set == atoms("Throws(suzy)")


def test_u_after_billy_throws():
    u = compute_U(SUZY_G, NOTHING, state(true=atoms("Throws(billy)"), fired=[0, 1]))
    assert u.true_set == atoms("Throws(billy)")
    assert u.unknown_set == atoms("Broken")


def test_u_at_rightmost_leaf():
    u = compute_U(SUZY_G, NOTHING,
                  state(true=atoms("Throws(billy)"), fired=[0, 1, 3]))
    assert u.true_set == atoms("Throws(billy)")
    assert u.unknown_set == frozenset()
    assert u.false_set == atoms("Throws(suzy)", "Broken")


def test_u_pins_retracted_atoms_false():
    g = ground(theories.get("locked_gears"))
    X = atoms("Crank1", "Locked(g1)")
    st = state(negated=atoms("Turns(gear1)"), fired=[7])
    for mode in UMode:
        u = compute_U(g, X, st, mode)
        assert atom("Turns(gear1)") in u.false_set


def test_u_extended_downgrades_threatened_atoms():
    g = ground(theories.get("locked_gears"))
    X = atoms("Crank1", "Locked(g1)")
    st = state(true=atoms("Turns(gear1)"), fired=[0])
    assert atom("Turns(gear1)") in compute_U(g, X, st, UMode.EXTENDED).unknown_set
    assert atom("Turns(gear1)") in compute_U(g, X, st, UMode.LITERAL).true_set


# ---------------------------------------------------------------------------
# applicable / apply_disjunct
# ---------------------------------------------------------------------------

def test_vacuous_laws_applicable_at_root():
    u = compute_U(SUZY_G, NOTHING, state())
    assert applicable(SUZY_G, NOTHING, state(), u) == (0, 1)


def test_body_negation_waits_for_certainty():
    # extra readers of ~Broken and ~Throws(suzy) added to the bottle story
    t = parse_theory(theories.BUNDLED["suzy_billy"].source
                     + "C <- ~Broken.\nD <- ~Throws(suzy).\n")
    g = ground(t)
    st = state(fired=[0])  # Suzy's event happened without a throw
    u = compute_U(g, NOTHING, st)
    app = applicable(g, NOTHING, st, u)
    assert 5 in app   # ~Throws(suzy) is settled
    assert 4 not in app  # ~Broken is still undecided


def test_applicable_gates_on_the_u_it_is_given():
    # U at a second state replaces the one the program keeps from the last
    # compute_U; asking about the first state must still gate on its own U
    t = parse_theory(theories.BUNDLED["suzy_billy"].source + "C <- ~Broken.\n")
    g = ground(t)
    st1 = state(fired=[0])  # Billy may still break the bottle
    st2 = state(true=atoms("Throws(billy)"), fired=[0, 1, 3])  # he missed
    u1 = compute_U(g, NOTHING, st1)
    assert applicable(g, NOTHING, st1, u1) == (1,)  # ~Broken is undecided
    u2 = compute_U(g, NOTHING, st2)
    assert applicable(g, NOTHING, st2, u2) == (4,)  # ~Broken is settled
    assert applicable(g, NOTHING, st1, u1) == (1,)


def test_apply_disjunct_negative_retracts_and_pins():
    law = parse_theory("~A <- B.").laws[0]
    st = apply_disjunct(state(true=atoms("A")), 0, law.head[0].literal)
    assert st.true_atoms == frozenset()
    assert st.negated == atoms("A")
    assert st.fired == {0}


def test_apply_disjunct_positive_respects_pin():
    law = parse_theory("A <- B.").laws[0]
    st = apply_disjunct(state(negated=atoms("A")), 3, law.head[0].literal)
    assert st.true_atoms == frozenset()
    assert st.negated == atoms("A")
    assert st.fired == {3}


def test_apply_disjunct_noop_only_marks_fired():
    st0 = state(true=atoms("B"))
    st = apply_disjunct(st0, 2, None)
    assert (st.true_atoms, st.negated) == (st0.true_atoms, st0.negated)
    assert st.fired == {2}


# ---------------------------------------------------------------------------
# build_execution_model / distribution
# ---------------------------------------------------------------------------

def test_suzy_tree_has_four_leaf_worlds():
    root = build_execution_model(SUZY_G, NOTHING)
    leaves = {node.state.true_atoms for node in root.walk() if node.is_leaf}
    assert len(leaves) == 4


def test_negation_loop_is_stuck_at_root():
    g = ground(theories.get("negation_loop"))
    with pytest.raises(SoundnessError) as info:
        build_execution_model(g, NOTHING)
    assert info.value.state == ExecState.initial()
    assert info.value.blocked == (0, 1)


# The A outcome comes first in preorder and gets stuck two laws down, at
# P <- ~P; the no-op outcome gets stuck one law down, at Q <- ~Q.
TWO_STUCK = "(A:1/2). B <- A. P <- A, B, ~P. Q <- ~A, ~Q."


def test_the_first_stuck_node_in_preorder_is_named():
    g = ground(parse_theory(TWO_STUCK))
    deep, shallow = state(atoms("A", "B"), (), (0, 1)), state((), (), (0,))
    for s, law in ((deep, 2), (shallow, 3)):
        assert satisfied_unfired(g, NOTHING, s) == (law,)
        assert applicable(g, NOTHING, s, compute_U(g, NOTHING, s)) == ()
    for mode in UMode:
        with pytest.raises(reference_tree.Stuck) as ref:
            reference_tree.leaves(g, NOTHING, mode is UMode.EXTENDED)
        assert ref.value.state == (deep.true_atoms, deep.negated, deep.fired)
        for run in (distribution, build_execution_model):
            with pytest.raises(SoundnessError) as info:
                run(g, NOTHING, mode)
            assert info.value.state == deep
            assert info.value.blocked == (2,)


def test_the_tree_builds_u_once_per_node(monkeypatch):
    g = ground(theories.get("locked_gears"))
    X = atoms("Crank1", "Crank2", "Locked(g1)")
    # every U, the fold's gate's and the tree's own, is built here
    calls = []
    real = engine._Program.overestimate

    def counted(prog, t, pinned, fired, mode):
        calls.append(prog.state(t, pinned, fired))
        return real(prog, t, pinned, fired, mode)

    monkeypatch.setattr(engine._Program, "overestimate", counted)
    made = {}
    for mode in UMode:
        calls.clear()
        root = build_execution_model(g, X, mode)
        nodes = {node.state for node in root.walk()}
        assert sorted(map(ExecState.describe, calls)) \
            == sorted(map(ExecState.describe, nodes))
        made[mode] = len(calls)
    assert made == {UMode.LITERAL: 10, UMode.EXTENDED: 9}


def test_positive_program_single_branch():
    g = ground(parse_theory("A. B <- A."))
    root = build_execution_model(g, NOTHING)
    assert all(len(node.children) in (0, 1) for node in root.walk())
    (leaf,) = [n for n in root.walk() if n.is_leaf]
    assert leaf.state.true_atoms == atoms("A", "B")


SUZY_EXPECTED = Distribution({
    atoms("Throws(suzy)", "Throws(billy)", "Broken"): Fraction(23, 50),
    atoms("Throws(suzy)", "Throws(billy)"): Fraction(1, 25),
    atoms("Throws(billy)", "Broken"): Fraction(3, 10),
    atoms("Throws(billy)"): Fraction(1, 5),
})


def test_suzy_distribution_exact():
    assert distribution(SUZY_G, NOTHING) == SUZY_EXPECTED


def test_empty_theory_distribution():
    assert distribution(ground(parse_theory("")), NOTHING) == {frozenset(): 1}


def test_gear_chain_probability():
    g = ground(theories.get("gears"))
    p = query(g, atoms("Crank1"), parse_formula("Turns(gear3)", theories.get("gears")))
    assert p == Fraction(81, 100)


def test_distribution_total_is_one_exactly():
    for name in ("suzy_billy", "gears", "superhero", "locked_gears"):
        b = theories.BUNDLED[name]
        g = ground(b.theory())
        for X in b.exo_cases:
            assert total(distribution(g, X)) == 1


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

def test_query_broken():
    assert query(SUZY_G, NOTHING, parse_formula("Broken", SUZY)) == Fraction(19, 25)


def test_query_true_is_total_mass():
    assert query(SUZY_G, NOTHING, parse_formula("true", SUZY)) == 1


def test_query_superhero():
    t = theories.get("superhero")
    g = ground(t)
    X = atoms("Shoot(s)", "Superhero(s)")
    assert query(g, X, parse_formula("Wound(s)", t)) == 0
    assert query(g, X, parse_formula("HoleInWall", t)) == Fraction(3, 10)


def test_query_can_read_exogenous_atoms():
    g = ground(theories.get("gears"))
    t = theories.get("gears")
    assert query(g, atoms("Crank1"), parse_formula("Crank1", t)) == 1
    assert query(g, atoms("Crank1"), parse_formula("Crank2", t)) == 0


def test_query_unknown_atom_raises():
    # the parser rejects an unknown predicate; a formula built in code reaches
    # the engine's own check
    with pytest.raises(UnboundAtomError):
        query(SUZY_G, NOTHING, Atom("Zilch"))


def test_query_ranges_over_the_theory_vocabulary():
    # the parser accepts P(b), which no ground law mentions: it is false
    t = parse_theory("domain d = {a, b}. P(a).")
    g = ground(t)
    assert query(g, NOTHING, parse_formula("P(b)", t)) == 0
    assert query(g, NOTHING, parse_formula("?x in d: P(x)", t)) == 1
    for phi in (Atom("Zilch"), Atom("P"), Atom("P", ("a", "a")), Atom("P", ("c",))):
        with pytest.raises(UnboundAtomError) as info:
            query(g, NOTHING, phi)
        assert str(info.value) == f"unknown atom {phi}"


def test_exogenous_mismatch_rejected():
    with pytest.raises(ExogenousError):
        distribution(SUZY_G, atoms("Broken"))
    # every entry point that compiles for X checks it, also for a value
    # that is not an atom at all
    for X in (atoms("Broken"), frozenset({"Broken"})):
        with pytest.raises(ExogenousError, match="not in the exogenous universe: Broken"):
            compute_U(ground(SUZY), X, state())


def test_atoms_outside_the_theory_rejected():
    # a state, or another theory's U, naming an atom that is not endogenous
    # here is an unbound atom, not a bare KeyError
    unbound = "atom Nope not in the endogenous universe"
    for call, stray in ((compute_U, state(true=atoms("Nope"))),
                        (compute_U, state(negated=atoms("Nope"))),
                        (satisfied_unfired, state(true=atoms("Nope")))):
        with pytest.raises(UnboundAtomError, match=unbound):
            call(SUZY_G, NOTHING, stray)
    other = compute_U(ground(parse_theory("Nope.")), NOTHING, state())
    with pytest.raises(UnboundAtomError, match=unbound):
        applicable(SUZY_G, NOTHING, state(), other)


# ---------------------------------------------------------------------------
# Long firing paths
# ---------------------------------------------------------------------------

def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_firing_path_longer_than_recursion_limit(tmp_path, capsys):
    # n unconditional facts fire one after another: every execution is a
    # path of n steps, well past the lowered recursion limit.
    n = 300
    text = " ".join(f"A{i}." for i in range(n))
    path = tmp_path / "facts.cpl"
    path.write_text(text, encoding="utf-8")
    g = ground(parse_theory(text))
    every = frozenset(atom(f"A{i}") for i in range(n))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        dist = distribution(g, NOTHING)
        root = build_execution_model(g, NOTHING)
        nodes = sum(1 for _ in root.walk())
        ((edges, leaf),) = leaf_paths(root)
        # Every firing order is its own model, so the sweep stops on its
        # budget, but only after its first path has reached a leaf.
        with pytest.raises(BudgetExceededError):
            sweep_orders(g, NOTHING, max_nodes=2 * n)
        code = cli.main(["query", str(path), "-q", "A0"])
    finally:
        sys.setrecursionlimit(limit)
    assert dist == {every: 1}
    assert nodes == n + 1
    assert len(edges) == n and leaf.state.true_atoms == every
    assert code == 0
    assert capsys.readouterr().out == "1 (= 1.000000)\n"


# ---------------------------------------------------------------------------
# Engine invariants
# ---------------------------------------------------------------------------

def _tree_nodes(name, X, mode=UMode.EXTENDED):
    g = ground(theories.get(name))
    return g, build_execution_model(g, X, mode)


def test_u_approximates_every_descendant():
    root = build_execution_model(SUZY_G, NOTHING)

    def walk(node):
        for descendant in node.walk():
            assert approximates(node.u, descendant.state.true_atoms)
        for edge in node.children:
            walk(edge.child)

    walk(root)


def test_overestimate_false_is_final():
    # no negative heads: an atom at f under U(s) never shows up in a leaf below s
    for name in ("suzy_billy", "gears", "blood_pressure", "repeat_class"):
        b = theories.BUNDLED[name]
        for X in b.exo_cases:
            g, root = _tree_nodes(name, X)
            def walk(node):
                for leaf_edges, leaf in leaf_paths(node):
                    assert not (node.u.false_set & leaf.state.true_atoms)
                for edge in node.children:
                    walk(edge.child)
            walk(root)


def test_final_state_law_extended_mode():
    # a leaf atom is true iff a positive outcome fired and no negative one did
    for name in ("locked_gears", "superhero", "penguins", "probabilistic_birds"):
        b = theories.BUNDLED[name]
        for X in b.exo_cases:
            g, root = _tree_nodes(name, X)
            for edges, leaf in leaf_paths(root):
                fired = [e.outcome for e in edges if e.outcome is not None]
                caused = {o.atom for o in fired if not o.negated}
                blocked = {o.atom for o in fired if o.negated}
                assert leaf.state.true_atoms == frozenset(caused - blocked)


def test_deterministic_with_negation_matches_wfm():
    sources = [
        "A <- ~B. B <- C.",
        "A <- ~B. C <- A.",
        "A. B <- ~A. C <- ~B.",
        theories.BUNDLED["repeat_class"].source,
    ]
    for src in sources:
        t = parse_theory(src)
        g = ground(t)
        for X in ({a for a in g.exogenous_atoms}, frozenset()):
            wfm = well_founded_model(g, frozenset(X))
            assert not wfm.unknown_set
            d = distribution(g, frozenset(X))
            (leaf,) = d
            assert leaf == wfm.true_set


def test_state_invariant_disjoint():
    with pytest.raises(ValueError):
        ExecState(atoms("A"), atoms("A"), frozenset())


def test_u_only_moves_values_toward_unknown():
    # relative to the start point (t on I, f elsewhere), the fixpoint may
    # only blur values to u, never flip them outright
    for name in ("suzy_billy", "locked_gears", "superhero"):
        b = theories.BUNDLED[name]
        g = ground(b.theory())
        for X in b.exo_cases:
            for node in build_execution_model(g, X).walk():
                live = node.state.true_atoms
                assert node.u.true_set <= live
                assert not (node.u.false_set & live)
                assert node.state.negated <= node.u.false_set


def test_u_literal_mode_keeps_current_atoms_true():
    g = ground(theories.get("locked_gears"))
    X = atoms("Crank1", "Locked(g1)")
    for node in build_execution_model(g, X, UMode.LITERAL).walk():
        assert node.state.true_atoms <= node.u.true_set
        assert node.state.negated <= node.u.false_set


@pytest.mark.parametrize("seed", range(40))
def test_modes_agree_without_negative_heads(seed):
    t = random_stratified_theory(seed, atoms=5, laws=5, negative_heads=False)
    g = ground(t)
    assert distribution(g, frozenset(), UMode.LITERAL) \
        == distribution(g, frozenset(), UMode.EXTENDED)


def test_a_theory_reported_stratified_never_gets_stuck():
    # What slicing a query rests on: the report on the theory and the check
    # on the program compiled for X (`engine._slice`) are sufficient
    # conditions only, and each must be sufficient in both modes.  The draws
    # include negation cycles, and each check must reject some of them.
    verdicts = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.integers(0, 10 ** 6).map(random_stratified_theory),
                     st.integers(0, 10 ** 6).map(random_deterministic_theory),
                     quantified_theories(max_laws=3)), st.data())
    def never_stuck(t, data):
        g = ground(t)
        X = drawn_exogenous(data.draw, g)
        reported = stratification_report(g).stratified
        # a query on no atoms keeps no law, so the check runs on every live
        # law; None means there is none, and so no cycle
        checked = engine._slice(engine._Program(g, X), ())[1] is not False
        assert checked or not reported  # the live program is a subgraph
        verdicts.add(checked)
        if checked:
            for mode in UMode:
                distribution(g, X, mode)

    never_stuck()
    assert verdicts == {True, False}
