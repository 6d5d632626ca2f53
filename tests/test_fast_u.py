"""The compiled worklist `compute_U` against the rescanning `reference_U`,
and the walkers' rule for skipping it.

Every state that `build_execution_model` reaches gets its U, in both modes,
and every U that a walker builds, through `distribution` and through
`sweep_orders`, must be exactly the overestimate that
`reference_engine.reference_U` computes by the definition.  A walker skips
U at a state whose satisfied laws are all sure; at every such state, the
reference gate must find those laws applicable, and the sweep must both
build and skip U somewhere in its corpus.  On a stratified theory the
sweep must also find one distribution in extended mode, the one that
`distribution` gives.
"""

import gc
from fractions import Fraction
from types import CellType, FunctionType

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cplogic import engine, oracle, theories
from cplogic.engine import (SoundnessError, UMode, applicable,
                            build_execution_model, compute_U, distribution,
                            query, satisfied_unfired)
from cplogic.ground import ground, stratification_report
from cplogic.oracle import BudgetExceededError, sweep_orders
from cplogic.syntax import FALSE, TRUE, And, Atom, Not, Or, parse_theory
from cplogic.threeval import ThreeValuedInterp, holds, kleene_eval

from helpers import (atom, atoms, drawn_exogenous, quantified_theories,
                     random_deterministic_theory, random_stratified_theory)
from reference_engine import reference_U
from reference_tree import T, value

NOTHING = frozenset()


def _small_sweep(g, X, mode):
    return sweep_orders(g, X, mode, max_nodes=300)


def _checked(run, g, X, mode) -> tuple[list, list]:
    """Run ``run(g, X, mode)`` with every U that a walker builds asserted
    equal to `reference_U`.  Returns the states whose U was built and those
    classified without it; at each of the latter, the reference gate must
    pass every satisfied law.

    Every U is built by `_Program.overestimate`: `compute_U` wraps it for
    `_forward`, and `_fold` calls it on its masks.  `_forward` classifies a
    state through `satisfied_unfired`; `_fold` hands each to its expand."""
    built, classified = [], []
    real_U, real_sat, real_fold = engine._Program.overestimate, satisfied_unfired, engine._fold

    def checked_U(prog, t, pinned, fired, mode):
        masks = real_U(prog, t, pinned, fired, mode)
        state = prog.state(t, pinned, fired)
        u = ThreeValuedInterp(g.endogenous_atoms, *map(prog.atoms_of, masks))
        assert u == reference_U(g, X, state, mode), state.describe()
        built.append(state)
        return masks

    def noted_sat(g, X, state):
        classified.append(state)
        return real_sat(g, X, state)

    def noted_fold(g, X, mode, expand, combine):
        prog = engine._program(g, X)

        def noted(key, app, u):
            classified.append(prog.state(*key))
            return expand(key, app, u)
        return real_fold(g, X, mode, noted, combine)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine._Program, "overestimate", checked_U)
        patch.setattr(engine, "satisfied_unfired", noted_sat)
        patch.setattr(engine, "_fold", noted_fold)
        patch.setattr(oracle, "_fold", noted_fold)
        try:
            run(g, X, mode)
        except (SoundnessError, BudgetExceededError):
            pass
    seen = set(built)
    skipped = [state for state in classified if state not in seen]
    for state in skipped:
        sat = satisfied_unfired(g, X, state)
        assert applicable(g, X, state, reference_U(g, X, state, mode)) == sat, \
            state.describe()
    return built, skipped


def _run_all(g, X) -> int:
    """Fold ``g`` under X by `build_execution_model`, `distribution` and a
    small sweep, in both modes; returns how many U were checked."""
    checked = 0
    for mode in UMode:
        built, skipped = _checked(build_execution_model, g, X, mode)
        assert built and not skipped  # the tree carries U at every node
        for run in (distribution, _small_sweep):
            built += _checked(run, g, X, mode)[0]
        checked += len(built)
    return checked


@pytest.mark.parametrize("name", sorted(theories.BUNDLED))
def test_bundled_theories(name):
    bundled = theories.BUNDLED[name]
    g = ground(bundled.theory())
    for X in bundled.exo_cases:
        assert _run_all(g, X)


@pytest.mark.parametrize("seed", range(200))
def test_random_theories(seed):
    for t in (random_stratified_theory(seed, atoms=12, laws=8),
              random_deterministic_theory(seed, atoms=12, laws=8)):
        assert _run_all(ground(t), NOTHING)


def test_random_theories_fire_laws_without_U():
    # across the seeds, in both walkers, many states have satisfied laws
    # and no U; the sweep's own walk builds U at some states too
    firing = {distribution: 0, _small_sweep: 0}
    gated = 0
    for seed in range(40):
        g = ground(random_stratified_theory(seed, atoms=12, laws=8))
        for mode in UMode:
            for run in firing:
                built, skipped = _checked(run, g, NOTHING, mode)
                firing[run] += sum(1 for s in skipped if satisfied_unfired(g, NOTHING, s))
                gated += len(built) if run is _small_sweep else 0
    assert min(firing.values()) > 100 and gated > 100


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(quantified_theories(max_laws=3), st.data())
def test_stratified_quantified_theories_have_one_distribution(t, data):
    g = ground(t)
    assume(stratification_report(g).stratified)
    X = drawn_exogenous(data.draw, g)
    assert _run_all(g, X)
    results = []
    for run in (distribution, sweep_orders):  # the whole sweep, checked
        _checked(lambda *args: results.append(run(*args)), g, X, UMode.EXTENDED)
    dist, report = results
    assert report.distributions == (dist,)


def _chain(n: int) -> str:
    laws = ["Turns(g0) <- Crank."]
    laws += [f"(Turns(g{i}):9/10) <- Turns(g{i - 1})." for i in range(1, n + 1)]
    laws += [f"~Turns(g{i}) <- Locked(g{i})." for i in range(n + 1)]
    gears = ", ".join(f"g{i}" for i in range(n + 1))
    return (f"domain gear = {{{gears}}}.\nexogenous Crank/0, Locked/1.\n"
            + "\n".join(laws) + "\n")


def test_gear_chain_with_locks():
    g = ground(parse_theory(_chain(40)))
    checked = 0
    for X in (atoms("Crank"), atoms("Crank", "Locked(g7)"),
              atoms("Crank", "Locked(g0)", "Locked(g39)")):
        for mode in UMode:
            for run in (build_execution_model, distribution):
                checked += len(_checked(run, g, X, mode)[0])
    assert checked > 40 * 6


def test_a_chain_builds_U_only_where_the_lock_can_block():
    # Locked(g7) makes Turns(g7) retractable: in extended mode U is built
    # exactly where the law reading Turns(g7) is satisfied, and in literal
    # mode, where no body reads an atom under ~, nowhere
    g = ground(parse_theory(_chain(40)))
    X = atoms("Crank", "Locked(g7)")
    (reader,) = (i for i, law in enumerate(g.laws) if law.body == atom("Turns(g7)"))
    built, skipped = _checked(distribution, g, X, UMode.EXTENDED)
    assert built and skipped
    assert all(reader in satisfied_unfired(g, X, s) for s in built)
    assert not any(reader in satisfied_unfired(g, X, s) for s in skipped)
    built, skipped = _checked(distribution, g, X, UMode.LITERAL)
    assert built == [] and len(skipped) > 40


def test_coins_with_any():
    text = " ".join(f"(C{i}:1/2)." for i in range(8))
    text += " Any <- " + " ; ".join(f"C{i}" for i in range(8)) + "."
    g = ground(parse_theory(text))
    for mode in UMode:
        built, _ = _checked(build_execution_model, g, NOTHING, mode)
        assert len(built) > 256
        # every body is positive and no head negative: no state needs U
        built, skipped = _checked(distribution, g, NOTHING, mode)
        assert built == [] and len(skipped) > 256
        assert len(distribution(g, NOTHING, mode)) == 256


def test_exogenous_atoms_fold_out_of_bodies():
    # Only the disjunct whose Edge is set can ever fire Reach(c): the body
    # compiles to reading Reach(b) alone.
    t = parse_theory(
        "domain node = {a, b, c}.\nexogenous Edge/2, Start/1.\n"
        "!y in node: Reach(y) <- Start(y) ; (?x in node: (Reach(x), Edge(x, y))).\n")
    g = ground(t)
    X = atoms("Start(a)", "Edge(a,b)", "Edge(b,c)")
    prog = engine._program(g, X)
    index = {law.head[0].literal.atom: i for i, law in enumerate(g.laws)}
    reach = {name: prog.bit[atom(f"Reach({name})")] for name in "abc"}
    body_c = prog.bodies[index[atom("Reach(c)")]]
    for t_mask in range(8):
        want = 2 if t_mask & reach["b"] else 0
        assert body_c(t_mask, 0) == want
    assert body_c(0, reach["b"]) == 1
    assert body_c(0, reach["a"] | reach["c"]) == 0
    # Reach(c) is read by no compiled body, Reach(b) only by Reach(c)'s.
    readers = {b: tuple(r) for heads in prog.heads for _, b, r in heads}
    assert readers[reach["c"]] == ()
    assert readers[reach["b"]] == (index[atom("Reach(c)")],)
    # Reach(a)'s body is decided by Start(a) alone.
    assert prog.bodies[index[atom("Reach(a)")]](0, 0) == 2
    assert satisfied_unfired(g, X, engine.ExecState.initial()) \
        == (index[atom("Reach(a)")],)


def test_program_lives_on_its_ground_theory():
    g = ground(theories.get("locked_gears"))
    X = atoms("Crank1")
    prog = engine._program(g, X)
    assert engine._program(g, frozenset(X)) is prog
    other = engine._program(g, atoms("Crank1", "Locked(g1)"))
    assert other is not prog
    assert g._compiled == (atoms("Crank1", "Locked(g1)"), other)
    assert g == ground(theories.get("locked_gears"))


def test_a_compiled_program_is_freed_without_the_cyclic_collector():
    # Recursive closures per compiled body would each be a reference cycle
    # of functions and cells that only the cyclic collector frees.
    g = ground(parse_theory(_chain(60)))
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        X = atoms("Crank", "Locked(g30)")
        assert query(g, X, atom("Turns(g29)")) == Fraction(9, 10) ** 29
        assert len(engine._program(g, X).live) == 62
        del g
        gc.collect()
        cyclic = [x for x in gc.garbage
                  if isinstance(x, CellType) or (isinstance(x, FunctionType)
                                                 and x.__module__ == engine.__name__)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert cyclic == []


_ENDO = tuple(Atom(name) for name in "ABCD")  # bit k is _ENDO[k]
_EXO = (Atom("E"), Atom("F"))


def _ground_formulas(depth: int):
    """Ground bodies over `_ENDO` and `_EXO`: literals, truth constants,
    negations and connectives of 2 to 4 parts, nested up to ``depth``
    deep."""
    leaves = st.sampled_from(_ENDO + _EXO + (TRUE, FALSE))
    if depth == 0:
        return leaves
    sub = _ground_formulas(depth - 1)
    parts = st.lists(sub, min_size=2, max_size=4).map(tuple)
    return st.one_of(leaves, sub.map(Not), parts.map(And), parts.map(Or))


_A, _B, _C, _D = _ENDO
_E, _F = _EXO


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_ground_formulas(4), st.integers(0, 15), st.integers(0, 15),
       st.frozensets(st.sampled_from(_EXO)))
# connectives nested in connectives, each junction rule outcome once: u,
# the unit f, a deciding f and a deciding t
@example(And((_A, Or((_B, _C)))), 0b0001, 0b0010, frozenset())
@example(Or((Not(And((_A, _B))), And((_C, _D)))), 0b0011, 0, frozenset())
@example(And((Or((_A, _B)), Or((_C, _D, _E)))), 0, 0b1100, frozenset())
@example(Or((_A, And((_B, _C)), Not(_F))), 0b0110, 0, frozenset({_F}))
# a negated atom at u, which the well-founded reading takes from the outer set
@example(And((_B, Not(_A))), 0b0010, 0b0001, frozenset())
def test_compiled_bodies_agree_with_kleene_eval(phi, t, u, X):
    # the literal masks, the nested evaluators and X folded in at compile
    # time, against the evaluator that reads the formula itself
    u &= ~t
    bit = {a: 1 << k for k, a in enumerate(_ENDO)}
    exo = frozenset(_EXO)
    body, (pos, neg) = engine._compile_body(phi, bit, X, exo)
    true = frozenset(a for a in _ENDO if t & bit[a])
    unknown = frozenset(a for a in _ENDO if u & bit[a])
    nu = ThreeValuedInterp(frozenset(_ENDO), true, unknown)
    assert body(t, u) == kleene_eval(phi, nu, X, exo)
    # threeval's one walk, read three ways, against Kleene by min and max:
    # the three-valued value, two-valued truth, and the well-founded
    # model's reading of positive occurrences from an inner set (the t
    # atoms) and negated ones from an outer set (the t and u atoms), which
    # holds exactly when phi is t
    kleene = value(phi, true, unknown, X, exo)
    assert kleene_eval(phi, nu, X, exo) == kleene
    assert holds(phi, true | X) == (value(phi, true, (), X, exo) == T)
    assert oracle._dual_eval(phi, true, true | unknown, X, exo) == (kleene == T)
    # an atom that the body does not read cannot change its value
    reads = pos | neg
    assert body(t & reads, u & reads) == body(t, u)
    # raising an atom from f to u to t never lowers the value when the body
    # reads it under an even number of ~ only, and never raises it when
    # under an odd number only
    for b in bit.values():
        rest_t, rest_u = t & ~b, u & ~b
        values = [body(rest_t, rest_u), body(rest_t, rest_u | b), body(rest_t | b, rest_u)]
        if not b & neg:
            assert values == sorted(values)
        if not b & pos:
            assert values == sorted(values, reverse=True)
