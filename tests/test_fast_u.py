"""The compiled worklist `compute_U` against the rescanning `reference_U`.

Every state that the engine's fold classifies, through `distribution` and
through `sweep_orders`, in both modes, must get exactly the overestimate
that `oracle.reference_U` computes by the definition.
"""

import pytest

from cplogic import engine, theories
from cplogic.engine import (SoundnessError, UMode, compute_U, distribution,
                            satisfied_unfired)
from cplogic.ground import ground
from cplogic.oracle import (BudgetExceededError, random_deterministic_theory,
                            random_stratified_theory, reference_U,
                            sweep_orders)
from cplogic.syntax import parse_theory

from helpers import atom, atoms

NOTHING = frozenset()


@pytest.fixture
def checked_U(monkeypatch):
    """Make every `compute_U` call of the fold assert equality with the
    reference; yields a list that counts the states checked."""
    seen = []

    def checked(g, X, state, mode=UMode.EXTENDED):
        u = compute_U(g, X, state, mode)
        assert u == reference_U(g, X, state, mode), state.describe()
        seen.append(state)
        return u

    monkeypatch.setattr(engine, "compute_U", checked)
    return seen


def _run_both(g, X, seen):
    """Fold ``g`` under X by `distribution` and by a small sweep, both modes."""
    for mode in UMode:
        before = len(seen)
        try:
            distribution(g, X, mode)
        except SoundnessError:
            pass
        try:
            sweep_orders(g, X, mode, max_nodes=300)
        except (SoundnessError, BudgetExceededError):
            pass
        assert len(seen) > before


@pytest.mark.parametrize("name", sorted(theories.BUNDLED))
def test_bundled_theories(name, checked_U):
    bundled = theories.BUNDLED[name]
    g = ground(bundled.theory())
    for X in bundled.exo_cases:
        _run_both(g, X, checked_U)


@pytest.mark.parametrize("seed", range(200))
def test_random_theories(seed, checked_U):
    for t in (random_stratified_theory(seed, atoms=12, laws=8),
              random_deterministic_theory(seed, atoms=12, laws=8)):
        _run_both(ground(t), NOTHING, checked_U)


def _chain(n: int) -> str:
    laws = ["Turns(g0) <- Crank."]
    laws += [f"(Turns(g{i}):9/10) <- Turns(g{i - 1})." for i in range(1, n + 1)]
    laws += [f"~Turns(g{i}) <- Locked(g{i})." for i in range(n + 1)]
    gears = ", ".join(f"g{i}" for i in range(n + 1))
    return (f"domain gear = {{{gears}}}.\nexogenous Crank/0, Locked/1.\n"
            + "\n".join(laws) + "\n")


def test_gear_chain_with_locks(checked_U):
    g = ground(parse_theory(_chain(40)))
    for X in (atoms("Crank"), atoms("Crank", "Locked(g7)"),
              atoms("Crank", "Locked(g0)", "Locked(g39)")):
        for mode in UMode:
            distribution(g, X, mode)
    assert len(checked_U) > 40


def test_coins_with_any(checked_U):
    text = " ".join(f"(C{i}:1/2)." for i in range(8))
    text += " Any <- " + " ; ".join(f"C{i}" for i in range(8)) + "."
    g = ground(parse_theory(text))
    for mode in UMode:
        dist = distribution(g, NOTHING, mode)
        assert len(dist) == 256
    assert len(checked_U) > 256


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
    readers = {b: r for heads in prog.heads for _, b, r in heads}
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
