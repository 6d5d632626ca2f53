"""Brute-force validators, independent of the engine's canonical firing order.

``sweep_orders`` enumerates every choice of applicable law at every node and
collects the distribution of each complete execution model, so firing-order
invariance can be checked rather than assumed.  It is a fold over the
engine's iterative state walk: it shares the engine's state classification,
soundness check and mixing loop, but not its one law per state.
``well_founded_model`` and ``least_model`` are classical fixpoint
constructions for the deterministic fragments, giving the engine something
external to agree with.  The references that only the tests use, a
rescanning U and a `Fraction` distribution, are kept in
``tests/reference_engine.py``, and the seeded random theories in
``tests/helpers.py``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, prod

from .engine import Distribution, ExecState, UMode, _fold, _mix
# Bound here only so that bench/tracing.py can patch them at this import site.
from .engine import (applicable, apply_disjunct, compute_U,  # noqa: F401
                     satisfied_unfired)
from .ground import GroundTheory
from .syntax import Formula, atom_names, formula_atom_polarities, record
from .threeval import F, T, ThreeValuedInterp, evaluate, holds


# Default node budget of `sweep_orders` and of `cpl sweep --budget`.  The
# sweep's memo holds about 5 KB per unit on a wide random theory, so this
# default stops a sweep at about 0.5 GB.
DEFAULT_BUDGET = 100_000


class BudgetExceededError(Exception):
    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"order sweep exceeded the node budget of {budget}")


class OracleError(Exception):
    """Input outside the oracle's fragment (nondeterministic, negated, ...)."""


# ---------------------------------------------------------------------------
# Exhaustive firing-order sweep
# ---------------------------------------------------------------------------

def _freeze(D: int, nums: dict) -> tuple:
    """``nums / D`` as ``(D, frozenset of (frozenset[Atom], numerator)
    pairs)``, reduced by the gcd of ``D`` and every numerator, so that equal
    distributions freeze equal."""
    k = gcd(D, *nums.values())
    if k > 1:
        D //= k
        nums = {world: n // k for world, n in nums.items()}
    return D, frozenset(nums.items())


def _thaw(fd: tuple) -> Distribution:
    D, pairs = fd
    return Distribution({world: Fraction(n, D) for world, n in pairs})


def _dist_key(fd: tuple):
    D, pairs = fd
    return sorted((atom_names(world), str(Fraction(n, D))) for world, n in pairs)


@record
class DivergenceWitness:
    """Two rule choices at one reachable state with different achievable outcomes."""

    path: tuple  # (law index, outcome) steps that reach the state from the root
    state: ExecState
    law_a: int
    law_b: int
    dist_a: Distribution  # achievable by firing law_a here, not by law_b
    dist_b: Distribution

    def describe(self) -> str:
        steps = " -> ".join(
            f"fire {i} ({'no-op' if out is None else out})" for i, out in self.path)
        return (f"at node [{self.state.describe()}]"
                + (f" reached via {steps}" if steps else " (root)")
                + f": law {self.law_a} and law {self.law_b} admit different distributions")


@record
class OrderSweepReport:
    models_explored: int  # number of distinct complete execution models
    distributions: tuple  # of Distribution, all distinct outcomes seen
    witness: DivergenceWitness | None
    states_explored: int
    budget: int

    @property
    def invariant(self) -> bool:
        return len(self.distributions) == 1


def sweep_orders(g: GroundTheory, X: frozenset,
                 mode: UMode = UMode.EXTENDED,
                 max_nodes: int = DEFAULT_BUDGET) -> OrderSweepReport:
    """Every execution model's distribution, by exhaustive rule-choice search.

    A fold over the engine's execution states that follows every applicable
    law, not one: a state's value is its number of execution models and the
    set of distributions they reach.  The budget counts distinct states
    plus distribution combinations and the sweep fails loudly when exceeded.
    A `SoundnessError` from any branch propagates.
    """
    witness: DivergenceWitness | None = None
    work = 0
    states = 0

    def bump():
        nonlocal work
        work += 1
        if work > max_nodes:
            raise BudgetExceededError(max_nodes)

    def expand(_state, app):
        nonlocal states
        bump()
        states += 1
        return app

    def combine(state, branches, path):
        nonlocal witness
        if not branches:
            return 1, frozenset({(1, frozenset({(state.true_atoms, 1)}))})
        per_rule: dict = {}
        models = 0
        for i, kids in branches:
            weights = [(num, den) for _, num, den, _ in kids]
            combos = set()
            for combo in itertools.product(*(dists for *_, (_, dists) in kids)):
                bump()
                combos.add(_freeze(*_mix(
                    (num, den, D, pairs)
                    for (num, den), (D, pairs) in zip(weights, combo))))
            per_rule[i] = frozenset(combos)
            models += prod(count for *_, (count, _) in kids)
        if witness is None and len(set(per_rule.values())) > 1:
            witness = _build_witness(tuple(path), state, per_rule)
        return models, frozenset().union(*per_rule.values())

    models, dists = _fold(g, X, mode, expand, combine)
    distributions = tuple(map(_thaw, sorted(dists, key=_dist_key)))
    return OrderSweepReport(models, distributions, witness, states, max_nodes)


def _build_witness(path, state, per_rule) -> DivergenceWitness:
    (a, set_a), (b, set_b) = next(
        ((ra, sa), (rb, sb))
        for ra, sa in sorted(per_rule.items())
        for rb, sb in sorted(per_rule.items())
        if ra < rb and sa != sb)
    only_a = set_a - set_b
    only_b = set_b - set_a
    fd_a = min(only_a or set_a, key=_dist_key)
    fd_b = min(only_b or set_b, key=_dist_key)
    return DivergenceWitness(path, state, a, b, _thaw(fd_a), _thaw(fd_b))


# ---------------------------------------------------------------------------
# Well-founded and least models (deterministic fragments)
# ---------------------------------------------------------------------------

def _deterministic_rules(g: GroundTheory, what: str):
    rules = []
    for law in g.laws:
        if not law.is_deterministic():
            raise OracleError(f"{what} needs deterministic laws, got {law.head}")
        if law.head[0].literal.negated:
            raise OracleError(f"{what} does not accept negative head literals")
        rules.append((law.head[0].literal.atom, law.body))
    return rules


def _dual_eval(phi: Formula, inner: frozenset, outer: frozenset,
               X: frozenset, exogenous) -> bool:
    """Evaluate with positive atom occurrences read from ``inner`` and
    occurrences under an odd number of negations read from ``outer``."""
    def value(atom, negated):
        if atom in exogenous:
            return T if atom in X else F
        return T if atom in (outer if negated else inner) else F

    return evaluate(phi, value) == T


def well_founded_model(g: GroundTheory, X: frozenset = frozenset()) -> ThreeValuedInterp:
    """Alternating-fixpoint well-founded model of a deterministic theory.

    The theory, read as a normal logic program (one rule per law, arbitrary
    ground bodies), is evaluated through the alternating sequence of
    underestimates and overestimates; atoms in neither limit set are unknown.
    """
    rules = _deterministic_rules(g, "well_founded_model")
    exo = g.exogenous_atoms

    def gamma(assumed: frozenset) -> frozenset:
        derived: set = set()
        changed = True
        while changed:
            changed = False
            for head, body in rules:
                if head not in derived and _dual_eval(
                        body, frozenset(derived), assumed, X, exo):
                    derived.add(head)
                    changed = True
        return frozenset(derived)

    true_set = frozenset()
    while True:
        possible = gamma(true_set)
        advanced = gamma(possible)
        if advanced == true_set:
            break
        true_set = advanced
    assert true_set <= possible
    return ThreeValuedInterp(g.endogenous_atoms, true_set, possible - true_set)


def least_model(g: GroundTheory, X: frozenset = frozenset()) -> frozenset:
    """Immediate-consequence fixpoint of a positive deterministic theory:
    no atom of a body may occur under an odd number of negations."""
    rules = _deterministic_rules(g, "least_model")
    for _, body in rules:
        if any(negated for _, negated in formula_atom_polarities(body)):
            raise OracleError("least_model needs bodies without negated atoms")
    model: set = set()
    changed = True
    while changed:
        changed = False
        for head, body in rules:
            if head not in model and holds(body, model | X):
                model.add(head)
                changed = True
    return frozenset(model)
