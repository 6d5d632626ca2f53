"""The exhaustive firing-order sweep, independent of the engine's canonical
firing order.

``sweep_orders`` enumerates every choice of applicable law at every node and
collects the distribution of each complete execution model, so firing-order
invariance can be checked rather than assumed.  It is a fold over the
engine's state walk, `engine._fold`: it shares the engine's state
classification and soundness check, but not its one law per state, and
counts mass as `distribution` does, over the program's one ``M``
(`engine._unit`), checked once in `engine._thaw`.  States are integer keys
and worlds the masks of their true atoms, made atom sets only for the
report.  Every sub-distribution is a frozenset of ``(world, n)`` pairs,
``n / M`` being the world's probability, so a law's mix is one
multiply-add pass and equal distributions freeze equal at any states.
The references that only the tests use are kept in ``tests/``: a
rescanning U and a `Fraction` distribution in ``reference_engine.py``, the
well-founded and least models of the deterministic fragments in
``reference_models.py``, and the seeded random theories in ``helpers.py``.
"""

from __future__ import annotations

from math import prod

from .engine import Distribution, ExecState, UMode, _fold, _program, _thaw, _unit
from .ground import GroundTheory
from .syntax import atom_names, record
# Bound here only so that bench/tracing.py can patch them at this import site.
from .engine import (applicable, apply_disjunct, compute_U,  # noqa: F401
                     satisfied_unfired)
from .threeval import holds  # noqa: F401


# Default node budget of `sweep_orders` and of `cpl sweep --budget`.  Peak
# `tracemalloc` of `random_stratified_theory(seed, atoms=14, laws=12)`, seeds
# 10-69, either mode, at this budget: 109 MB for seed 47 in literal mode, at
# most 43 MB for the other 119 sweeps; so this stops a sweep near 0.1 GB.
DEFAULT_BUDGET = 100_000


class BudgetExceededError(Exception):
    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"order sweep exceeded the node budget of {budget}")


def _add(acc: dict, num: int, den: int, pairs) -> dict:
    """``acc`` plus ``num / den`` times the numerators ``pairs``, in place."""
    get = acc.get
    for world, n in pairs:
        acc[world] = get(world, 0) + num * (n // den)
    return acc


def _dist_key(dist: Distribution):
    return sorted((atom_names(world), str(p)) for world, p in dist.items())


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
    prog = _program(g, X)
    M = _unit(g, prog)
    witness: DivergenceWitness | None = None
    work = 0
    states = 0

    def expand(_key, app, _u):
        nonlocal work, states
        work += 1
        states += 1
        if work > max_nodes:
            raise BudgetExceededError(max_nodes)
        return app

    def combine(key, branches, path):
        nonlocal work, witness
        if not branches:
            return 1, frozenset({frozenset({(key[0], M)})})
        per_rule: dict = {}
        models = 0
        for i, kids in branches:
            work += prod(len(dists) for _, _, _, (_, dists) in kids)
            if work > max_nodes:
                raise BudgetExceededError(max_nodes)
            count, accs = 1, [{}]
            for _, num, den, (n, dists) in kids:
                count *= n
                if len(dists) == 1:
                    (pairs,) = dists
                    for acc in accs:
                        _add(acc, num, den, pairs)
                    continue
                # Each partial mix with each distribution, equal mixes kept once.
                accs = list({frozenset(acc.items()): acc for acc in (
                    _add(dict(acc), num, den, pairs) for acc in accs for pairs in dists)
                }.values())
            per_rule[i] = frozenset(frozenset(acc.items()) for acc in accs)
            models += count
        if witness is None and len(set(per_rule.values())) > 1:
            witness = _build_witness(prog, tuple(path), key, per_rule, M)
        return models, frozenset().union(*per_rule.values())

    models, dists = _fold(g, X, mode, expand, combine)
    distributions = tuple(sorted((_thaw(fd, M, prog.atoms_of) for fd in dists), key=_dist_key))
    return OrderSweepReport(models, distributions, witness, states, max_nodes)


def _build_witness(prog, path, key, per_rule, M) -> DivergenceWitness:
    (a, set_a), (b, set_b) = next(
        ((ra, sa), (rb, sb))
        for ra, sa in sorted(per_rule.items())
        for rb, sb in sorted(per_rule.items())
        if ra < rb and sa != sb)
    dist_a = min((_thaw(fd, M, prog.atoms_of) for fd in set_a - set_b or set_a), key=_dist_key)
    dist_b = min((_thaw(fd, M, prog.atoms_of) for fd in set_b - set_a or set_b), key=_dist_key)
    return DivergenceWitness(path, prog.state(*key), a, b, dist_a, dist_b)

