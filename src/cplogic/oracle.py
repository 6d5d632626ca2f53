"""Brute-force validators, independent of the engine's canonical policy.

``sweep_orders`` enumerates every choice of applicable law at every node and
collects the distribution of each complete execution model, so firing-order
invariance can be checked rather than assumed.  It is a fold over the
engine's iterative state walk: it shares the engine's state classification,
soundness check and mixing loop, but not its firing policy.
``reference_U`` computes the overestimate U by its definition, rescanning
every unfired law until nothing changes, for the compiled worklist
`engine.compute_U` to agree with; ``reference_distribution`` mixes with
`Fraction` arithmetic throughout, for the integer mixing of
`engine.distribution` to agree with.  ``well_founded_model`` and
``least_model`` are classical fixpoint constructions for the deterministic
fragments, giving the engine something external to agree with.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .engine import (Distribution, ExecState, UMode, _fold, _follow, _mix,
                     lowest_index_policy)
# Bound here only so that bench/tracing.py can patch them at this import site.
from .engine import (applicable, apply_disjunct, compute_U,  # noqa: F401
                     satisfied_unfired)
from .ground import GroundTheory
from .syntax import (And, Atom, CPLaw, EffectLiteral, Formula, HeadDisjunct,
                     Not, Or, Theory, Truth, TRUE)
from .threeval import F, T, U, ThreeValuedInterp, holds, kleene_eval


class BudgetExceededError(Exception):
    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"order sweep exceeded the node budget of {budget}")


class OracleError(Exception):
    """Input outside the oracle's fragment (nondeterministic, negated, ...)."""


# ---------------------------------------------------------------------------
# Exhaustive firing-order sweep
# ---------------------------------------------------------------------------

# (D, frozenset of (frozenset[Atom], numerator) pairs), in lowest terms.
FrozenDist = tuple


def _freeze(D: int, nums: dict) -> FrozenDist:
    """``nums / D`` reduced by the gcd of ``D`` and every numerator, so that
    equal distributions freeze equal."""
    k = gcd(D, *nums.values())
    if k > 1:
        D //= k
        nums = {world: n // k for world, n in nums.items()}
    return D, frozenset(nums.items())


def _thaw(fd: FrozenDist) -> Distribution:
    D, pairs = fd
    return Distribution({world: Fraction(n, D) for world, n in pairs})


def _dist_key(fd: FrozenDist):
    D, pairs = fd
    return sorted((tuple(sorted(str(a) for a in world)), str(Fraction(n, D)))
                  for world, n in pairs)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
                 max_nodes: int = 1_000_000) -> OrderSweepReport:
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

    def combine(state, _u, branches, path):
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
# Reference overestimate and reference mixing
# ---------------------------------------------------------------------------

def reference_U(g: GroundTheory, X: frozenset, state: ExecState,
                mode: UMode = UMode.EXTENDED) -> ThreeValuedInterp:
    """`engine.compute_U` by the definition: rescan every unfired law with
    `kleene_eval` until a whole round changes nothing.

    Starts from the current world (t on I, f elsewhere) and repeatedly
    downgrades to u: an atom may still be caused by an unfired law whose body
    is not yet ruled out, and (extended mode) a true atom may still be
    retracted by an unfired law with a matching negative head literal.
    Retracted atoms (N) stay pinned at f.
    """
    value = {a: (T if a in state.true_atoms else F) for a in g.endogenous_atoms}
    unfired = [i for i in range(len(g.laws)) if i not in state.fired]

    def snapshot():
        return ThreeValuedInterp(
            g.endogenous_atoms,
            frozenset(a for a, v in value.items() if v is T),
            frozenset(a for a, v in value.items() if v is U))

    changed = True
    while changed:
        changed = False
        nu = snapshot()
        for i in unfired:
            law = g.laws[i]
            if kleene_eval(law.body, nu, X, g.exogenous_atoms) is F:
                continue
            for disj in law.head:
                a = disj.literal.atom
                if a in state.negated:
                    continue
                if not disj.literal.negated:
                    if value[a] is F:
                        value[a] = U
                        changed = True
                elif mode is UMode.EXTENDED:
                    if value[a] is T:
                        value[a] = U
                        changed = True
    return snapshot()


def reference_distribution(g: GroundTheory, X: frozenset,
                           mode: UMode = UMode.EXTENDED,
                           policy=lowest_index_policy) -> Distribution:
    """`engine.distribution` with `Fraction` arithmetic at every edge.

    The same fold, following the same law per state, but each state's
    sub-distribution is a dict of `Fraction`s mixed by ``+`` and ``*``: the
    plain rational arithmetic that the engine's integer mixing must match.
    """
    def mix(state, _u, branches, _path):
        if not branches:
            return {state.true_atoms: Fraction(1)}
        ((_, kids),) = branches
        acc: dict = {}
        for _, num, den, sub in kids:
            prob = Fraction(num, den)
            for world, p in sub.items():
                acc[world] = acc.get(world, Fraction(0)) + prob * p
        return acc

    return Distribution(_fold(g, X, mode, _follow(policy), mix))


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
               X: frozenset, exo_preds: frozenset, positive: bool) -> bool:
    """Evaluate with positive atom occurrences read from ``inner`` and
    occurrences under an odd number of negations read from ``outer``."""
    match phi:
        case Atom():
            if phi.predicate in exo_preds:
                return phi in X
            return phi in (inner if positive else outer)
        case Truth(v):
            return v
        case Not(sub):
            return not _dual_eval(sub, inner, outer, X, exo_preds, not positive)
        case And(parts):
            return all(_dual_eval(p, inner, outer, X, exo_preds, positive) for p in parts)
        case Or(parts):
            return any(_dual_eval(p, inner, outer, X, exo_preds, positive) for p in parts)
    raise OracleError(f"cannot evaluate {phi!r}; ground the theory first")


def well_founded_model(g: GroundTheory, X: frozenset = frozenset()) -> ThreeValuedInterp:
    """Alternating-fixpoint well-founded model of a deterministic theory.

    The theory, read as a normal logic program (one rule per law, arbitrary
    ground bodies), is evaluated through the alternating sequence of
    underestimates and overestimates; atoms in neither limit set are unknown.
    """
    rules = _deterministic_rules(g, "well_founded_model")
    exo = g.exogenous_predicates

    def gamma(assumed: frozenset) -> frozenset:
        derived: set = set()
        changed = True
        while changed:
            changed = False
            for head, body in rules:
                if head not in derived and _dual_eval(
                        body, frozenset(derived), assumed, X, exo, True):
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
    """Immediate-consequence fixpoint of a positive deterministic theory."""
    rules = _deterministic_rules(g, "least_model")
    for _, body in rules:
        if any(isinstance(part, Not) for part in _subformulas(body)):
            raise OracleError("least_model needs a negation-free theory")
    model: set = set()
    changed = True
    while changed:
        changed = False
        for head, body in rules:
            if head not in model and holds(body, model | X):
                model.add(head)
                changed = True
    return frozenset(model)


def _subformulas(phi: Formula):
    yield phi
    match phi:
        case Not(sub):
            yield from _subformulas(sub)
        case And(parts) | Or(parts):
            for p in parts:
                yield from _subformulas(p)
        case _:
            pass


# ---------------------------------------------------------------------------
# Seeded random theories
# ---------------------------------------------------------------------------

# The first eight names are fixed: seeds must keep giving the same theories.
_ATOM_NAMES = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ")

_PROB_SINGLES = (Fraction(1), Fraction(1, 2), Fraction(1, 3),
                 Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))
_PROB_PAIRS = ((Fraction(1, 2), Fraction(1, 2)),
               (Fraction(1, 2), Fraction(1, 4)),
               (Fraction(1, 3), Fraction(1, 3)),
               (Fraction(1, 4), Fraction(1, 4)),
               (Fraction(2, 3), Fraction(1, 3)))


def _atom_names(atoms: int) -> tuple:
    if not 1 <= atoms <= len(_ATOM_NAMES):
        raise ValueError(f"atoms must be between 1 and {len(_ATOM_NAMES)}, "
                         f"got {atoms}")
    return _ATOM_NAMES[:atoms]


def random_deterministic_theory(seed: int, atoms: int = 6, laws: int = 6,
                                negation_rate: float = 0.4) -> Theory:
    """Seeded propositional deterministic theory; bodies may use negation
    freely, so the result may well be unsound."""
    rng = random.Random(seed)
    names = _atom_names(atoms)
    n_laws = rng.randint(1, laws)

    def body(depth: int) -> Formula:
        if depth == 0 or rng.random() < 0.45:
            atom = Atom(rng.choice(names))
            return Not(atom) if rng.random() < negation_rate else atom
        op = rng.choice((And, Or))
        return op(tuple(body(depth - 1) for _ in range(rng.randint(2, 3))))

    out = []
    for _ in range(n_laws):
        head_atom = Atom(rng.choice(names))
        phi = TRUE if rng.random() < 0.15 else body(2)
        out.append(CPLaw((), (HeadDisjunct(EffectLiteral(False, head_atom), Fraction(1)),), phi))
    return Theory({}, {}, tuple(out))


def random_stratified_theory(seed: int, atoms: int = 6, laws: int = 6,
                             negation_rate: float = 0.4,
                             head_width: int = 2,
                             negative_heads: bool = True) -> Theory:
    """Seeded propositional theory that is stratified by construction.

    Atoms live on strata; negative dependencies (negated body occurrences,
    and every body edge of a law with a negative head literal) only point
    strictly downwards, so no cycle can carry a negative edge.
    """
    rng = random.Random(seed)
    names = list(_atom_names(atoms))
    stratum = {name: rng.randint(0, 2) for name in names}
    n_laws = rng.randint(1, laws)

    out = []
    for _ in range(n_laws):
        width = rng.randint(1, head_width)
        head_names = rng.sample(names, min(width, len(names)))
        literals = []
        has_neg_head = False
        for name in head_names:
            neg = negative_heads and rng.random() < 0.25
            has_neg_head = has_neg_head or neg
            literals.append(EffectLiteral(neg, Atom(name)))
        probs = (rng.choice(_PROB_SINGLES),) if len(literals) == 1 \
            else rng.choice(_PROB_PAIRS)
        head = tuple(HeadDisjunct(lit, p) for lit, p in zip(literals, probs))

        floor = min(stratum[n] for n in head_names)
        parts = []
        for _ in range(rng.randint(0, 2)):
            negated = rng.random() < negation_rate
            strict = negated or has_neg_head
            pool = [n for n in names
                    if (stratum[n] < floor if strict else stratum[n] <= floor)]
            if not pool:
                continue
            atom = Atom(rng.choice(pool))
            parts.append(Not(atom) if negated else atom)
        phi: Formula = TRUE if not parts else (
            parts[0] if len(parts) == 1 else And(tuple(parts)))
        out.append(CPLaw((), head, phi))
    return Theory({}, {}, tuple(out))
