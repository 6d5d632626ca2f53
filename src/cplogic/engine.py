"""Probability-tree execution models and exact inference.

A theory executes by repeatedly firing laws whose bodies hold.  Firing is
gated twice: the body must be true in the current world, and it must also be
definitely true under a three-valued overestimate of everything that could
still be caused further down the tree.  The second gate makes a body literal
``~A`` mean "A will never deviate from false", not merely "A is false right
now".  When a body holds in the current world but the overestimate cannot
decide it, the process is stuck and the theory has no semantics.

One iterative fold, `_fold`, walks the reachable execution states children
first: it checks X, normalizes heads, classifies each distinct state once
and raises `SoundnessError`.  `build_execution_model` and `distribution`
are folds over it that follow one law per state; `oracle.sweep_orders` is a
fold that follows every applicable law.

All probabilities are exact rationals; distributions sum to exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .ground import GroundTheory, NormalizedLaw, expand_formula, normalize
from .syntax import EffectLiteral, Formula, formula_atoms
from .threeval import (F, T, ThreeValuedInterp, U, UnboundAtomError, holds,
                       kleene_eval)


class UMode(Enum):
    """How the overestimate treats atoms that a live negative head could retract.

    LITERAL keeps every currently-true atom at t.  EXTENDED downgrades a true
    atom to u while an unfired law with ``~A`` in its head is still live,
    which restores firing-order invariance for theories with negative heads.
    """

    LITERAL = "literal"
    EXTENDED = "extended"


class ExogenousError(Exception):
    """X sets atoms outside the exogenous universe."""


class SoundnessError(Exception):
    """Execution got stuck: a satisfied body stayed undecided under U."""

    def __init__(self, state: "ExecState", blocked: tuple):
        self.state = state
        self.blocked = blocked
        super().__init__(
            f"theory is unsound: stuck at node {state.describe()} "
            f"with satisfied but undecidable laws {list(blocked)}")


@dataclass(frozen=True)
class ExecState:
    """One node's world: current true atoms, retracted atoms, fired laws."""

    true_atoms: frozenset  # I: endogenous atoms currently true
    negated: frozenset  # N: atoms hit by a negative effect literal
    fired: frozenset  # indices of laws fired on the path so far

    def __post_init__(self):
        if self.true_atoms & self.negated:
            raise ValueError("an atom cannot be both true and retracted")

    @staticmethod
    def initial() -> "ExecState":
        return ExecState(frozenset(), frozenset(), frozenset())

    def describe(self) -> str:
        def fmt(atoms):
            return "{" + ", ".join(sorted(str(a) for a in atoms)) + "}"
        return (f"I={fmt(self.true_atoms)} N={fmt(self.negated)} "
                f"fired={sorted(self.fired)}")


@dataclass(frozen=True)
class ExecEdge:
    prob: Fraction
    outcome: EffectLiteral | None  # None is the no-op outcome
    law_index: int
    child: "ExecNode"


@dataclass(frozen=True)
class ExecNode:
    state: ExecState
    u: ThreeValuedInterp
    children: tuple[ExecEdge, ...]

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self):
        """Every node in preorder; a shared subtree once per edge into it."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(edge.child for edge in reversed(node.children))

    def leaf_paths(self):
        """Yield (edges-from-root, leaf node) pairs, left to right."""
        stack = [((), self)]
        while stack:
            prefix, node = stack.pop()
            if node.is_leaf:
                yield prefix, node
            stack.extend((prefix + (edge,), edge.child)
                         for edge in reversed(node.children))


def lowest_index_policy(applicable_laws, state):
    return applicable_laws[0]


def compute_U(g: GroundTheory, X: frozenset, state: ExecState,
              mode: UMode = UMode.EXTENDED) -> ThreeValuedInterp:
    """Fixpoint overestimate of everything still causable below ``state``.

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


def satisfied_unfired(g: GroundTheory, X: frozenset, state: ExecState) -> tuple:
    """Unfired laws whose bodies hold in the current two-valued world."""
    world = state.true_atoms | X
    return tuple(i for i in range(len(g.laws))
                 if i not in state.fired and holds(g.laws[i].body, world))


def applicable(g: GroundTheory, X: frozenset, state: ExecState,
               u: ThreeValuedInterp) -> tuple:
    """Laws allowed to fire: body true now and definitely true under ``u``."""
    return tuple(i for i in satisfied_unfired(g, X, state)
                 if kleene_eval(g.laws[i].body, u, X, g.exogenous_atoms) is T)


def apply_disjunct(state: ExecState, law: NormalizedLaw,
                   outcome: EffectLiteral | None) -> ExecState:
    """Successor state after ``law`` fires with the given outcome.

    A negative effect literal retracts the atom and pins it; a positive one
    makes the atom true unless it was pinned; the no-op outcome only marks
    the law as fired.
    """
    if law.index is None:
        raise ValueError("normalized law carries no index")
    fired = state.fired | {law.index}
    if outcome is None:
        return ExecState(state.true_atoms, state.negated, fired)
    a = outcome.atom
    if outcome.negated:
        return ExecState(state.true_atoms - {a}, state.negated | {a}, fired)
    if a in state.negated:
        return ExecState(state.true_atoms, state.negated, fired)
    return ExecState(state.true_atoms | {a}, state.negated, fired)


def _fold(g: GroundTheory, X: frozenset, mode: UMode, expand, combine):
    """Fold the execution states reachable from the root, children first.

    This is the one place where a state is classified.  ``expand(state,
    app)`` sees each distinct state once, with the laws applicable there,
    and returns the ones to branch on; every outcome of each is a child.  A
    state where some body holds but no law is applicable raises
    `SoundnessError`.  Once its children are done, ``combine(state, u,
    branches, path)`` gives the state's value: ``branches`` holds one
    ``(law index, [(outcome, prob, child value), ...])`` per expanded law,
    and ``path`` the ``(law index, outcome)`` steps from the root.  Identical
    states are folded once and share their value.  The current path lives
    on an explicit stack, so its length is not bounded by the recursion
    limit.
    """
    extra = X - g.exogenous_atoms
    if extra:
        names = ", ".join(sorted(str(a) for a in extra))
        raise ExogenousError(f"not in the exogenous universe: {names}")
    norm = [normalize(law, i) for i, law in enumerate(g.laws)]
    memo: dict = {}  # finished state -> value
    # The current path: per state, its U, the (law, outcome, prob) edges to
    # follow, an iterator over those not yet visited, and the children so far.
    frames: list = []
    path: list = []  # (law index, outcome) steps into frames[1:]
    state = ExecState.initial()
    while True:
        if state is not None:
            u = compute_U(g, X, state, mode)
            sat = satisfied_unfired(g, X, state)
            app = tuple(i for i in sat if kleene_eval(
                g.laws[i].body, u, X, g.exogenous_atoms) is T)
            chosen = expand(state, app)
            if sat and not app:
                raise SoundnessError(state, sat)
            edges = [(i, outcome, prob)
                     for i in chosen for outcome, prob in norm[i].outcomes]
            frames.append((state, u, edges, iter(edges), []))
        top, u, edges, todo, children = frames[-1]
        for i, outcome, _ in todo:
            state = apply_disjunct(top, norm[i], outcome)
            children.append(state)
            if state not in memo:
                path.append((i, outcome))
                break
        else:
            frames.pop()
            branches: dict = {}
            for (i, outcome, prob), child in zip(edges, children):
                branches.setdefault(i, []).append((outcome, prob, memo[child]))
            value = combine(top, u, branches.items(), path)
            if not frames:
                return value
            memo[top] = value
            path.pop()
            state = None


def _follow(policy):
    """Expand only the applicable law that ``policy`` picks."""
    return lambda state, app: (policy(app, state),) if app else ()


def build_execution_model(g: GroundTheory, X: frozenset,
                          mode: UMode = UMode.EXTENDED,
                          policy=lowest_index_policy) -> ExecNode:
    """Construct the canonical execution tree under firing policy ``policy``.

    At each node the policy picks one applicable law; the node gets one child
    per outcome of the normalized head.  A node with no satisfied unfired law
    is a leaf.  Identical states share one subtree object; `ExecNode.walk`
    and `ExecNode.leaf_paths` still read the result as a tree.  Raises
    `SoundnessError` when some body holds but every such law is undecidable
    under U.
    """
    def node(state, u, branches, _path):
        return ExecNode(state, u, tuple(
            ExecEdge(prob, outcome, i, child)
            for i, kids in branches for outcome, prob, child in kids))

    return _fold(g, X, mode, _follow(policy), node)


class Distribution(dict):
    """Exact distribution over endogenous worlds (frozenset[Atom] -> Fraction)."""

    def total(self) -> Fraction:
        return sum(self.values(), Fraction(0))

    def sorted_items(self):
        return sorted(self.items(),
                      key=lambda kv: tuple(sorted(str(a) for a in kv[0])))

    def project(self, predicates) -> "Distribution":
        """Marginalize onto worlds restricted to the given predicate names."""
        out: dict = {}
        for world, p in self.items():
            small = frozenset(a for a in world if a.predicate in predicates)
            out[small] = out.get(small, Fraction(0)) + p
        return Distribution(out)

    def prob(self, phi: Formula, X: frozenset = frozenset()) -> Fraction:
        return sum((p for world, p in self.items() if holds(phi, world | X)),
                   Fraction(0))


def _mix(weighted) -> dict:
    """Sum of ``prob * p`` per world over ``(prob, (world, p) pairs)`` items."""
    acc: dict = {}
    for prob, pairs in weighted:
        for world, p in pairs:
            acc[world] = acc.get(world, Fraction(0)) + prob * p
    return acc


def distribution(g: GroundTheory, X: frozenset,
                 mode: UMode = UMode.EXTENDED,
                 policy=lowest_index_policy) -> Distribution:
    """Exact leaf distribution of the execution model under ``policy``.

    A sub-distribution depends only on its state (I, N, fired), so sharing
    identical states keeps the walk polynomial for the common
    diamond-shaped state spaces.
    """
    def mix(state, _u, branches, _path):
        if not branches:
            return {state.true_atoms: Fraction(1)}
        ((_, kids),) = branches
        return _mix((prob, sub.items()) for _, prob, sub in kids)

    dist = Distribution(_fold(g, X, mode, _follow(policy), mix))
    total = dist.total()
    if total != 1:
        raise ArithmeticError(f"leaf probabilities sum to {total}, not 1")
    return dist


def query(g: GroundTheory, X: frozenset, phi: Formula,
          mode: UMode = UMode.EXTENDED) -> Fraction:
    """Probability mass of the worlds satisfying ground-expanded ``phi``."""
    phi = expand_formula(phi, {}, g.domains)
    for atom in formula_atoms(phi):
        if atom not in g.endogenous_atoms and atom not in g.exogenous_atoms:
            raise UnboundAtomError(f"unknown atom {atom}")
    return distribution(g, X, mode).prob(phi, X)
