"""Probability trees by their definition, kept as a test oracle.

The paper gives a theory its meaning through probability trees gated by the
overestimate U.  This interpreter builds the canonical tree from those
definitions alone.  It imports only the AST, so it shares no code with the
engine's fold, its compiled bodies, its worklist U or its integer mixing.

A node is a state ``(I, N, fired)``: the endogenous atoms now true, the
atoms retracted by a negative effect, and the laws fired on the path.  An
exogenous atom is true exactly when it is in X.  At each node:

- a law is *satisfied* when it has not fired and its body holds in I ∪ X;
- U starts from t on I and f elsewhere, and every unfired law is scanned
  again until a whole round changes nothing.  A law whose body is not f
  under U makes each positive head atom that is f and not in N u, and, in
  extended mode, each negative head atom that is t and not in N u;
- a law is *applicable* when it is satisfied and its body is t under U;
- with no satisfied law the node is a leaf, whose world is I.  With some
  satisfied law but no applicable one the node is stuck.  Otherwise the
  lowest-index applicable law fires, with one child per head disjunct, in
  head order, and last a no-op child with the probability that is left.

The tree is walked by plain recursion with nothing shared between
branches, so a node budget bounds the walk, and the first stuck node found
is the first in preorder.

`sweep` is the all-orders reference for `cplogic.oracle.sweep_orders`: at
each node it fires every applicable law in turn, mixes each law's children
with `Fraction` ``+`` and ``*``, and gives the set of distributions the
firing orders reach.  It remembers each node it has walked, as the
distributions below a node depend on the node alone.
"""

from fractions import Fraction

from cplogic.syntax import And, Atom, Not, Or, Truth

F, U, T = 0, 1, 2


class Stuck(Exception):
    """Some law is satisfied at ``state`` but none is applicable."""

    def __init__(self, state: tuple, satisfied: tuple):
        self.state = state
        self.satisfied = satisfied
        super().__init__(f"stuck at {state} with satisfied laws {satisfied}")


class TreeBudgetError(Exception):
    """The tree has more nodes than the budget allows."""


def value(phi, true, unknown, X, exogenous) -> int:
    """Kleene value of ground ``phi``: F < U < T, ``~`` reverses the order,
    a conjunction takes the least value of its parts and a disjunction the
    greatest.  An exogenous atom is T in X and F elsewhere; an endogenous
    atom is T in ``true``, U in ``unknown`` and F elsewhere."""
    match phi:
        case Atom():
            if phi in exogenous:
                return T if phi in X else F
            return T if phi in true else U if phi in unknown else F
        case Truth(v):
            return T if v else F
        case Not(sub):
            return T - value(sub, true, unknown, X, exogenous)
        case And(parts):
            return min((value(p, true, unknown, X, exogenous) for p in parts), default=T)
        case Or(parts):
            return max((value(p, true, unknown, X, exogenous) for p in parts), default=F)
    raise TypeError(f"not a ground formula: {phi!r}")


def overestimate(laws, X, exogenous, state, extended: bool) -> tuple:
    """U at ``state`` as its ``(true, unknown)`` atom sets."""
    I, N, fired = state
    true, unknown = set(I), set()
    changed = True
    while changed:
        changed = False
        for i, law in enumerate(laws):
            if i in fired or value(law.body, true, unknown, X, exogenous) == F:
                continue
            for d in law.head:
                a = d.literal.atom
                if a in N:
                    continue
                if not d.literal.negated and a not in true and a not in unknown:
                    unknown.add(a)
                    changed = True
                elif d.literal.negated and extended and a in true:
                    true.discard(a)
                    unknown.add(a)
                    changed = True
    return true, unknown


def _applicable(laws, X, exogenous, state, extended: bool) -> list:
    """The applicable laws at ``state`` in index order, empty at a leaf;
    raises `Stuck` when some law is satisfied but none is applicable."""
    I = state[0]
    satisfied = tuple(i for i, law in enumerate(laws) if i not in state[2]
                      and value(law.body, I, (), X, exogenous) == T)
    if not satisfied:
        return []
    true, unknown = overestimate(laws, X, exogenous, state, extended)
    applicable = [i for i in satisfied
                  if value(laws[i].body, true, unknown, X, exogenous) == T]
    if not applicable:
        raise Stuck(state, satisfied)
    return applicable


def _children(law, i: int, state) -> list:
    """The ``(child, probability)`` of firing ``law``, index ``i``, at
    ``state``: one per head disjunct, in head order, and last the no-op
    with the probability that is left, if any."""
    I, N, fired = state
    out, rest = [], Fraction(1)
    for d in law.head:
        a, rest = d.literal.atom, rest - d.prob
        if d.literal.negated:
            out.append(((I - {a}, N | {a}, fired | {i}), d.prob))
        else:
            out.append(((I if a in N else I | {a}, N, fired | {i}), d.prob))
    if rest:
        out.append(((I, N, fired | {i}), rest))
    return out


ROOT = (frozenset(), frozenset(), frozenset())


def leaves(g, X: frozenset, extended: bool = True,
           budget: int = 20_000) -> list:
    """Every leaf of the canonical tree of the ground theory ``g`` under
    ``X``, in preorder, as ``(world, probability of its path)``.  Raises
    `Stuck` at the first stuck node and `TreeBudgetError` past ``budget``
    nodes."""
    laws, exogenous = g.laws, g.exogenous_atoms
    out: list = []
    nodes = 0

    def walk(state, p):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise TreeBudgetError(budget)
        applicable = _applicable(laws, X, exogenous, state, extended)
        if not applicable:
            out.append((state[0], p))
            return
        i = applicable[0]
        for child, q in _children(laws[i], i, state):
            walk(child, p * q)

    walk(ROOT, Fraction(1))
    return out


def sweep(g, X: frozenset, extended: bool = True, budget: int = 200_000) -> set:
    """Every distribution that some firing order of ``g`` under ``X``
    reaches: at each node every applicable law is fired in turn, not only
    the lowest-index one.  A distribution is a frozenset of ``(world,
    probability)`` pairs.  Equal nodes are walked once, so the first stuck
    node, raised as `Stuck`, is the first in preorder, following the
    applicable laws in index order; past ``budget`` nodes and mixes it raises
    `TreeBudgetError`."""
    laws, exogenous = g.laws, g.exogenous_atoms
    known: dict = {}  # node -> its set of distributions
    work = 0

    def mix(dist, sub, p) -> frozenset:
        acc = dict(dist)
        for world, q in sub:
            acc[world] = acc.get(world, 0) + p * q
        return frozenset(acc.items())

    def walk(state) -> set:
        nonlocal work
        if state in known:
            return known[state]
        work += 1
        applicable = _applicable(laws, X, exogenous, state, extended)
        reached = set() if applicable else {frozenset({(state[0], Fraction(1))})}
        for i in applicable:
            mixes = {frozenset()}
            for child, p in _children(laws[i], i, state):
                mixes = {mix(dist, sub, p) for dist in mixes for sub in walk(child)}
                work += len(mixes)
                if work > budget:
                    raise TreeBudgetError(budget)
            reached |= mixes
        known[state] = reached
        return reached

    return walk(ROOT)


def probability(dist: dict, phi, X: frozenset, exogenous) -> Fraction:
    """The mass of the worlds of ``dist`` where ground ``phi`` holds."""
    return sum((p for world, p in dist.items()
                if value(phi, world, (), X, exogenous) == T), Fraction(0))
