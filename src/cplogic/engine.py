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

States are classified against a `_Program`: the ground theory compiled once
per X, and kept on the `GroundTheory` itself.  Atoms become bits, each
body a Kleene evaluator over a pair of bit masks with X folded in, and each
head atom carries the laws whose bodies read it.  `compute_U` is a
worklist fixpoint over that index; the two-valued body test and the U gate
run the same compiled bodies.

All probabilities are exact rationals; distributions sum to exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .ground import GroundTheory, NormalizedLaw, expand_formula, normalize
from .syntax import And, Atom, EffectLiteral, Formula, Not, Or, formula_atoms
# bench/tracing.py counts `holds` and `kleene_eval` calls at this import
# site, so both stay bound here.
from .threeval import ThreeValuedInterp, UnboundAtomError, holds, kleene_eval


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


class _Program:
    """A ground theory's laws compiled for one X.

    Endogenous atom k, in ``str`` order, is bit ``1 << k``; a set of atoms
    is the sum of their bits, and a three-valued interpretation is a pair of
    masks ``(t, u)`` with every other atom f.  ``bodies[i](t, u)`` is law
    i's Kleene value, 0/1/2 for f/u/t, with X's atoms already folded in.
    ``heads[i]`` has one ``(negated, bit, readers)`` per head disjunct,
    ``readers`` being the laws whose compiled bodies read that atom.
    ``live`` lists the laws whose bodies X does not make false outright.
    ``last_U`` is the latest U built by `compute_U` with its masks.
    """

    __slots__ = ("atoms", "bit", "bodies", "heads", "live", "last_U")

    def __init__(self, g: GroundTheory, X: frozenset):
        self.atoms = tuple(sorted(g.endogenous_atoms, key=str))
        self.bit = {a: 1 << k for k, a in enumerate(self.atoms)}
        compiled = [_compile_body(law.body, self.bit, X, g.exogenous_atoms)
                    for law in g.laws]
        self.bodies = tuple(body for body, _ in compiled)
        self.live = tuple(i for i, (body, _) in enumerate(compiled)
                          if body is not _FALSE)
        readers: dict = {}
        for i, (_, reads) in enumerate(compiled):
            for b in _bits(reads):
                readers.setdefault(b, []).append(i)
        self.heads = tuple(
            tuple((d.literal.negated, self.bit[d.literal.atom],
                   tuple(readers.get(self.bit[d.literal.atom], ())))
                  for d in law.head)
            for law in g.laws)
        self.last_U = (None, 0, 0)

    def mask(self, atoms) -> int:
        return sum(map(self.bit.__getitem__, atoms))

    def atoms_of(self, mask: int) -> frozenset:
        atoms = self.atoms
        return frozenset(atoms[b.bit_length() - 1] for b in _bits(mask))

    def overestimate(self, state: ExecState, mode: UMode) -> tuple[int, int]:
        """The ``(t, u)`` masks of U at ``state``, by worklist propagation."""
        bodies, heads, fired = self.bodies, self.heads, state.fired
        t, u = self.mask(state.true_atoms), 0
        pinned = self.mask(state.negated)
        extended = mode is UMode.EXTENDED
        queue = []  # laws whose body is not f, heads not yet propagated
        waiting = set()  # unfired laws whose body is f so far
        for i in self.live:
            if i not in fired:
                if bodies[i](t, 0):
                    queue.append(i)
                else:
                    waiting.add(i)
        # Atoms only move towards u, and Kleene evaluation is monotone in
        # that direction, so a body that is not f stays so and each law's
        # heads need propagating once.
        while queue:
            for negated, b, readers in heads[queue.pop()]:
                if b & pinned:
                    continue
                if negated:
                    if not (extended and t & b):
                        continue
                    t ^= b
                elif (t | u) & b:
                    continue
                u |= b
                for j in readers:
                    if j in waiting and bodies[j](t, u):
                        waiting.discard(j)
                        queue.append(j)
        return t, u


def _bits(mask: int):
    """The single-bit masks whose sum is ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _compile_body(phi: Formula, bit: dict, X: frozenset, exogenous: frozenset):
    """Kleene evaluator of ground ``phi`` over ``(t, u)`` masks, plus the
    mask of the endogenous atoms it reads once X is folded in.

    Atoms outside ``bit`` and truth constants are read by `kleene_eval`
    itself, so X is interpreted, and an unbound atom rejected, exactly as
    there.  A part that X alone decides is dropped from its connective or
    decides it, and the literals of a connective are tested as two masks.
    """
    reads = 0

    def junction(conj, pos, neg, subs):
        nonlocal reads
        reads |= pos | neg
        return _junction(conj, pos, neg, subs)

    def comp(phi):
        # 0 or 2 when X decides phi; the masks (pos, neg) when phi is a
        # single literal, A as (bit of A, 0) and ~A as (0, bit of A); else
        # a function of (t, u)
        match phi:
            case Atom() if phi in bit:
                return bit[phi], 0
            case Not(sub):
                e = comp(sub)
                if isinstance(e, int):
                    return 2 - e
                if isinstance(e, tuple):
                    return e[1], e[0]
                return lambda t, u: 2 - e(t, u)
            case And(parts) | Or(parts):
                conj = isinstance(phi, And)
                unit = 2 if conj else 0
                pos = neg = 0
                subs = []
                for p in parts:
                    e = comp(p)
                    if isinstance(e, tuple):
                        pos |= e[0]
                        neg |= e[1]
                    elif not isinstance(e, int):
                        subs.append(e)
                    elif e != unit:
                        return e
                lits = pos | neg
                if subs:
                    return subs[0] if len(subs) == 1 and not lits \
                        else junction(conj, pos, neg, subs)
                if not lits:
                    return unit
                if lits & (lits - 1) or pos & neg:  # not a single literal
                    return junction(conj, pos, neg, [])
                return pos, neg
        return kleene_eval(phi, _NO_ATOMS, X, exogenous).value

    body = comp(phi)
    if isinstance(body, int):
        return (_TRUE if body else _FALSE), 0
    if isinstance(body, tuple):
        body = junction(True, *body, [])
    return body, reads


_NO_ATOMS = ThreeValuedInterp(frozenset())


def _TRUE(t, u):
    return 2


def _FALSE(t, u):
    return 0


def _junction(conj: bool, pos: int, neg: int, subs: list):
    """Kleene value of the conjunction (``conj``) or disjunction of the
    literals ``A`` for A in ``pos``, ``~A`` for A in ``neg`` and the
    evaluators ``subs``."""
    if conj:
        def lits(t, u):
            if pos & ~(t | u) or neg & t:
                return 0
            return 1 if pos & ~t or neg & u else 2
    else:
        def lits(t, u):
            if pos & t or neg & ~(t | u):
                return 2
            return 1 if (pos | neg) & u else 0
    if not subs:
        return lits
    if pos | neg:
        subs = [lits, *subs]
    if conj:
        def ev(t, u):
            v = 2
            for s in subs:
                w = s(t, u)
                if w < v:
                    if not w:
                        return 0
                    v = w
            return v
    else:
        def ev(t, u):
            v = 0
            for s in subs:
                w = s(t, u)
                if w > v:
                    if w == 2:
                        return 2
                    v = w
            return v
    return ev


def _program(g: GroundTheory, X: frozenset) -> _Program:
    """``g`` compiled for ``X``, memoized in ``g``'s one slot for it."""
    memo = g._compiled
    if memo is not None and (memo[0] is X or memo[0] == X):
        return memo[1]
    prog = _Program(g, X)
    object.__setattr__(g, "_compiled", (X, prog))
    return prog


def compute_U(g: GroundTheory, X: frozenset, state: ExecState,
              mode: UMode = UMode.EXTENDED) -> ThreeValuedInterp:
    """Fixpoint overestimate of everything still causable below ``state``.

    Starts from the current world (t on I, f elsewhere) and downgrades to
    u: an atom may still be caused by an unfired law whose body is not yet
    ruled out, and (extended mode) a true atom may still be retracted by an
    unfired law with a matching negative head literal.  Retracted atoms (N)
    stay pinned at f.  The fixpoint is reached by worklist propagation over
    ``g``'s compiled program: every unfired body is evaluated once, each
    law whose body is not f has its heads propagated once, and an atom that
    changes re-evaluates only the still-f bodies that read it.
    `oracle.reference_U` computes the same fixpoint by rescanning.
    """
    prog = _program(g, X)
    t, u = prog.overestimate(state, mode)
    true_set = state.true_atoms
    if t.bit_count() != len(true_set):  # t is I less what was downgraded
        true_set = prog.atoms_of(t)
    interp = ThreeValuedInterp(g.endogenous_atoms, true_set, prog.atoms_of(u))
    prog.last_U = (interp, t, u)
    return interp


def satisfied_unfired(g: GroundTheory, X: frozenset, state: ExecState) -> tuple:
    """Unfired laws whose bodies hold in the current two-valued world."""
    prog = _program(g, X)
    t, bodies, fired = prog.mask(state.true_atoms), prog.bodies, state.fired
    return tuple(i for i in prog.live
                 if i not in fired and bodies[i](t, 0) == 2)


def _gate(prog: _Program, laws, u: ThreeValuedInterp) -> tuple:
    """Those of ``laws`` whose bodies are definitely true under ``u``."""
    last, t, uu = prog.last_U
    if last is not u:
        t, uu = prog.mask(u.true_set), prog.mask(u.unknown_set)
    return tuple(i for i in laws if prog.bodies[i](t, uu) == 2)


def applicable(g: GroundTheory, X: frozenset, state: ExecState,
               u: ThreeValuedInterp) -> tuple:
    """Laws allowed to fire: body true now and definitely true under ``u``."""
    return _gate(_program(g, X), satisfied_unfired(g, X, state), u)


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
            # compute_U compiles g on first use, so U's time includes it.
            app = _gate(_program(g, X), sat, u)
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
