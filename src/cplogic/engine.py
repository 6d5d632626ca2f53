"""Probability-tree execution models and exact inference.

A theory executes by repeatedly firing laws whose bodies hold.  Firing is
gated twice: the body must be true in the current world, and it must also be
definitely true under a three-valued overestimate U of everything that could
still be caused further down the tree.  The second gate makes a body literal
``~A`` mean "A will never deviate from false", not merely "A is false right
now".  When a body holds in the current world but U cannot decide it, the
process is stuck and the theory has no semantics.

The second gate can only block a law that negation can reach.  U keeps
every atom that is true now at t, except, in extended mode, one that a live
negative head can retract, and only raises other atoms from f to u.  A body
that reads no atom under ``~`` is monotone in the order f < u < t, so if it
is true now it is t under U.  Such a law is *sure* in literal mode, and in
extended mode when its body also reads no retractable atom.  A state whose
satisfied laws are all sure fires them as they are; U is built only at the
other states, for the gate alone, and at every node of an execution tree.

One iterative fold, `_fold`, walks the reachable execution states children
first: it follows the outcome tables that the ground theory
built for its laws, classifies each distinct state once and raises
`SoundnessError`.  `build_execution_model` and `distribution` are folds
over it that follow the lowest-index applicable law per state;
`oracle.sweep_orders` is a fold that follows every applicable law, and so
checks that the firing order does not change the distribution.

States are classified against a `_Program`: the ground theory compiled once
per X, and kept on the `GroundTheory` itself.  Atoms become bits, each body
a Kleene evaluator over a pair of bit masks with X folded in, and one loop
over the live laws gives each head atom the laws whose bodies read it and
the signed graph from head atoms to the atoms their bodies read.  A dormant
law that X does not wake is neither walked nor has its body built
(`ground._woken`).  The same loop marks the sure laws of each mode.
`compute_U` is a worklist fixpoint over that index; the two-valued body
test and the U gate run the same compiled bodies.  `query`
runs only the live laws that reach its atoms, on a copy of that program,
when it is stratified; `_slice` reads both off that graph, so a query
builds none.

All probabilities are exact.  While the fold runs, a state's
sub-distribution is one integer denominator ``D`` and an integer numerator
per world, the numerators summing to ``D``; each law's outcome
probabilities enter as integer ``(num, den)`` pairs.  Mixing children puts
them over the ``lcm`` of their denominators, so no ``Fraction`` is built or
normalized per edge.  `distribution` converts each world to a `Fraction`
once, at the root, and checks that the distribution sums to exactly 1.
"""

from __future__ import annotations

from collections.abc import Set
from copy import copy
from enum import Enum
from fractions import Fraction
from math import lcm

from .ground import GroundTheory, _negation_cycles, _woken, expand_formula
from .syntax import (And, Atom, EffectLiteral, Formula, Not, Or, atom_names,
                     format_atom_set, formula_atoms, record)
# bench/tracing.py counts `holds` and `kleene_eval` calls at this import
# site, so both stay bound here.
from .threeval import (ThreeValuedInterp, UnboundAtomError, holds,
                       kleene_eval, kleene_junction)


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


@record
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
        return (f"I={format_atom_set(self.true_atoms)} "
                f"N={format_atom_set(self.negated)} "
                f"fired={sorted(self.fired)}")


@record
class ExecEdge:
    prob: Fraction
    outcome: EffectLiteral | None  # None is the no-op outcome
    law_index: int
    child: "ExecNode"


@record
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


class _Program:
    """A ground theory's laws compiled for one X.

    Endogenous atom k, in ``str`` order, is bit ``1 << k``; a set of atoms
    is the sum of their bits, and a three-valued interpretation is a pair of
    masks ``(t, u)`` with every other atom f.  ``bodies[i](t, u)`` is law
    i's Kleene value, 0/1/2 for f/u/t, with X's atoms already folded in,
    and ``reads[i]`` the masks it reads as `_compile_body` gives them.
    ``live`` lists the laws that may fire, in index order: those whose
    bodies X does not make false outright.  One loop over them builds
    ``heads[i]``, one ``(negated, bit, readers)`` per head disjunct of live
    law i (empty for any other), ``readers`` being the live laws whose bodies
    read that atom, and ``deps``, the graph ``{head bit: {read bit:
    negative}}``, negative when read under an odd number of ``~`` or when
    the head literal is negative; a query's slice shares both (`_slice`).
    ``sure[mode]`` holds the live laws that U cannot block in that mode:
    those whose bodies read no atom under an odd number of ``~``, and, in
    extended mode, no atom that a live negative head can retract.
    A dormant law, whose body `ground` found f at rest, that no atom of X
    wakes (`ground._woken`) gets `_FALSE` and reads nothing, as its compile
    would give, without its body being built or walked.
    An X outside the exogenous universe raises `ExogenousError`.
    """

    __slots__ = ("atoms", "bit", "bodies", "reads", "heads", "deps", "live", "sure")

    def __init__(self, g: GroundTheory, X: frozenset):
        extra = [a for a in X if a not in g.exogenous_atoms]
        if extra:
            names = ", ".join(atom_names(extra))
            raise ExogenousError(f"not in the exogenous universe: {names}")
        self.atoms = tuple(sorted(g.endogenous_atoms, key=str))
        self.bit = {a: 1 << k for k, a in enumerate(self.atoms)}
        dormant, woken = (g._wake[0], _woken(g, X)) if g._wake else ((), ())
        compiled = [_compile_body(law.body, self.bit, X, g.exogenous_atoms)
                    if i in woken or i not in dormant else (_FALSE, (0, 0))
                    for i, law in enumerate(g.laws)]
        self.bodies, self.reads = tuple(zip(*compiled)) or ((), ())
        self.live = tuple(i for i, body in enumerate(self.bodies)
                          if body is not _FALSE)
        self.heads = [()] * len(g.laws)
        readers: dict = {}  # bit -> its live readers; heads hold these lists
        self.deps = {}
        retractable = 0
        for i in self.live:
            pos, neg = self.reads[i]
            read = tuple(_bits(pos | neg))
            for r in read:
                readers.setdefault(r, []).append(i)
            head = []
            for d in g.laws[i].head:
                b, negated = self.bit[d.literal.atom], d.literal.negated
                head.append((negated, b, readers.setdefault(b, [])))
                out = self.deps.setdefault(b, {})
                for r in read:
                    out[r] = negated or bool(r & neg) or out.get(r, False)
                if negated:
                    retractable |= b
            self.heads[i] = tuple(head)
        positive = [i for i in self.live if not self.reads[i][1]]
        self.sure = {UMode.LITERAL: frozenset(positive),
                     UMode.EXTENDED: frozenset(
                         i for i in positive if not self.reads[i][0] & retractable)}

    def mask(self, atoms) -> int:
        """The sum of ``atoms``' bits; `UnboundAtomError` for a non-endogenous atom."""
        try:
            return sum(map(self.bit.__getitem__, atoms))
        except KeyError as exc:
            raise UnboundAtomError(f"atom {exc.args[0]} not in the endogenous universe") from None

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


def _compile_body(phi: Formula, bit: dict, X: frozenset, exogenous: Set):
    """Kleene evaluator of ground ``phi`` over ``(t, u)`` masks, and the
    endogenous atoms it reads once X is folded in, as the masks ``(pos,
    neg)`` of those under an even and an odd number of ``~``.

    An exogenous atom is decided by X.  Truth constants and unbound atoms
    are read by `kleene_eval` itself, so they are interpreted, and an
    unbound atom rejected, exactly as there.  A part that X alone decides
    is dropped from its connective or decides it, and the literals of a
    connective are tested as two masks.
    """
    reads = [0, 0]
    body = _comp(phi, bit, X, exogenous, reads, False)
    if isinstance(body, int):
        return (_TRUE if body else _FALSE), (0, 0)
    if isinstance(body, tuple):
        body = _junction(True, *body, [], reads, False)
    return body, tuple(reads)


def _comp(phi: Formula, bit: dict, X: frozenset, exogenous: Set, reads: list, negated: bool):
    """`_compile_body`'s walk: 0 or 2 when X decides ``phi``; the masks
    ``(pos, neg)`` when ``phi`` is a single literal, A as ``(bit of A, 0)``
    and ~A as ``(0, bit of A)``; else a function of ``(t, u)``.  ``phi`` is
    under an odd number of ``~`` when ``negated``."""
    match phi:
        case Atom():
            b = bit.get(phi)
            if b:
                return b, 0
            if phi in exogenous:
                return 2 if phi in X else 0
        case Not(sub):
            e = _comp(sub, bit, X, exogenous, reads, not negated)
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
                e = _comp(p, bit, X, exogenous, reads, negated)
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
                    else _junction(conj, pos, neg, subs, reads, negated)
            if not lits:
                return unit
            if lits & (lits - 1) or pos & neg:  # not a single literal
                return _junction(conj, pos, neg, [], reads, negated)
            return pos, neg
    return kleene_eval(phi, _NO_ATOMS, X, exogenous)


_NO_ATOMS = ThreeValuedInterp(frozenset())


def _TRUE(t, u):
    return 2


def _FALSE(t, u):
    return 0


def _junction(conj: bool, pos: int, neg: int, subs: list, reads: list, negated: bool):
    """Kleene value of the conjunction (``conj``) or disjunction of the
    literals ``A`` for A in ``pos``, ``~A`` for A in ``neg`` and the
    evaluators ``subs``; ``pos`` is added to ``reads[negated]`` and ``neg``
    to the other, as in `_compile_body`."""
    reads[negated] |= pos
    reads[not negated] |= neg
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
    return lambda t, u: kleene_junction(conj, (s(t, u) for s in subs))


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
    ``tests/reference_engine.py`` computes the same fixpoint by rescanning.
    """
    prog = _program(g, X)
    t, u = prog.overestimate(state, mode)
    return ThreeValuedInterp(g.endogenous_atoms, prog.atoms_of(t), prog.atoms_of(u))


def satisfied_unfired(g: GroundTheory, X: frozenset, state: ExecState) -> tuple:
    """Unfired laws whose bodies hold in the current two-valued world."""
    prog = _program(g, X)
    t, bodies, fired = prog.mask(state.true_atoms), prog.bodies, state.fired
    return tuple(i for i in prog.live
                 if i not in fired and bodies[i](t, 0) == 2)


def _gate(prog: _Program, laws, u: ThreeValuedInterp) -> tuple:
    """Those of ``laws`` whose bodies are definitely true under ``u``."""
    t, uu = prog.mask(u.true_set), prog.mask(u.unknown_set)
    return tuple(i for i in laws if prog.bodies[i](t, uu) == 2)


def applicable(g: GroundTheory, X: frozenset, state: ExecState,
               u: ThreeValuedInterp) -> tuple:
    """Laws allowed to fire: body true now and definitely true under ``u``."""
    return _gate(_program(g, X), satisfied_unfired(g, X, state), u)


def apply_disjunct(state: ExecState, index: int,
                   outcome: EffectLiteral | None) -> ExecState:
    """Successor state after law ``index`` fires with the given outcome.

    A negative effect literal retracts the atom and pins it; a positive one
    makes the atom true unless it was pinned; the no-op outcome only marks
    the law as fired.
    """
    fired = state.fired | {index}
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
    and returns the ones to branch on; every outcome of each is a child.
    When every satisfied unfired law is sure (`_Program`), they are the
    applicable laws and U is not built; otherwise `compute_U` builds U and
    `_gate` keeps the laws whose bodies are t under it; U goes nowhere
    else.  A state where some body holds but no law is applicable raises
    `SoundnessError`.  Once its children are done, ``combine(state,
    branches, path)`` gives the state's value: ``branches`` holds one
    ``(law index, [(outcome, num, den, child value), ...])`` per expanded
    law, the outcome's probability being ``num / den`` in lowest terms, and
    ``path`` the ``(law index, outcome)`` steps from the root.  Identical
    states are folded once and share their value.  The current path lives
    on an explicit stack, so its length is not bounded by the recursion
    limit.

    `bench/tracing.py` times `compute_U`, `satisfied_unfired` and
    `apply_disjunct` by patching this module's names, so the fold calls
    them through those names; `query`'s `compute_U` call at the state where
    every law has fired keeps a `compute_U` span in every query.
    """
    weights = g._outcomes
    memo: dict = {}  # finished state -> value
    # The current path: per state, the (law, outcome, num, den) edges to follow,
    # an iterator over those not yet visited, and the children so far.
    frames: list = []
    path: list = []  # (law index, outcome) steps into frames[1:]
    state = ExecState.initial()
    while True:
        if state is not None:
            # satisfied_unfired compiles g on first use, so its time includes it.
            sat = satisfied_unfired(g, X, state)
            prog = _program(g, X)
            app = sat if prog.sure[mode].issuperset(sat) \
                else _gate(prog, sat, compute_U(g, X, state, mode))
            chosen = expand(state, app)
            if sat and not app:
                raise SoundnessError(state, sat)
            edges = [(i, outcome, num, den)
                     for i in chosen for outcome, num, den in weights[i]]
            frames.append((state, edges, iter(edges), []))
        top, edges, todo, children = frames[-1]
        for i, outcome, _, _ in todo:
            state = apply_disjunct(top, i, outcome)
            children.append(state)
            if state not in memo:
                path.append((i, outcome))
                break
        else:
            frames.pop()
            branches: dict = {}
            for (i, outcome, num, den), child in zip(edges, children):
                branches.setdefault(i, []).append(
                    (outcome, num, den, memo[child]))
            value = combine(top, branches.items(), path)
            if not frames:
                return value
            memo[top] = value
            path.pop()
            state = None


def _lowest(_state, app):
    """`_fold`'s expand for one execution model: the lowest-index applicable law."""
    return app[:1]


def build_execution_model(g: GroundTheory, X: frozenset,
                          mode: UMode = UMode.EXTENDED) -> ExecNode:
    """Construct the canonical execution tree.

    At each node the lowest-index applicable law fires; the node gets one
    child per outcome of its head, the no-op outcome included.  A node with no
    satisfied unfired law is a leaf.  Identical states share one subtree
    object; `ExecNode.walk` still reads the result as a tree.  Every node
    carries its U, which this builder computes itself.  Raises
    `SoundnessError` when some body holds but every such law is undecidable
    under U.
    """
    def node(state, branches, _path):
        return ExecNode(state, compute_U(g, X, state, mode), tuple(
            ExecEdge(Fraction(num, den), outcome, i, child)
            for i, kids in branches for outcome, num, den, child in kids))

    return _fold(g, X, mode, _lowest, node)


class Distribution(dict):
    """Exact distribution over endogenous worlds (frozenset[Atom] -> Fraction)."""

    def sorted_items(self):
        return sorted(self.items(), key=lambda kv: atom_names(kv[0]))

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


def _mix(weighted) -> tuple[int, dict]:
    """Weighted sum of integer sub-distributions.

    Each ``(num, den, D, pairs)`` item is the sub-distribution that gives
    each ``(world, n)`` of ``pairs`` the probability ``n / D``, at weight
    ``num / den``.  The result is ``(L, {world: numerator})`` over the
    common denominator ``L``, the ``lcm`` of every ``den * D``; it is not
    reduced.
    """
    weighted = [(num, den * D, pairs) for num, den, D, pairs in weighted]
    L = lcm(*(d for _, d, _ in weighted))
    acc: dict = {}
    get = acc.get
    for num, d, pairs in weighted:
        scale = L // d * num
        for world, n in pairs:
            acc[world] = get(world, 0) + scale * n
    return L, acc


def distribution(g: GroundTheory, X: frozenset,
                 mode: UMode = UMode.EXTENDED) -> Distribution:
    """Exact leaf distribution of the canonical execution model.

    A sub-distribution depends only on its state (I, N, fired), so sharing
    identical states keeps the walk polynomial for the common
    diamond-shaped state spaces.  A state's value is ``(D, {world:
    numerator})``; only the root's is turned into `Fraction`s.
    """
    def mix(state, branches, _path):
        if not branches:
            return 1, {state.true_atoms: 1}
        ((_, kids),) = branches
        return _mix((num, den, D, nums.items())
                    for _, num, den, (D, nums) in kids)

    D, nums = _fold(g, X, mode, _lowest, mix)
    total = sum(nums.values())
    if total != D:
        raise ArithmeticError(
            f"leaf probabilities sum to {Fraction(total, D)}, not 1")
    return Distribution({world: Fraction(n, D) for world, n in nums.items()})


def query(g: GroundTheory, X: frozenset, phi: Formula,
          mode: UMode = UMode.EXTENDED) -> Fraction:
    """Probability mass of the worlds satisfying ground-expanded ``phi``, an
    atom of the theory's vocabulary that no law mentions being false.

    When the program compiled for X is stratified, a copy of it runs with only
    the live laws that reach ``phi``'s atoms (`_slice`): no other law changes
    what they read.  ``g``'s own memo is left as it was."""
    phi = expand_formula(phi, {}, g.domains)
    arity = g._arity or {a.predicate: len(a.args) for a in g.endogenous_atoms}
    constants = set().union(*g.domains.values())
    for atom in formula_atoms(phi):
        if atom not in g.endogenous_atoms and atom not in g.exogenous_atoms and (
                arity.get(atom.predicate) != len(atom.args)
                or not constants.issuperset(atom.args)):
            raise UnboundAtomError(f"unknown atom {atom}")
    # compute_U compiles g for X; with every law fired, U is cheap.  It is
    # also the query's one compute_U span, which bench/selftest.py expects.
    compute_U(g, X, ExecState(frozenset(), frozenset(), frozenset(range(len(g.laws)))))
    prog = _program(g, X)
    kept, stratified = _slice(prog, formula_atoms(phi))
    if stratified:
        prog = copy(prog)
        prog.live = kept
        g = copy(g)
        object.__setattr__(g, "_compiled", (X, prog))
    return distribution(g, X, mode).prob(phi, X)


def _slice(prog: _Program, atoms) -> tuple[tuple, bool | None]:
    """The live laws that can cause or retract one of ``atoms``, or an atom
    that such a law's compiled body reads, in index order; and, when those
    are not all the live laws, whether the live program is stratified, else
    None.  Both are read off the graph ``prog.deps`` that the compile built."""
    reached = {prog.bit[a] for a in atoms if a in prog.bit}
    todo = list(reached)
    while todo:
        new = prog.deps.get(todo.pop(), {}).keys() - reached
        reached |= new
        todo += new
    kept = tuple(i for i in prog.live
                 if any(b in reached for _, b, _ in prog.heads[i]))
    return kept, (None if len(kept) == len(prog.live)
                  else not _negation_cycles(prog.deps))
