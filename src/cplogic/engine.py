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

Two walkers follow the outcome tables that the program compiles once per
live law and classify each distinct reachable state once, by one U, one
gate and one set of sure laws; a stuck state raises `SoundnessError`.
`_forward` pushes probability mass from the root one layer of states at a
time, for `distribution`, so `query` and `cpl dist`, `query` and `check`;
its `ExecState` records go through `_classify` and `apply_disjunct`,
whose calls `bench/tracing.py` counts (until ROADMAP item 1b).  `_fold`
folds integer keys ``(I, N, fired)`` children first, for
`build_execution_model` and `oracle.sweep_orders` (`cpl sweep`), which
follows every applicable law and so checks that the firing order does not
change the distribution; it builds an `ExecState` only for a tree node, a
divergence witness or a `SoundnessError`.

States are classified against a `_Program`: the ground theory compiled once
per X, and kept on the `GroundTheory` itself.  Atoms become bits, each body
a Kleene evaluator over a pair of bit masks with X folded in, and one loop
over the live laws gives each head atom the laws whose bodies read it, the
signed graph from head atoms to the atoms their bodies read, and each law's
outcome table and ``lcm``.  A dormant law that X does not wake is neither
walked nor has its body built (`ground._woken`).  The same loop marks the
sure laws of each mode.  `compute_U` is a worklist fixpoint over that
index; the two-valued body test and the U gate run the same compiled
bodies.  `query` runs only the live laws that reach its atoms, on a copy
of that program, when it is stratified; `_slice` reads both off that
graph, so a query builds none.

All probabilities are exact.  Each law's outcome probabilities enter as
integer ``(num, den)`` pairs, and `_forward` and the order sweep count
mass as integer numerators over denominators that only `_unit` forms,
one ``M`` per program, or one per state in the sweep.  No
``Fraction`` is built per edge; `_thaw` builds one per reported world,
once the numerators are checked to sum to exactly their denominator.
"""

from __future__ import annotations

from collections.abc import Set
from copy import copy
from enum import Enum
from fractions import Fraction
from math import lcm, prod

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
    read that atom; ``outcomes[i]``, ``(outcome, num, den, negated, bit)``
    per entry of ``g._outcomes[i]``, bit 0 for the no-op, and ``lcm[i]``,
    the ``lcm`` of its ``den``s; and ``deps``, the graph ``{head bit: {read
    bit: negative}}``, negative when read under an odd number of ``~`` or
    when the head literal is negative; a query's slice shares them all.
    ``sure[mode]`` holds the live laws that U cannot block in that mode:
    those whose bodies read no atom under an odd number of ``~``, and, in
    extended mode, no atom that a live negative head can retract.
    A dormant law, whose body `ground` found f at rest, that no atom of X
    wakes (`ground._woken`) gets `_FALSE` and reads nothing, as its compile
    would give, without its body being built or walked.
    An X outside the exogenous universe raises `ExogenousError`.
    """

    __slots__ = ("atoms", "bit", "bodies", "reads", "heads", "outcomes", "lcm",
                 "deps", "live", "sure")

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
        self.outcomes, self.lcm = [()] * len(g.laws), [1] * len(g.laws)
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
            self.outcomes[i] = tuple(
                (outcome, num, den, outcome is not None and outcome.negated,
                 0 if outcome is None else self.bit[outcome.atom])
                for outcome, num, den in g._outcomes[i])
            self.lcm[i] = lcm(*(den for _, _, den, _, _ in self.outcomes[i]))
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

    def state(self, I: int, N: int, F: int) -> ExecState:
        """The `ExecState` of the fold's key ``(I, N, F)``."""
        return ExecState(self.atoms_of(I), self.atoms_of(N),
                         frozenset(b.bit_length() - 1 for b in _bits(F)))

    def overestimate(self, t: int, pinned: int, fired: int, mode: UMode) -> tuple[int, int]:
        """The ``(t, u)`` masks of U at the state whose true atoms are ``t``,
        retracted atoms ``pinned`` and fired laws ``fired`` (bit ``1 << i``
        for law i).  Every unfired body is evaluated once, each law whose
        body is not f has its heads propagated once, and an atom that
        changes re-evaluates only the still-f bodies that read it."""
        bodies, heads, u = self.bodies, self.heads, 0
        extended = mode is UMode.EXTENDED
        queue = []  # laws whose body is not f, heads not yet propagated
        waiting = set()  # unfired laws whose body is f so far
        for i in self.live:
            if not fired >> i & 1:
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
    stay pinned at f.  `_Program.overestimate` reaches the fixpoint, the
    one U that every walker builds; ``tests/reference_engine.py``
    computes the same fixpoint by rescanning.
    """
    prog = _program(g, X)
    t, u = prog.overestimate(prog.mask(state.true_atoms), prog.mask(state.negated),
                             sum(1 << i for i in state.fired), mode)
    return ThreeValuedInterp(g.endogenous_atoms, prog.atoms_of(t), prog.atoms_of(u))


def satisfied_unfired(g: GroundTheory, X: frozenset, state: ExecState) -> tuple:
    """Unfired laws whose bodies hold in the current two-valued world."""
    prog = _program(g, X)
    t, bodies, fired = prog.mask(state.true_atoms), prog.bodies, state.fired
    return tuple(i for i in prog.live
                 if i not in fired and bodies[i](t, 0) == 2)


def _gate(bodies, laws, t: int, u: int) -> tuple:
    """Those of ``laws`` whose bodies are definitely true under the U whose
    masks are ``(t, u)``."""
    return tuple(i for i in laws if bodies[i](t, u) == 2)


def applicable(g: GroundTheory, X: frozenset, state: ExecState,
               u: ThreeValuedInterp) -> tuple:
    """Laws allowed to fire: body true now and definitely true under ``u``."""
    prog = _program(g, X)
    return _gate(prog.bodies, satisfied_unfired(g, X, state),
                 prog.mask(u.true_set), prog.mask(u.unknown_set))


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


def _classify(g: GroundTheory, X: frozenset, mode: UMode, state: ExecState) -> tuple:
    """The laws applicable at ``state``.

    When every satisfied unfired law is sure (`_Program`), they are the
    applicable laws and U is not built; otherwise `compute_U` builds U and
    `_gate` keeps the laws whose bodies are t under it.  Some body holding
    with no law applicable raises `SoundnessError`.  `_fold` decides the
    same on its masks.  `bench/tracing.py` patches `compute_U`,
    `satisfied_unfired` and `apply_disjunct` here, so `_forward` calls them
    through this module's names.
    """
    # satisfied_unfired compiles g on first use, so its time includes it.
    sat = satisfied_unfired(g, X, state)
    prog = _program(g, X)
    if prog.sure[mode].issuperset(sat):
        return sat
    u = compute_U(g, X, state, mode)
    app = _gate(prog.bodies, sat, prog.mask(u.true_set), prog.mask(u.unknown_set))
    if not app:
        raise SoundnessError(state, sat)
    return app


def _fold(g: GroundTheory, X: frozenset, mode: UMode, expand, combine):
    """Fold the execution states reachable from the root, children first.

    A state is the key ``(I, N, F)``: the masks of the true atoms, the
    retracted atoms and the fired laws (law i is bit ``1 << i``).  Each
    distinct state is classified once on its masks, and ``expand(key, app,
    u)`` sees it with its applicable laws and the ``(t, u)`` masks of U, or
    None where U was not built, and returns the laws to branch on; every
    outcome of each is a child.  Once its children are done,
    ``combine(key, branches, path)`` gives the state's value: ``branches``
    holds one ``(law index, [(outcome, num, den, child value), ...])`` per
    expanded law, the outcome's probability being ``num / den`` in lowest
    terms, and ``path`` the ``(law index, outcome)`` steps from the root.
    Identical states are folded once and share their value.  The walk is
    depth first, so it raises at the first stuck node in preorder; the
    current path lives on an explicit stack, so its length is not bounded
    by the recursion limit.
    """
    prog = _program(g, X)
    bodies, live, sure, outcomes = prog.bodies, prog.live, prog.sure[mode], prog.outcomes
    memo: dict = {}  # finished key -> value
    # The current path: per state, the (law, outcome, num, den, child) edges
    # to follow and an iterator over those not yet visited.
    frames: list = []
    path: list = []  # (law index, outcome) steps into frames[1:]
    key = (0, 0, 0)
    while True:
        if key is not None:
            I, N, F = key
            sat = tuple(i for i in live if not F >> i & 1 and bodies[i](I, 0) == 2)
            if sure.issuperset(sat):
                u, app = None, sat
            else:
                u = prog.overestimate(I, N, F, mode)
                app = _gate(bodies, sat, *u)
                if not app:
                    raise SoundnessError(prog.state(I, N, F), sat)
            edges = [(i, outcome, num, den, (I & ~b, N | b, F | 1 << i) if negated
                      else (I | b & ~N, N, F | 1 << i))
                     for i in expand(key, app, u)
                     for outcome, num, den, negated, b in outcomes[i]]
            frames.append((key, edges, iter(edges)))
        top, edges, todo = frames[-1]
        for i, outcome, _, _, key in todo:
            if key not in memo:
                path.append((i, outcome))
                break
        else:
            frames.pop()
            branches: dict = {}
            for i, outcome, num, den, child in edges:
                branches.setdefault(i, []).append((outcome, num, den, memo[child]))
            value = combine(top, branches.items(), path)
            if not frames:
                return value
            memo[top] = value
            path.pop()
            key = None


def _lowest(_key, app, _u):
    """`_fold`'s expand for one execution model: the lowest-index applicable law."""
    return app[:1]


def _forward(g: GroundTheory, X: frozenset, mode: UMode) -> tuple[int, dict]:
    """Push probability mass from the root to the leaves, one layer at a time.

    Every edge fires a law, so a state's layer is ``len(fired)``, and a
    layer holds each of its states once, ``{state: numerator}`` over the
    program's one denominator ``M`` (`_unit`).  The root holds ``M``; the
    lowest-index applicable law's outcome ``(outcome, m, den)`` adds ``m *
    (num // den)`` to the child, exactly, and a leaf adds its numerator to
    its world's total.  Returns ``(M, {world: numerator})``.  A layer meets
    the shallowest stuck state first, so `_fold` then raises at the first in
    preorder.
    """
    prog = _program(g, X)
    outcomes, M = prog.outcomes, _unit(prog, 0)
    layer, totals = {ExecState.initial(): M}, {}
    while layer:
        below: dict = {}
        for state, num in layer.items():
            try:
                app = _classify(g, X, mode, state)
            except SoundnessError:
                _fold(g, X, mode, _lowest, lambda *_: None)
                raise
            if not app:
                totals[state.true_atoms] = totals.get(state.true_atoms, 0) + num
                continue
            i = app[0]
            for outcome, m, den, _, _ in outcomes[i]:
                child = apply_disjunct(state, i, outcome)
                below[child] = below.get(child, 0) + m * (num // den)
        layer = below
    return M, totals


def build_execution_model(g: GroundTheory, X: frozenset,
                          mode: UMode = UMode.EXTENDED) -> ExecNode:
    """Construct the canonical execution tree.

    At each node the lowest-index applicable law fires; the node gets one
    child per outcome of its head, the no-op outcome included.  A node with no
    satisfied unfired law is a leaf.  Identical states share one subtree
    object; `ExecNode.walk` still reads the result as a tree.  Every node
    carries its U, built once: by `_fold` where it gates, else here.
    Raises `SoundnessError` when some body holds but every such law is
    undecidable under U.
    """
    prog = _program(g, X)
    us: dict = {}

    def lowest(key, app, u):
        us[key] = prog.overestimate(*key, mode) if u is None else u
        return _lowest(key, app, u)

    def node(key, branches, _path):
        t, u = us.pop(key)
        return ExecNode(prog.state(*key), ThreeValuedInterp(
            g.endogenous_atoms, prog.atoms_of(t), prog.atoms_of(u)), tuple(
            ExecEdge(Fraction(num, den), outcome, i, child)
            for i, kids in branches for outcome, num, den, child in kids))

    return _fold(g, X, mode, lowest, node)


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


def distribution(g: GroundTheory, X: frozenset,
                 mode: UMode = UMode.EXTENDED) -> Distribution:
    """Exact leaf distribution of the canonical execution model.

    `_forward` counts each world's mass over the program's one ``M``, and
    `_thaw` checks the counts and makes them `Fraction`s.
    """
    M, nums = _forward(g, X, mode)
    return _thaw(nums.items(), M, frozenset)  # worlds are atom sets already


def _unit(prog: _Program, fired: int) -> int:
    """The denominator of a state that has fired the laws ``fired``, the
    product of the ``lcm``s of ``prog``'s other live laws; `_forward`
    counts all mass over ``M = _unit(prog, 0)``.  A path fires each law at
    most once, so a numerator that law i's outcome scales, ``M`` times a
    sum of products of other laws' outcome probabilities, is a multiple of
    every denominator of law i's outcomes, and ``n // den`` is exact.  The
    order sweep never divides: a state's numerators are over its own unit,
    and firing law i scales a child's by ``num * (lcm_i // den)``, the
    parent's unit being the child's times ``lcm_i``."""
    return prod(prog.lcm[i] for i in prog.live if not fired >> i & 1)


def _thaw(pairs, M: int, world_of) -> Distribution:
    """The distribution that gives each ``(world, n)`` of ``pairs`` the
    probability ``n / M``, ``world_of(world)`` being its atom set, checked
    to sum to exactly 1."""
    total = sum(n for _, n in pairs)
    if total != M:
        raise ArithmeticError(f"leaf probabilities sum to {Fraction(total, M)}, not 1")
    return Distribution({world_of(world): Fraction(n, M) for world, n in pairs})


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
