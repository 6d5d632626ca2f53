"""Grounding over declared finite domains and a stratification diagnostic.

Grounding replaces each law by one instance per assignment of its binders
and expands body quantifiers into finite conjunctions and disjunctions, so
that everything downstream works with variable-free laws only.  One walk
over each law body (`_Compiler`) gives its template, a tree of small
closures over an environment from slots to constants that is instantiated
per binder assignment; its Kleene value at rest, with every exogenous atom
f and every other atom u; and its occurrence list, one ``(atom, negated,
args)`` per body atom that some instance keeps, each argument ``(None,
constant)`` or ``(slot, domain)``, slot j < ``len(law.vars)`` being binder
j.  Every ground atom is interned as it is built, in one table keyed by
predicate and arguments, so equal atoms are one object and the endogenous
atoms fall out of the table.

A law whose body is f at rest is dormant: f in every state unless X sets
one of its exogenous atoms.  Its instances get their heads at once and
their bodies when first read (`_DormantLaw`), and its occurrence list
stands in for the bodies: the endogenous occurrences are interned over
their domains (`_keys`), and each exogenous one is filed in a wake record
under its constants, from which `_woken` finds the instances an X wakes.
`ground` keeps each law with its occurrence list, and the stratification
report reads its edges off those lists.  The same walk holds each law to
the language's rules, stated once in `syntax.Rules`, so `check_theory`
runs it too; a ground theory builds each law's outcome table.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Set
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .syntax import (And, Atom, CPLaw, EffectLiteral, Exists, ForAll, Formula,
                     HeadDisjunct, Not, Or, ParseError, Rules, Theory, TheoryError,
                     Truth, TRUE, FALSE, Var, format_atom_set, parse_theory,
                     print_theory, record)
from .threeval import kleene_junction


class ExogenousUniverse(Set):
    """Every ground exogenous atom that an interpretation X may set.

    That is each declared exogenous predicate applied to every tuple of
    constants of the theory's domains.  The universe is counted, not
    listed: membership is tested against the declarations, and iteration
    builds the atoms one at a time, so ``exogenous R/3`` over 100 constants
    costs no memory for its million atoms.  It is counted when asked, and
    past `sys.maxsize` ``len`` raises `OverflowError` without computing it.
    """

    __slots__ = ("_arity", "_constants")

    def __init__(self, rules: Rules):
        self._arity = dict(rules.exogenous)
        self._constants = frozenset(rules.constants)

    def __contains__(self, atom) -> bool:
        return (isinstance(atom, Atom)
                and self._arity.get(atom.predicate) == len(atom.args)
                and self._constants.issuperset(atom.args))

    def __len__(self) -> int:
        c = len(self._constants)  # c ** n > sys.maxsize once c > 1 and n > 62: not formed
        total = sum(c ** n if c < 2 or n < 63 else sys.maxsize + 1 for n in self._arity.values())
        if total > sys.maxsize:
            raise OverflowError("more exogenous atoms than sys.maxsize")
        return total

    def count(self) -> str:
        """``len``, or past `sys.maxsize` one ``c^n`` term per predicate
        over its c constants (``2^64``)."""
        try:
            return str(len(self))
        except OverflowError:
            c = len(self._constants)
            return " + ".join(f"{c}^{n}" for n in self._arity.values())

    def __iter__(self):
        constants = sorted(self._constants)
        for pred, n in self._arity.items():
            for args in itertools.product(constants, repeat=n):
                yield Atom(pred, args)

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)  # the result of a set operation is listed

    def __repr__(self) -> str:
        return f"<{self.count()} exogenous atoms>"


@record
class GroundTheory:
    """Variable-free laws plus the atom universes they mention.

    Law indices (positions in ``laws``) are the stable identifiers used for
    rule selection and for the fired-set of execution states.
    ``exogenous_atoms`` is an `ExogenousUniverse` when built by `ground`;
    any set of atoms will do.  A probability outside (0, 1], or a head
    whose probabilities sum above 1, is rejected with `TheoryError` before
    any inference can mix its outcomes.
    """

    laws: tuple[CPLaw, ...]
    endogenous_atoms: frozenset
    exogenous_atoms: Set
    domains: dict
    # Per law, its outcome table: one ``(outcome, num, den)`` per head
    # disjunct, the probability ``num / den`` in lowest terms, plus the
    # no-op outcome ``None`` with the remainder when the head sums below 1.
    _outcomes: tuple = ()
    # The engine's compiled form of ``laws`` for one X, as ``(X, program)``;
    # set on first use, so it lives exactly as long as this theory.
    _compiled: tuple | None = None
    # Set by `ground`, and None in a copy built from the fields, which
    # may change ``laws``: the dormant laws and per exogenous
    # predicate ``{constants: [(binder domains, {binder values: law},
    # args)]}``, one entry per occurrence in a dormant schema (`ground`,
    # `_woken`), None making no law dormant; per law of the theory, in the
    # order that ``laws`` instantiates them, ``(law, occurrence list)``;
    # the arity of each predicate of the theory.
    _wake: tuple | None = None
    _schemas: tuple | None = None
    _arity: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "_outcomes", tuple(
            tuple(table) + _noop(table) for table in
            ([(d.literal, d.prob.numerator, d.prob.denominator) for d in law.head]
             for law in self.laws)))


def _noop(table: list) -> tuple:
    """The no-op outcome ``(None, num, den)`` that takes the remainder of
    the probabilities ``num / den`` of the outcomes ``(literal, num, den)``
    of ``table``, in lowest terms, or nothing when they sum to 1."""
    for _, n, q in table:
        if not 0 < n <= q:
            Rules().probability(Fraction(n, q))
    den = lcm(*(q for _, _, q in table))
    rest = den - sum(n * (den // q) for _, n, q in table)
    if rest < 0:
        Rules().head_sum(Fraction(den - rest, den))
    k = gcd(rest, den)
    return ((None, rest // k, den // k),) if rest else ()


class _Compiler:
    """Walks formulas over the domains of ``rules``, interning atoms in
    ``table``; an atom of an exogenous predicate is f at rest, any other u.

    Binders and quantifiers always keep ``rules``; when ``checked``, every
    rule holds, the arity map gaining each law's new predicates, and so does
    what printing hides: no unbound variable, `And` or `Or` of fewer than two
    parts, non-formula, empty head or probability not an `int` or `Fraction`.
    """

    __slots__ = ("rules", "table", "checked")

    def __init__(self, rules: Rules, table: dict, checked: bool = True):
        self.rules, self.table, self.checked = rules, table, checked

    def law(self, law: CPLaw) -> tuple:
        """``law``'s binder scope, its head (`head`), and its body's
        template, value at rest and occurrence list (`walk`)."""
        scope: dict = {}
        for j, (v, d) in enumerate(law.vars):
            consts = self.rules.domain(d)
            self.rules.bind(v, scope)
            scope[v] = (j, consts)
        head = self.head(law, scope)
        found: list = []
        template, rest = self.walk(law.body, scope, len(scope), False, found)
        return scope, head, template, rest, found

    def head(self, law: CPLaw, scope: dict) -> list:
        """Per disjunct of ``law``'s head, ``(negated, template, prob)``,
        the template a function of the binder values that returns the
        disjunct's atom, interned in ``table``."""
        if self.checked:
            if not law.head:
                raise TheoryError("law has an empty head")
            for d in law.head:
                if type(d.prob) not in (int, Fraction):
                    raise TheoryError(f"probability {d.prob!r} is not an int or a Fraction")
                self.check(d.literal.atom, scope)
                self.rules.effect(d.literal.atom)
            self.rules.distinct([d.literal.atom for d in law.head])
        return [(d.literal.negated, _atom_template(d.literal.atom, scope, self.table)[1],
                 d.prob) for d in law.head]

    def check(self, atom: Atom, scope: dict) -> None:
        """Hold ``atom`` to ``rules``; a variable ``scope`` does not bind is an error."""
        for a in atom.args:
            if isinstance(a, Var):
                if a.name not in scope:
                    raise TheoryError(f"unbound variable {a.name!r}")
            else:
                self.rules.constant(a)
        self.rules.predicate(atom.predicate, len(atom.args))

    def walk(self, phi: Formula, scope: dict, slot: int, negated: bool,
             found: list) -> tuple:
        """``phi``'s template, a function of ``env`` that returns its
        expansion, and its Kleene value at rest, 0/1/2 for f/u/t.  A
        quantifier over an empty domain is t if universal and f if not.
        ``scope`` maps each bound variable to its ``(slot, domain)`` and
        ``env`` each slot to its constant; ``slot`` is the next free slot.
        Each atom that some expansion keeps is appended to ``found`` as
        ``(atom, negated, args)``, ``negated`` when it sits under an odd
        number of negations and ``args`` as in `_atom_template`."""
        match phi:
            case Atom(pred):
                if self.checked:
                    self.check(phi, scope)
                args, template = _atom_template(phi, scope, self.table)
                found.append((phi, negated, args))
                return template, 0 if pred in self.rules.exogenous else 1
            case Truth(value):
                return (lambda env: phi), 2 * value
            case Not(sub):
                sub, rest = self.walk(sub, scope, slot, not negated, found)
                return (lambda env: Not(sub(env))), 2 - rest
            case And(parts) | Or(parts):
                if len(parts) < 2 and self.checked:
                    raise TheoryError("conjunction/disjunction needs at least two parts")
                node = type(phi)
                subs, rests = zip(*[self.walk(p, scope, slot, negated, found)
                                    for p in parts])
                return ((lambda env: node(tuple([s(env) for s in subs]))),
                        kleene_junction(node is And, rests))
            case ForAll(var, dom, sub) | Exists(var, dom, sub):
                consts = self.rules.domain(dom)
                universal = isinstance(phi, ForAll)
                kept = len(found)
                sub, rest = self.walk(sub, {**scope, var: (slot, consts)},
                                      slot + 1, negated, found)
                if not consts:  # no expansion keeps the body
                    del found[kept:]
                    empty = TRUE if universal else FALSE
                    return (lambda env: empty), 2 * universal
                node = And if universal else Or

                def quantified(env):
                    parts = []
                    for c in consts:
                        env[slot] = c
                        parts.append(sub(env))
                    return parts[0] if len(parts) == 1 else node(tuple(parts))
                return quantified, rest
        raise (TheoryError if self.checked else TypeError)(
            f"not a formula: {phi!r}")


def _atom_template(atom: Atom, scope: dict, table: dict) -> tuple:
    """``atom``'s arguments, each ``(slot, domain)`` for a variable in
    ``scope`` and ``(None, term)`` otherwise, and the function of ``env``
    that returns its instance, interned in ``table``."""
    pred, terms = atom.predicate, atom.args
    args = tuple([scope[a.name] if isinstance(a, Var) and a.name in scope
                  else (None, a) for a in terms])
    slots = [s for s, _ in args]
    interned = table.setdefault(pred, {})
    if slots.count(None) == len(slots):  # no bound variable: one key
        key = lambda env: terms
    elif None in slots:
        key = lambda env: tuple([c if s is None else env[s] for s, c in args])
    else:  # every argument a bound variable
        key = (itemgetter(*slots) if len(slots) > 1
               else lambda env, s=slots[0]: (env[s],))

    def instance(env):
        k = key(env)
        a = interned.get(k)
        if a is None:
            a = interned[k] = Atom(pred, k)
        return a
    return args, instance


def _keys(args: tuple, env: dict):
    """Every argument tuple of an occurrence's ``args``, with the slots in
    ``env`` set to its constants and every other slot ranging over its
    domain."""
    free = {s: dom for s, dom in args if s is not None and s not in env}
    env = dict(env)
    for combo in itertools.product(*free.values()):
        env.update(zip(free, combo))
        yield tuple(c if s is None else env[s] for s, c in args)


def _woken(g: GroundTheory, X) -> set:
    """The indices of the dormant laws of ``g`` whose bodies mention an
    atom of ``X``, found from ``g._wake`` without building a body.  An
    atom meets the occurrences that have its constants where they have
    constants, matches one when it gives each slot one constant of the
    slot's domain, and wakes the instances whose binders agree."""
    woken: set = set()
    for a in X:
        filed = g._wake[1].get(a.predicate, {})
        for constants in itertools.product(*[(c, None) for c in a.args]):
            for doms, instance, args in filed.get(constants, ()):
                env: dict = {}
                if all(s is None or (c in d and env.setdefault(s, c) == c)
                       for c, (s, d) in zip(a.args, args)):
                    binders = tuple(enumerate(doms))  # as slots 0, 1, ...
                    woken.update(map(instance.__getitem__, _keys(binders, env)))
    return woken


class _DormantLaw(CPLaw):
    """A ground law whose body is built from its schema's template, through
    the grounding's intern table, the first time it is read.  It equals and
    hashes as the `CPLaw` with the same fields."""

    def __init__(self, head: tuple, template, env: dict):
        object.__setattr__(self, "vars", ())
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "_build", (template, env))

    def __getattr__(self, name):
        if name != "body":
            raise AttributeError(name)
        template, env = self._build
        object.__setattr__(self, "body", template(env))
        return self.body

    def __eq__(self, other):
        if not isinstance(other, CPLaw):
            return NotImplemented
        return (self.vars, self.head, self.body) == (other.vars, other.head, other.body)

    __hash__ = CPLaw.__hash__


def expand_formula(phi: Formula, env: dict, domains: dict) -> Formula:
    """Substitute ``env`` and expand quantifiers to finite connectives."""
    scope = {v: (j, None) for j, v in enumerate(env)}
    template, _ = _Compiler(Rules(domains), {}, False).walk(phi, scope, len(scope), False, [])
    return template(dict(enumerate(env.values())))


# Called with the domains of a law's binders, in binder order: the binder
# values of each ground instance of the law, in the order of its instances.
# `_instances` and `stratification_report` both take the order from here.
_assignments = itertools.product


def _instances(scope: dict, head: list):
    """Per assignment of the binders in ``scope``, their values and the
    ground head of ``head``, a law's head as `_Compiler.head` gives it."""
    for values in _assignments(*(dom for _, dom in scope.values())):
        yield values, tuple([HeadDisjunct(EffectLiteral(negated, atom(values)), prob)
                             for negated, atom, prob in head])


def ground(t: Theory) -> GroundTheory:
    """Instantiate every law over its variables' domains, in declaration order.

    Every atom of a predicate not declared exogenous is endogenous.  The
    exogenous universe comes from the declarations, not from mentions: an
    interpretation X may set any ground exogenous atom, mentioned or not.
    A theory that breaks a rule of the language (`Rules`, and what
    `_Compiler` checks) is rejected with `TheoryError`, whether or not the
    law at fault has instances.
    """
    rules = Rules(t.domains, t.exogenous)
    table: dict = {}  # predicate -> {args: atom}, every atom the laws mention
    compiler = _Compiler(rules, table)
    expanded: set = set()  # (predicate, args) of the dormant occurrences interned
    wakers: dict = {pred: {} for pred in t.exogenous}  # the wake record
    dormant: list = []
    schemas: list = []
    laws: list = []
    for law in t.laws:
        scope, head, body, rest, found = compiler.law(law)
        schemas.append((law, found))
        # no exogenous predicate: a dormant body is false outright and rare
        asleep = bool(t.exogenous) and not rest
        first = len(laws)
        for values, head in _instances(scope, head):
            if len(head) > 1:
                rules.distinct([d.literal.atom for d in head])
            env = dict(enumerate(values))
            laws.append(_DormantLaw(head, body, env) if asleep
                        else CPLaw((), head, body(env)))
        if asleep and len(laws) > first:
            # its exogenous body atoms are listed, the others interned
            dormant.extend(range(first, len(laws)))
            doms = [dom for _, dom in scope.values()]
            instance = dict(zip(_assignments(*doms), range(first, len(laws))))
            for atom, _, args in found:
                if atom.predicate in wakers:
                    # filed under its constants, None for each slot
                    constants = tuple([c if s is None else None for s, c in args])
                    wakers[atom.predicate].setdefault(constants, []).append(
                        (doms, instance, args))
                elif (atom.predicate, args) not in expanded:
                    expanded.add((atom.predicate, args))
                    interned = table[atom.predicate]
                    for k in _keys(args, {}):
                        if k not in interned:
                            interned[k] = Atom(atom.predicate, k)
    endo = [a for pred, atoms in table.items() if pred not in t.exogenous
            for a in atoms.values()]
    g = GroundTheory(tuple(laws), frozenset(endo),
                     ExogenousUniverse(rules), dict(t.domains))
    for name, value in (("_wake", (frozenset(dormant), wakers)),
                        ("_schemas", tuple(schemas)), ("_arity", rules.arity)):
        object.__setattr__(g, name, value)
    return g


def check_theory(t: Theory) -> None:
    """Raise `TheoryError` unless ``t`` is well formed.

    A theory value is well formed exactly when its printed text parses back
    to it, so the parser's rules are the only ones; ``t`` is first held to
    them as `ground` holds it, which also catches what printing hides.
    """
    compiler = _Compiler(Rules(t.domains, t.exogenous), {})
    for law in t.laws:
        compiler.law(law)
    GroundTheory(t.laws, frozenset(), frozenset(), {})  # the range and sum rules
    try:
        parsed = parse_theory(print_theory(t))
    except ParseError as exc:
        raise TheoryError(exc.message) from None
    if parsed != t:
        raise TheoryError("theory does not print as itself")


# ---------------------------------------------------------------------------
# Stratification diagnostic
# ---------------------------------------------------------------------------

@record
class StratificationReport:
    """Whether any dependency cycle carries a negative edge.

    This is a sufficient-condition check only: theories flagged here may
    still execute fine, and the engine decides soundness dynamically.
    """

    stratified: bool
    offending_cycles: tuple  # of frozenset[Atom], in printed order

    def describe(self) -> str:
        if self.stratified:
            return "stratified: yes"
        cycles = "; ".join(format_atom_set(scc) for scc in self.offending_cycles)
        return f"stratified: no (negation cycle through {cycles})"


def stratification_report(g: GroundTheory) -> StratificationReport:
    """Ground dependency graph: head atom -> body atom, negative when the body
    occurrence is negated or the head literal is a negative effect literal.

    A strongly connected component is offending when one of its internal
    edges is negative; ``offending_cycles`` is sorted by printed form.  An
    atom in no head has no out-edges and lies on no cycle, so the graph has
    head atoms only.

    The edges come from the occurrence lists that `ground` kept with the
    law schemas, so no body is built: each occurrence of an atom that heads
    a law is expanded per binder assignment, once per assignment of the
    binders it mentions.  A ground theory built in code is its own schemas,
    and its laws are walked for their lists as `ground` walks a schema.
    """
    node: dict = {}  # head atom -> node number
    for law in g.laws:
        for disj in law.head:
            node.setdefault(disj.literal.atom, len(node))
    numbers: dict = {}  # predicate -> {args: node number}
    for a, j in node.items():
        numbers.setdefault(a.predicate, {})[a.args] = j
    deps: dict = {j: {} for j in node.values()}  # per head: {body head: negative}
    schemas = g._schemas
    if schemas is None:
        compiler = _Compiler(Rules(g.domains), {}, False)
        schemas = [(law, compiler.law(law)[4]) for law in g.laws]
    laws = iter(g.laws)
    for schema, found in schemas:
        body = [(numbers[a.predicate], negated, args, {}, sorted(
                    {s for s, _ in args if s is not None and s < len(schema.vars)}))
                for a, negated, args in found if a.predicate in numbers]
        for assignment in _assignments(*(g.domains[d] for _, d in schema.vars)):
            edges = []
            for number, negated, args, memo, slots in body:
                fixed = tuple(assignment[s] for s in slots)
                if fixed not in memo:
                    env = dict(zip(slots, fixed))
                    memo[fixed] = [j for j in map(number.get, _keys(args, env))
                                   if j is not None]
                edges.extend((j, negated) for j in memo[fixed])
            for disj in next(laws).head:
                out, negated_head = deps[node[disj.literal.atom]], disj.literal.negated
                for j, negated in edges:
                    out[j] = negated or negated_head or out.get(j, False)

    atoms = list(node)
    offending = tuple(sorted((frozenset(map(atoms.__getitem__, members))
                              for members in _negation_cycles(deps)), key=format_atom_set))
    return StratificationReport(not offending, offending)


def _negation_cycles(deps: dict) -> list:
    """By Kosaraju, the node sets of the strongly connected components with a
    negative internal edge, in the graph with an edge from each node n of
    ``deps`` to each node m in the dict ``deps[n]``, negative if ``deps[n][m]``."""
    radj: dict = {n: [] for n in deps}
    for n, out in deps.items():
        for m in out:
            if m in radj:
                radj[m].append(n)
    order: list = []
    seen: set = set()
    for start in deps:
        stack = [] if start in seen else [(start, iter(deps[start]))]
        seen.add(start)
        while stack:
            n, it = stack[-1]
            for m in it:
                if m in radj and m not in seen:
                    seen.add(m)
                    stack.append((m, iter(deps[m])))
                    break
            else:
                order.append(n)
                stack.pop()
    comp: dict = {}  # node -> the first node of its component
    for start in reversed(order):
        if start not in comp:
            comp[start] = start
            stack = [start]
            while stack:
                for m in radj[stack.pop()]:
                    if m not in comp:
                        comp[m] = start
                        stack.append(m)
    bad = {comp[n] for n, out in deps.items()
           for m, negative in out.items() if negative and comp.get(m) == comp[n]}
    return [{n for n, c in comp.items() if c == b} for b in bad]
