"""Grounding over declared finite domains, head normalization, stratification.

Grounding replaces each law by one instance per assignment of its variables
and expands body quantifiers into finite conjunctions/disjunctions, so that
everything downstream works with variable-free laws only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Union

from .syntax import (And, Atom, CPLaw, EffectLiteral, Exists, ForAll, Formula,
                     HeadDisjunct, Not, Or, Theory, TheoryError, Truth, TRUE,
                     FALSE, check_law, format_atom_set,
                     formula_atom_polarities, formula_atoms, substitute_atom)


@dataclass(frozen=True)
class GroundTheory:
    """Variable-free laws plus the atom universes they mention.

    Law indices (positions in ``laws``) are the stable identifiers used for
    rule selection and for the fired-set of execution states.
    """

    laws: tuple[CPLaw, ...]
    endogenous_atoms: frozenset
    exogenous_atoms: frozenset
    exogenous_predicates: frozenset
    domains: dict
    # The engine's compiled form of ``laws`` for one X, as ``(X, program)``;
    # set on first use, so it lives exactly as long as this theory.
    _compiled: tuple | None = field(default=None, init=False, compare=False,
                                    repr=False)


def expand_formula(phi: Formula, env: dict, domains: dict) -> Formula:
    """Substitute ``env`` and expand quantifiers to finite connectives."""
    match phi:
        case Atom():
            return substitute_atom(phi, env)
        case Truth():
            return phi
        case Not(sub):
            return Not(expand_formula(sub, env, domains))
        case And(parts):
            return And(tuple(expand_formula(p, env, domains) for p in parts))
        case Or(parts):
            return Or(tuple(expand_formula(p, env, domains) for p in parts))
        case ForAll(var, dom, sub) | Exists(var, dom, sub):
            if dom not in domains:
                raise TheoryError(f"undeclared domain {dom!r}")
            parts = tuple(expand_formula(sub, {**env, var: c}, domains)
                          for c in domains[dom])
            if isinstance(phi, ForAll):
                return TRUE if not parts else (parts[0] if len(parts) == 1 else And(parts))
            return FALSE if not parts else (parts[0] if len(parts) == 1 else Or(parts))
    raise TypeError(f"not a formula: {phi!r}")


def law_instances(law: CPLaw, domains: dict):
    """Yield ``(env, ground head)`` per assignment of the law's binders.

    Assignments come in domain order; the body is left to the caller, which
    either expands its quantifiers or only substitutes ``env``.
    """
    for _, d in law.vars:
        if d not in domains:
            raise TheoryError(f"undeclared domain {d!r}")
    names = [v for v, _ in law.vars]
    for assignment in itertools.product(*(domains[d] for _, d in law.vars)):
        env = dict(zip(names, assignment))
        yield env, tuple(
            HeadDisjunct(EffectLiteral(disj.literal.negated,
                                       substitute_atom(disj.literal.atom, env)),
                         disj.prob)
            for disj in law.head)


def ground(t: Theory) -> GroundTheory:
    """Instantiate every law over its variables' domains, in declaration order."""
    for law in t.laws:
        check_law(law)
    laws = [CPLaw((), head, expand_formula(law.body, env, t.domains))
            for law in t.laws for env, head in law_instances(law, t.domains)]

    endo: set = set()
    exo: set = set()
    for law in laws:
        for disj in law.head:
            endo.add(disj.literal.atom)
        for atom in formula_atoms(law.body):
            (exo if atom.predicate in t.exogenous else endo).add(atom)
    # The exogenous universe comes from the declarations, not from mentions:
    # an interpretation X may set any ground exogenous atom, mentioned or not.
    constants = sorted(set(itertools.chain.from_iterable(t.domains.values())))
    for pred, arity in t.exogenous.items():
        for combo in itertools.product(constants, repeat=arity):
            exo.add(Atom(pred, combo))
    return GroundTheory(tuple(laws), frozenset(endo), frozenset(exo),
                        frozenset(t.exogenous), dict(t.domains))


# ---------------------------------------------------------------------------
# Head normalization
# ---------------------------------------------------------------------------

# In a normalized head the probabilities sum to exactly 1; when the source
# head summed below 1 the remainder goes to a final no-op outcome whose
# literal is None.

@dataclass(frozen=True)
class NormalizedLaw:
    outcomes: tuple  # of (EffectLiteral | None, Fraction)
    body: Formula
    index: int | None = None


def normalize(law: Union[CPLaw, NormalizedLaw], index: int | None = None) -> NormalizedLaw:
    """Pad the head with a no-op outcome so that outcome probabilities sum to 1."""
    if isinstance(law, NormalizedLaw):
        return law
    outcomes = [(d.literal, d.prob) for d in law.head]
    total = law.head_sum()
    if total > 1:
        raise TheoryError(f"head probabilities sum to {total} > 1")
    if total < 1:
        outcomes.append((None, 1 - total))
    return NormalizedLaw(tuple(outcomes), law.body, index)


# ---------------------------------------------------------------------------
# Stratification diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StratificationReport:
    """Whether any dependency cycle carries a negative edge.

    This is a sufficient-condition check only: theories flagged here may
    still execute fine, and the engine decides soundness dynamically.
    """

    stratified: bool
    offending_cycles: tuple  # of frozenset[Atom]
    negative_edges: tuple  # of (Atom, Atom)

    def describe(self) -> str:
        if self.stratified:
            return "stratified: yes"
        cycles = "; ".join(format_atom_set(scc) for scc in self.offending_cycles)
        return f"stratified: no (negation cycle through {cycles})"


def stratification_report(g: GroundTheory) -> StratificationReport:
    """Ground dependency graph: head atom -> body atom, negative when the body
    occurrence is negated or the head literal is a negative effect literal."""
    edges: dict = {}  # (A, B) -> negative?
    nodes: set = set()
    for law in g.laws:
        body_occ = list(formula_atom_polarities(law.body))
        for disj in law.head:
            a = disj.literal.atom
            nodes.add(a)
            for b, occ_negated in body_occ:
                nodes.add(b)
                negative = occ_negated or disj.literal.negated
                edges[(a, b)] = edges.get((a, b), False) or negative

    adj: dict = {n: [] for n in nodes}
    radj: dict = {n: [] for n in nodes}
    for (a, b) in edges:
        adj[a].append(b)
        radj[b].append(a)

    # Kosaraju
    order: list = []
    seen: set = set()
    for start in nodes:
        if start in seen:
            continue
        stack = [(start, iter(adj[start]))]
        seen.add(start)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    comp: dict = {}
    for start in reversed(order):
        if start in comp:
            continue
        stack = [start]
        comp[start] = start
        while stack:
            node = stack.pop()
            for nxt in radj[node]:
                if nxt not in comp:
                    comp[nxt] = start
                    stack.append(nxt)

    members: dict = {}
    for node, root in comp.items():
        members.setdefault(root, set()).add(node)

    bad_roots = set()
    neg_edges = []
    for (a, b), negative in edges.items():
        if negative:
            neg_edges.append((a, b))
            if comp[a] == comp[b]:
                bad_roots.add(comp[a])
    offending = tuple(frozenset(members[r]) for r in sorted(bad_roots, key=str))
    return StratificationReport(not offending, offending, tuple(neg_edges))
