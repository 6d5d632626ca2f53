"""Straightforward grounding and stratification, kept as test references.

`cplogic.ground` compiles each law into a template of closures, interns
atoms, counts the exogenous universe, builds each law's outcome table with
integers and finds cycles over head atoms only.  The functions here do the
same work the plain way: `expand_formula` substitutes and expands node by
node with a fresh environment per constant, `ground` lists the exogenous
universe in full, `outcomes` adds up a head with `Fraction`s, and
`stratification_report` runs Kosaraju over every atom of the dependency
graph.  The tests check that both give equal values.
"""

import itertools
from fractions import Fraction

from cplogic.ground import GroundTheory, StratificationReport
from cplogic.syntax import (FALSE, TRUE, And, Atom, CPLaw, EffectLiteral,
                            Exists, ForAll, HeadDisjunct, Not, Or, Truth,
                            TheoryError, check_law, formula_atom_polarities,
                            law_atoms, substitute_atom)


def expand_formula(phi, env, domains):
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


def law_instances(law, domains):
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


def ground(t):
    arity = dict(t.exogenous)
    for law in t.laws:
        check_law(law, t, arity)
    laws = [CPLaw((), head, expand_formula(law.body, env, t.domains))
            for law in t.laws for env, head in law_instances(law, t.domains)]

    endo = {atom for law in laws for atom in law_atoms(law)
            if atom.predicate not in t.exogenous}
    constants = sorted(set(itertools.chain.from_iterable(t.domains.values())))
    exo = {Atom(pred, combo) for pred, n in t.exogenous.items()
           for combo in itertools.product(constants, repeat=n)}
    return GroundTheory(tuple(laws), frozenset(endo), frozenset(exo),
                        dict(t.domains))


def outcomes(law):
    """The outcome table of a ground law, with `Fraction` arithmetic."""
    probs = [(d.literal, d.prob) for d in law.head]
    total = sum((d.prob for d in law.head), Fraction(0))
    if total < 1:
        probs.append((None, 1 - total))
    return tuple((outcome, p.numerator, p.denominator) for outcome, p in probs)


def stratification_report(g):
    """The full-graph report.  Its ``offending_cycles`` are sorted by the
    printed form of each component's Kosaraju root, which depends on set
    iteration order and so on the hash seed."""
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

    bad_roots = {comp[a] for (a, b), negative in edges.items()
                 if negative and comp[a] == comp[b]}
    offending = tuple(frozenset(members[r]) for r in sorted(bad_roots, key=str))
    return StratificationReport(not offending, offending)
