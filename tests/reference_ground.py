"""Straightforward grounding and stratification, kept as test references.

`cplogic.ground` compiles each law into a template of closures, interns
atoms, counts the exogenous universe, builds each law's outcome table with
integers and finds cycles over head atoms only, and the walk that compiles
a law also checks it.  The functions here do the same work the plain way:
`check_law` states the parser's law rules in a walk of its own,
`expand_formula` substitutes and expands node by node with a fresh
environment per constant, `ground` lists the exogenous universe in full,
`outcomes` adds up a head with `Fraction`s, and `stratification_report`
runs Kosaraju over every atom of the dependency graph.  The tests check
that both give equal values, and raise equal errors.
"""

import itertools
from fractions import Fraction

from cplogic.ground import GroundTheory, StratificationReport
from cplogic.syntax import (FALSE, TRUE, And, Atom, CPLaw, EffectLiteral,
                            Exists, ForAll, HeadDisjunct, Not, Or, Truth,
                            TheoryError, Var, formula_atom_polarities,
                            law_atoms, substitute_atom)


def check_law(law, t, arity):
    """Raise `TheoryError` unless ``law`` keeps the parser's law rules in
    theory ``t``: binders first, then the head, then the body.  ``arity``
    maps each predicate declared or used in an earlier law to its arity
    and gains those that ``law`` uses first."""
    names = [v for v, _ in law.vars]
    for k, v in enumerate(names):
        if v in names[:k]:
            raise TheoryError(f"law variable {v!r} bound twice")
    for _, d in law.vars:
        if d not in t.domains:
            raise TheoryError(f"undeclared domain {d!r}")
    if not law.head:
        raise TheoryError("law has an empty head")
    for k, disj in enumerate(law.head):
        if isinstance(disj.prob, bool) or not isinstance(disj.prob, (int, Fraction)):
            raise TheoryError(f"probability {disj.prob!r} is not an int or a Fraction")
        atom = disj.literal.atom
        check_atom(atom, set(names), t, arity)
        if atom.predicate in t.exogenous:
            raise TheoryError(f"exogenous atom {atom} may not occur in a head")
        if atom in [d.literal.atom for d in law.head[:k]]:
            raise TheoryError(f"atom {atom} appears in two disjuncts of the same head")
    check_formula(law.body, set(names), t, arity)


def check_atom(atom, bound, t, arity):
    for a in atom.args:
        if isinstance(a, Var) and a.name not in bound:
            raise TheoryError(f"unbound variable {a.name!r}")
        if not isinstance(a, Var) and not any(a in c for c in t.domains.values()):
            raise TheoryError(f"undeclared constant {a!r} (not in any domain)")
    first = arity.setdefault(atom.predicate, len(atom.args))
    if first != len(atom.args):
        raise TheoryError(f"predicate {atom.predicate!r} used with arity "
                          f"{len(atom.args)}, previously {first}")


def check_formula(phi, bound, t, arity):
    match phi:
        case Atom():
            check_atom(phi, bound, t, arity)
        case Truth():
            pass
        case Not(sub):
            check_formula(sub, bound, t, arity)
        case And(parts) | Or(parts):
            if len(parts) < 2:
                raise TheoryError("conjunction/disjunction needs at least two parts")
            for p in parts:
                check_formula(p, bound, t, arity)
        case ForAll(var, dom, sub) | Exists(var, dom, sub):
            if dom not in t.domains:
                raise TheoryError(f"undeclared domain {dom!r}")
            check_formula(sub, bound | {var}, t, arity)
        case _:
            raise TheoryError(f"not a formula: {phi!r}")


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
