"""Source-to-source transforms: interventions and negative-head elimination.

An intervention surgically disables the causal mechanisms that determine an
atom, optionally substituting a bare fact; it can also be internalized as an
ordinary negative-head law guarded by a fresh exogenous trigger, so the same
theory serves both the intervened and the untouched regime.  The
``tau_not`` transform compiles negative head literals away entirely, into
fresh cause/block predicates plus one bridging law per affected predicate.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .ground import check_theory, law_instances
from .syntax import (And, Atom, CPLaw, EffectLiteral, Exists, ForAll, Formula,
                     HeadDisjunct, Not, Or, Theory, TRUE, Var,
                     endogenous_signature, substitute_formula)


class TransformError(Exception):
    pass


class SharedHeadError(TransformError):
    """The intervened atom shares a multi-outcome head with another atom."""


class NameClashError(TransformError):
    pass


def intervene(t: Theory, literal: EffectLiteral) -> Theory:
    """Remove every causal mechanism for the literal's atom; for a positive
    intervention, add the bare fact afterwards.  The atom is ground and
    endogenous: ``~A`` forces it false, ``A`` forces it true.

    Removal is instance-exact: a law with an instance whose head mentions the
    target atom is instantiated, and only those instances are dropped; any
    other law is kept as written.  Raises `SharedHeadError` when the atom
    shares a multi-outcome head with another atom, where removal has no clear
    meaning.

    The result is checked as one theory of the kept laws, the laws whose
    instances it holds and the added fact: an instance of a checked law is
    checked, unless a constant it substitutes is captured by a quantifier
    of the same name, so such instances are checked themselves.
    """
    target = literal.atom
    if not target.is_ground():
        raise TransformError(f"intervention atom {target} is not ground")
    if target.predicate in t.exogenous:
        raise TransformError(f"cannot intervene on exogenous atom {target}")

    new_laws: list[CPLaw] = []
    checked: list[CPLaw] = []
    for law in t.laws:
        instances = (list(law_instances(law, t.domains))
                     if any(d.literal.atom.predicate == target.predicate for d in law.head)
                     else [])
        if not any(d.literal.atom == target for _, head in instances for d in head):
            new_laws.append(law)
            checked.append(law)
        elif len(law.head) > 1:
            raise SharedHeadError(
                f"atom {target} shares a multi-outcome head with other atoms; "
                "removing the whole law would also silence them")
        else:  # substitute only: the result is a theory, so body quantifiers stay
            kept = [CPLaw((), head, substitute_formula(law.body, env))
                    for env, head in instances if head[0].literal.atom != target]
            new_laws.extend(kept)
            if _quantified(law.body).intersection(
                    c for _, d in law.vars for c in t.domains[d]):
                checked.extend(kept)
            elif kept:
                checked.append(law)

    if not literal.negated:
        fact = CPLaw((), (HeadDisjunct(EffectLiteral(False, target), Fraction(1)),), TRUE)
        new_laws.append(fact)
        checked.append(fact)
    check_theory(Theory(t.domains, t.exogenous, tuple(checked)))
    return Theory(dict(t.domains), dict(t.exogenous), tuple(new_laws))


def _quantified(phi: Formula) -> set:
    """The variables that quantifiers in ``phi`` bind."""
    match phi:
        case Not(sub):
            return _quantified(sub)
        case And(parts) | Or(parts):
            return set().union(*map(_quantified, parts))
        case ForAll(var, _, sub) | Exists(var, _, sub):
            return {var} | _quantified(sub)
    return set()


def internalize(t: Theory, atom: Atom, trigger: str) -> Theory:
    """Add ``~atom <- trigger`` with ``trigger`` a fresh exogenous switch.

    With the trigger set, the theory behaves exactly like the negative
    intervention on ``atom``; with it unset, like the original theory.
    """
    if not atom.is_ground():
        raise TransformError(f"atom {atom} is not ground")
    if atom.predicate in t.exogenous:
        raise TransformError(f"{atom} is exogenous, nothing to internalize")
    vocabulary = set(t.exogenous) | set(endogenous_signature(t))
    if trigger in vocabulary:
        raise NameClashError(f"trigger predicate {trigger!r} already in the vocabulary")
    law = CPLaw((), (HeadDisjunct(EffectLiteral(True, atom), Fraction(1)),),
                Atom(trigger))
    result = Theory(dict(t.domains), {**t.exogenous, trigger: 0}, t.laws + (law,))
    check_theory(result)
    return result


def negative_head_predicates(t: Theory) -> frozenset:
    return frozenset(d.literal.atom.predicate
                     for law in t.laws for d in law.head if d.literal.negated)


_POS_PREFIX = "c_pos__"
_NEG_PREFIX = "c_neg__"
_UNIVERSE_DOMAIN = "c_dom__all"


def tau_not(t: Theory) -> tuple[Theory, dict]:
    """Eliminate negative head literals.

    For every predicate ``P`` with a negative head occurrence, head literals
    ``P(a)`` / ``~P(a)`` become fresh positive literals ``c_pos__P(a)`` /
    ``c_neg__P(a)``, and one bridging law

        P(x) <- c_pos__P(x), ~c_neg__P(x)

    reconstructs ``P``.  Bridging variables range over the union of all
    declared constants; the extra instances are inert because their cause
    atom can never become true.  Returns the transformed theory and the
    predicate map ``P -> (c_pos__P, c_neg__P)``.
    """
    affected = negative_head_predicates(t)
    if not affected:
        return t, {}

    sig = endogenous_signature(t)
    vocabulary = set(t.exogenous) | set(sig)
    taumap: dict = {}
    for pred in sorted(affected):
        pos, neg = _POS_PREFIX + pred, _NEG_PREFIX + pred
        for fresh in (pos, neg):
            if fresh in vocabulary:
                raise NameClashError(f"fresh predicate {fresh!r} already in the vocabulary")
            vocabulary.add(fresh)
        taumap[pred] = (pos, neg)

    domains = dict(t.domains)
    needs_universe = any(sig[p] > 0 for p in affected)
    if needs_universe:
        if _UNIVERSE_DOMAIN in domains:
            raise NameClashError(f"domain {_UNIVERSE_DOMAIN!r} already declared")
        domains[_UNIVERSE_DOMAIN] = tuple(
            sorted(set(itertools.chain.from_iterable(t.domains.values()))))

    def rename(lit: EffectLiteral) -> EffectLiteral:
        if lit.atom.predicate not in taumap:
            return lit
        pos, neg = taumap[lit.atom.predicate]
        return EffectLiteral(False, Atom(neg if lit.negated else pos, lit.atom.args))

    laws = [CPLaw(law.vars,
                  tuple(HeadDisjunct(rename(d.literal), d.prob) for d in law.head),
                  law.body)
            for law in t.laws]
    for pred in sorted(affected):
        pos, neg = taumap[pred]
        arity = sig[pred]
        binders = tuple((f"x{i + 1}", _UNIVERSE_DOMAIN) for i in range(arity))
        args = tuple(Var(v) for v, _ in binders)
        bridge = CPLaw(
            binders,
            (HeadDisjunct(EffectLiteral(False, Atom(pred, args)), Fraction(1)),),
            And((Atom(pos, args), Not(Atom(neg, args)))))
        laws.append(bridge)

    result = Theory(domains, dict(t.exogenous), tuple(laws))
    check_theory(result)
    return result, taumap
