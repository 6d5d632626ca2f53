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

from .ground import check_theory
from .syntax import (And, Atom, CPLaw, EffectLiteral, HeadDisjunct, Not,
                     Theory, TRUE, Var, endogenous_signature, substitute_atom,
                     substitute_formula)


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
    other law is kept as written.  An instance's body is substituted, not
    expanded, and a quantified variable that would capture a substituted
    constant is renamed (``b`` to ``b1``).  Raises `SharedHeadError` when the
    atom shares a multi-outcome head with another atom, where removal has no
    clear meaning.  The input theory and the added fact are checked
    together, so the result, made of their instances, is well formed.
    """
    target = literal.atom
    if not target.is_ground():
        raise TransformError(f"intervention atom {target} is not ground")
    if target.predicate in t.exogenous:
        raise TransformError(f"cannot intervene on exogenous atom {target}")
    fact = () if literal.negated else (
        CPLaw((), (HeadDisjunct(EffectLiteral(False, target), Fraction(1)),), TRUE),)
    check_theory(Theory(t.domains, t.exogenous, t.laws + fact))

    new_laws: list[CPLaw] = []
    for law in t.laws:
        names = [v for v, _ in law.vars]
        envs = ([dict(zip(names, values))
                 for values in itertools.product(*(t.domains[d] for _, d in law.vars))]
                if any(d.literal.atom.predicate == target.predicate for d in law.head)
                else [])
        heads = [[substitute_atom(d.literal.atom, env) for d in law.head] for env in envs]
        if not any(target in head for head in heads):
            new_laws.append(law)
        elif len(law.head) > 1:
            raise SharedHeadError(
                f"atom {target} shares a multi-outcome head with other atoms; "
                "removing the whole law would also silence them")
        else:  # substitute only: the result is a theory, so body quantifiers stay
            (d,) = law.head
            new_laws.extend(
                CPLaw((), (HeadDisjunct(EffectLiteral(d.literal.negated, head), d.prob),),
                      substitute_formula(law.body, env))
                for env, (head,) in zip(envs, heads) if head != target)
    return Theory(dict(t.domains), dict(t.exogenous), tuple(new_laws) + fact)


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
