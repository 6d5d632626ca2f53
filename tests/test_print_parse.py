"""print∘parse on random theory values, and `check_theory` resting on it.

A theory value is well formed exactly when its printed text parses back to
it.  The strategy below builds well-formed values directly (not through the
parser): domains, exogenous declarations, law binders, quantifiers, negative
heads, multi-outcome heads and connectives nested up to `MAX_NESTING`.
`ground` must reject what `check_theory` rejects for the theory's
vocabulary and probabilities, and name the culprit.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cplogic.ground import check_theory, ground
from cplogic.syntax import (KEYWORDS, MAX_NESTING, FALSE, TRUE, And, Atom,
                            CPLaw, EffectLiteral, Exists, ForAll,
                            HeadDisjunct, Not, Or, Theory, TheoryError, Var,
                            endogenous_signature, parse_theory, print_theory)

from helpers import apart_when_ground

# Disjoint name pools: a variable named like a constant would capture it.
PREDICATES = ("P", "Q", "R", "Go_2", "s")
CONSTANTS = ("a", "b", "c1", "B_")
VARIABLES = ("x", "y", "z_")
DOMAINS = ("d", "e", "dom2")
SMALL_DEPTH = 3  # depth of a random formula; each of its nodes opens ≤ 1 level


@st.composite
def theory_values(draw, apart: bool = False):
    """Theory values that print and parse; with ``apart``, only heads whose
    atoms stay distinct in every instance, which `ground` demands."""
    domains = {"d": tuple(draw(st.lists(st.sampled_from(CONSTANTS),
                                        min_size=1, max_size=3, unique=True)))}
    for name in draw(st.lists(st.sampled_from(DOMAINS[1:]), unique=True)):
        domains[name] = tuple(draw(st.lists(st.sampled_from(CONSTANTS),
                                            max_size=3, unique=True)))
    arity = {p: draw(st.integers(0, 2)) for p in PREDICATES}
    exo_names = draw(st.lists(st.sampled_from(PREDICATES), max_size=2, unique=True))
    exogenous = {p: arity[p] for p in exo_names}
    endogenous = [p for p in PREDICATES if p not in exogenous]
    constants = sorted({c for consts in domains.values() for c in consts})

    def atom(preds, bound):
        pred = draw(st.sampled_from(preds))
        terms = constants + [Var(v) for v in sorted(bound)]
        return Atom(pred, tuple(draw(st.sampled_from(terms)) for _ in range(arity[pred])))

    def formula(bound, depth):
        kind = draw(st.sampled_from(
            ("atom", "atom", "truth") + (("not", "and", "or", "quant") if depth else ())))
        if kind == "atom":
            return atom(PREDICATES, bound)
        if kind == "truth":
            return draw(st.sampled_from((TRUE, FALSE)))
        if kind == "not":
            return Not(formula(bound, depth - 1))
        if kind == "quant":
            var = draw(st.sampled_from(VARIABLES))
            cls = draw(st.sampled_from((ForAll, Exists)))
            return cls(var, draw(st.sampled_from(sorted(domains))),
                       formula(bound | {var}, depth - 1))
        parts = tuple(formula(bound, depth - 1) for _ in range(draw(st.integers(2, 3))))
        return And(parts) if kind == "and" else Or(parts)

    def law():
        names = draw(st.lists(st.sampled_from(VARIABLES), max_size=2, unique=True))
        binders = tuple((v, draw(st.sampled_from(sorted(domains)))) for v in names)
        bound = set(names)
        head_atoms = []
        for _ in range(draw(st.integers(1, 3))):
            a = atom(endogenous, bound)
            if (apart_when_ground(head_atoms + [a], binders, domains) if apart
                    else a not in head_atoms):
                head_atoms.append(a)
        nums = [draw(st.integers(1, 5)) for _ in head_atoms]
        den = max(sum(nums), draw(st.integers(1, 12)))
        head = tuple(HeadDisjunct(EffectLiteral(draw(st.booleans()), a), Fraction(k, den))
                     for a, k in zip(head_atoms, nums))
        body = draw(st.sampled_from((TRUE, None)))
        if body is None:
            body = formula(bound, SMALL_DEPTH)
            # Now and then a run of negations up to the nesting cap.
            for _ in range(draw(st.sampled_from((0, 0, MAX_NESTING - SMALL_DEPTH)))):
                body = Not(body)
        return CPLaw(binders, head, body)

    laws = tuple(law() for _ in range(draw(st.integers(0, 4))))
    return Theory(domains, exogenous, laws)


_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@_SETTINGS
@given(theory_values())
def test_print_parse_round_trips(t):
    assert parse_theory(print_theory(t)) == t
    check_theory(t)


def _fact(pred: str, arg=None) -> CPLaw:
    args = () if arg is None else (arg,)
    return CPLaw((), (HeadDisjunct(EffectLiteral(False, Atom(pred, args)), Fraction(1)),),
                 TRUE)


def _with_bad_name(t: Theory, bad: str, where: str) -> Theory:
    """``t`` plus one use of ``bad`` as a name of the kind ``where``."""
    if where == "domain":
        return replace(t, domains={**t.domains, bad: ()})
    if where == "constant":
        return replace(t, domains={**t.domains, "d": t.domains["d"] + (bad,)})
    if where == "exogenous":
        return replace(t, exogenous={**t.exogenous, bad: 0})
    if where == "predicate":
        return replace(t, laws=t.laws + (_fact(bad),))
    return replace(t, laws=t.laws + (replace(_fact("Fresh", Var(bad)), vars=((bad, "d"),)),))


def _with_bad_body(t: Theory, k: int, kind: str) -> Theory:
    """``t`` with law ``k``'s body made a one-part `And` or given an unbound `Var`."""
    law = t.laws[k]
    if kind == "two parts":
        body = And((law.body,))
    else:
        body = Or((law.body, Atom("Fresh", (Var("free"),))))
    return _put(t, k, replace(law, body=body))


def _insert(t: Theory, data, law: CPLaw, **changes) -> Theory:
    """``t`` with ``law`` put in at a drawn position, and ``changes``."""
    k = data.draw(st.integers(0, len(t.laws)))
    return replace(t, laws=t.laws[:k] + (law,) + t.laws[k:], **changes)


def _put(t: Theory, k: int, law: CPLaw, **changes) -> Theory:
    """``t`` with its law ``k`` replaced by ``law``, and ``changes``."""
    return replace(t, laws=t.laws[:k] + (law,) + t.laws[k + 1:], **changes)


def _with_defect(t: Theory, data, defect: str) -> tuple[Theory, str]:
    """``t`` with one ``defect`` put in, and the name `ground` must report."""
    c = t.domains["d"][0]
    if defect == "exogenous head":
        exogenous = t.exogenous or {"Exo": 0}
        pred = data.draw(st.sampled_from(sorted(exogenous)))
        lit = EffectLiteral(data.draw(st.booleans()), Atom(pred, (c,) * exogenous[pred]))
        if not t.laws:
            law = CPLaw((), (HeadDisjunct(lit, Fraction(1)),), TRUE)
            return _insert(t, data, law, exogenous=exogenous), pred
        k = data.draw(st.integers(0, len(t.laws) - 1))
        head = t.laws[k].head
        law = replace(t.laws[k], head=(replace(head[0], literal=lit),) + head[1:])
        return _put(t, k, law, exogenous=exogenous), pred
    if defect == "arity":
        pred = data.draw(st.sampled_from(PREDICATES))
        n = {**endogenous_signature(t), **t.exogenous}.get(pred, 0)
        body = And((Atom(pred, (c,) * n), Atom(pred, (c,) * (n + 1))))
        return _insert(t, data, replace(_fact("Fresh"), body=body)), pred
    if defect == "constant":
        law = _fact("Gone", "zz") if data.draw(st.booleans()) else \
            replace(_fact("Fresh"), body=Not(Atom("Gone", ("zz",))))
        return _insert(t, data, law), "zz"
    if defect == "domain":
        if data.draw(st.booleans()):
            law = replace(_fact("Fresh", Var("v")), vars=(("v", "ghost"),))
        else:
            body = Exists("w", "ghost", Atom("Fresh"))
            if data.draw(st.booleans()):
                body = ForAll("u", "none", body)
            binders = (("v", "none"),) if data.draw(st.booleans()) else ()
            law = CPLaw(binders, _fact("Fresh").head, body)
        return _insert(t, data, law, domains={**t.domains, "none": ()}), "ghost"
    prob = data.draw(st.sampled_from((Fraction(0), Fraction(-1, 2), Fraction(-1))))
    live = [k for k, law in enumerate(t.laws) if all(t.domains[d] for _, d in law.vars)]
    if not live:  # a law with no instances never reaches a ground theory
        law = _fact("Fresh")
        return _insert(t, data, replace(law, head=(replace(law.head[0], prob=prob),))), \
            "probability"
    k = data.draw(st.sampled_from(live))
    head = t.laws[k].head
    j = data.draw(st.integers(0, len(head) - 1))
    head = head[:j] + (replace(head[j], prob=prob),) + head[j + 1:]
    return _put(t, k, replace(t.laws[k], head=head)), "probability"


@_SETTINGS
@given(theory_values(apart=True), st.data())
def test_mutated_values_are_rejected(t, data):
    ground(t)
    check_theory(t)
    bad = data.draw(st.sampled_from(sorted(KEYWORDS) + ["two words"]))
    where = data.draw(st.sampled_from(
        ("domain", "constant", "exogenous", "predicate", "variable")))
    with pytest.raises(TheoryError):
        check_theory(_with_bad_name(t, bad, where))
    if t.laws:
        k = data.draw(st.integers(0, len(t.laws) - 1))
        for message in ("two parts", "unbound variable"):
            with pytest.raises(TheoryError, match=message):
                check_theory(_with_bad_body(t, k, message))
    # One break of the vocabulary or of a probability, which `ground` must
    # catch as well and name.
    defect = data.draw(st.sampled_from(
        ("exogenous head", "arity", "constant", "domain", "probability")))
    bad_t, name = _with_defect(t, data, defect)
    with pytest.raises(TheoryError) as exc:
        ground(bad_t)
    assert name in str(exc.value)
    with pytest.raises(TheoryError):
        check_theory(bad_t)
