"""Shared shorthand and theories for the test suite."""

import random
from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from cplogic import theories
from cplogic.syntax import (And, Atom, CPLaw, EffectLiteral, Exists, ForAll,
                            Formula, HeadDisjunct, Not, Or, Theory, FALSE,
                            TRUE, Var, formula_atoms, substitute_atom)


def atom(spec: str) -> Atom:
    """Build an atom from "P" or "P(a,b)" notation."""
    if "(" not in spec:
        return Atom(spec)
    pred, rest = spec.split("(", 1)
    return Atom(pred, tuple(rest.rstrip(")").split(",")))


def atoms(*specs: str) -> frozenset:
    return frozenset(atom(s) for s in specs)


def world_strs(world) -> list:
    return sorted(str(a) for a in world)


def deterministic_gears() -> Theory:
    """The gear train with every transfer made certain (probabilities 1)."""
    t = theories.get("gears")
    laws = tuple(
        CPLaw(law.vars,
              tuple(HeadDisjunct(d.literal, Fraction(1)) for d in law.head),
              law.body)
        for law in t.laws)
    return Theory(dict(t.domains), dict(t.exogenous), laws)


# The first eight names are fixed: seeds must keep giving the same theories.
_ATOM_NAMES = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ")

_PROB_SINGLES = (Fraction(1), Fraction(1, 2), Fraction(1, 3),
                 Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))
_PROB_PAIRS = ((Fraction(1, 2), Fraction(1, 2)),
               (Fraction(1, 2), Fraction(1, 4)),
               (Fraction(1, 3), Fraction(1, 3)),
               (Fraction(1, 4), Fraction(1, 4)),
               (Fraction(2, 3), Fraction(1, 3)))


def _atom_names(atoms: int) -> tuple:
    if not 1 <= atoms <= len(_ATOM_NAMES):
        raise ValueError(f"atoms must be between 1 and {len(_ATOM_NAMES)}, "
                         f"got {atoms}")
    return _ATOM_NAMES[:atoms]


def random_deterministic_theory(seed: int, atoms: int = 6, laws: int = 6,
                                negation_rate: float = 0.4) -> Theory:
    """Seeded propositional deterministic theory; bodies may use negation
    freely, so the result may well be unsound."""
    rng = random.Random(seed)
    names = _atom_names(atoms)
    n_laws = rng.randint(1, laws)

    def body(depth: int) -> Formula:
        if depth == 0 or rng.random() < 0.45:
            atom = Atom(rng.choice(names))
            return Not(atom) if rng.random() < negation_rate else atom
        op = rng.choice((And, Or))
        return op(tuple(body(depth - 1) for _ in range(rng.randint(2, 3))))

    out = []
    for _ in range(n_laws):
        head_atom = Atom(rng.choice(names))
        phi = TRUE if rng.random() < 0.15 else body(2)
        out.append(CPLaw((), (HeadDisjunct(EffectLiteral(False, head_atom), Fraction(1)),), phi))
    return Theory({}, {}, tuple(out))


def random_stratified_theory(seed: int, atoms: int = 6, laws: int = 6,
                             negative_heads: bool = True) -> Theory:
    """Seeded propositional theory that is stratified by construction.

    Atoms live on strata; negative dependencies (negated body occurrences,
    and every body edge of a law with a negative head literal) only point
    strictly downwards, so no cycle can carry a negative edge.  A head has
    one or two disjuncts, and a body literal is negated with probability 0.4.
    """
    rng = random.Random(seed)
    names = list(_atom_names(atoms))
    stratum = {name: rng.randint(0, 2) for name in names}
    n_laws = rng.randint(1, laws)

    out = []
    for _ in range(n_laws):
        width = rng.randint(1, 2)
        head_names = rng.sample(names, min(width, len(names)))
        literals = []
        has_neg_head = False
        for name in head_names:
            neg = negative_heads and rng.random() < 0.25
            has_neg_head = has_neg_head or neg
            literals.append(EffectLiteral(neg, Atom(name)))
        probs = (rng.choice(_PROB_SINGLES),) if len(literals) == 1 \
            else rng.choice(_PROB_PAIRS)
        head = tuple(HeadDisjunct(lit, p) for lit, p in zip(literals, probs))

        floor = min(stratum[n] for n in head_names)
        parts = []
        for _ in range(rng.randint(0, 2)):
            negated = rng.random() < 0.4
            strict = negated or has_neg_head
            pool = [n for n in names
                    if (stratum[n] < floor if strict else stratum[n] <= floor)]
            if not pool:
                continue
            atom = Atom(rng.choice(pool))
            parts.append(Not(atom) if negated else atom)
        phi: Formula = TRUE if not parts else (
            parts[0] if len(parts) == 1 else And(tuple(parts)))
        out.append(CPLaw((), head, phi))
    return Theory({}, {}, tuple(out))


def mentioned_exogenous(g) -> list:
    """The exogenous atoms that some body of the ground theory ``g``
    mentions, in printed order."""
    return sorted({a for law in g.laws for a in formula_atoms(law.body)
                   if a in g.exogenous_atoms}, key=str)


def drawn_exogenous(draw, g) -> frozenset:
    """An X for the ground theory ``g``, by ``draw`` (a `hypothesis` draw
    function): each exogenous atom that a body of ``g`` mentions is in X
    unless a draw leaves it out, so most draws set an atom some body reads."""
    return frozenset(a for a in mentioned_exogenous(g) if not draw(st.booleans()))


def leaf_paths(node):
    """Yield (edges-from-root, leaf node) pairs of an execution tree, left
    to right."""
    stack = [((), node)]
    while stack:
        prefix, node = stack.pop()
        if node.is_leaf:
            yield prefix, node
        stack.extend((prefix + (edge,), edge.child)
                     for edge in reversed(node.children))


def total(dist) -> Fraction:
    return sum(dist.values(), Fraction(0))


def approximates(u, interp: frozenset) -> bool:
    """True iff every committed value of the three-valued ``u`` agrees with
    the two-valued ``interp``."""
    return u.true_set <= interp and not (u.false_set & interp)


def apart_when_ground(atoms: list, binders: tuple, domains: dict) -> bool:
    """Whether ``atoms``, the head atoms of a law with ``binders``, are
    distinct and stay so in every instance of the law, as `ground` demands."""
    names = [v for v, _ in binders]
    envs = [{}] + [dict(zip(names, values))
                   for values in product(*(domains[d] for _, d in binders))]
    return all(len({substitute_atom(a, env) for a in atoms}) == len(atoms)
               for env in envs)


@st.composite
def quantified_theories(draw, max_laws: int = 4, shadow: bool = False) -> Theory:
    """Small quantified theories over exogenous ``E/1`` and ``F/0`` and
    endogenous ``P/1`` and ``Q/0``: positive and negated exogenous
    literals, truth constants, quantifiers nested up to depth 3, one domain
    that may be empty, and heads with negative literals.  There are at
    least two laws (unless ``max_laws`` is 1), and a law shares the binders
    and body of an earlier one two times in three, so that several laws
    are often applicable at once.  With ``shadow``,
    a quantified variable may be named like a constant, which is then not
    drawn in its scope, so the theory still prints as itself."""
    constants = ("a", "b", "c")
    domains = {"d": tuple(draw(st.lists(st.sampled_from(constants), min_size=1,
                                        max_size=2, unique=True))),
               "e": tuple(draw(st.lists(st.sampled_from(constants), max_size=2,
                                        unique=True)))}
    exogenous = {"E": 1, "F": 0}
    arity = {**exogenous, "P": 1, "Q": 0}
    terms = sorted({c for consts in domains.values() for c in consts})

    def atom(preds, bound):
        pred = draw(st.sampled_from(preds))
        choices = [c for c in terms if c not in bound] + [Var(v) for v in sorted(bound)]
        return Atom(pred, tuple(draw(st.sampled_from(choices))
                                for _ in range(arity[pred])))

    def formula(bound, depth):
        kind = draw(st.sampled_from(("exo", "exo", "endo", "truth") + (
            ("not", "and", "or", "quant") if depth else ())))
        if kind == "exo":
            return atom(("E", "F"), bound)
        if kind == "endo":
            return atom(("P", "Q"), bound)
        if kind == "truth":
            return draw(st.sampled_from((TRUE, FALSE)))
        if kind == "not":
            return Not(formula(bound, depth - 1))
        if kind == "quant":
            var = draw(st.sampled_from(("x", "y") + (constants if shadow else ())))
            return draw(st.sampled_from((ForAll, Exists)))(
                var, draw(st.sampled_from(sorted(domains))),
                formula(bound | {var}, depth - 1))
        parts = tuple(formula(bound, depth - 1) for _ in range(draw(st.integers(2, 3))))
        return And(parts) if kind == "and" else Or(parts)

    triggers: list = []  # (binders, body) of each law with a body of its own

    def law():
        if triggers and draw(st.integers(0, 2)) < 2:
            binders, body = draw(st.sampled_from(triggers))
        else:
            names = draw(st.lists(st.sampled_from(("x", "y")), max_size=1))
            binders = tuple((v, draw(st.sampled_from(sorted(domains)))) for v in names)
            body = formula(set(names), 3)
            triggers.append((binders, body))
        names = [v for v, _ in binders]
        heads = []
        for _ in range(draw(st.integers(1, 2))):
            a = atom(("P", "Q"), set(names))
            if apart_when_ground(heads + [a], binders, domains):
                heads.append(a)
        den = draw(st.integers(len(heads), 4))
        head = tuple(HeadDisjunct(EffectLiteral(draw(st.booleans()), a), Fraction(1, den))
                     for a in heads)
        return CPLaw(binders, head, body)

    return Theory(domains, exogenous,
                  tuple(law() for _ in range(draw(st.integers(min(2, max_laws), max_laws)))))
