"""The value semantics of every record class of the package.

Atoms, formulas, laws, execution states and reports are immutable records:
positional and keyword construction with defaults, ``__match_args__`` in
field order, equality only between records of one class, a hash on the
fields, a ``Class(field=value, ...)`` repr, and a check in
``__post_init__`` where a class has one.  A ``_``-prefixed cache is none
of these: it is not a parameter, and it never takes part in ``==``,
``hash`` or ``repr``.
"""

from fractions import Fraction

import pytest

from cplogic.engine import ExecEdge, ExecNode, ExecState, distribution
from cplogic.ground import GroundTheory, StratificationReport, ground
from cplogic.oracle import DivergenceWitness, OrderSweepReport
from cplogic.syntax import (And, Atom, CPLaw, EffectLiteral, Exists, ForAll,
                            HeadDisjunct, Not, Or, Theory, Truth, Var,
                            parse_theory)
from cplogic.theories import BundledTheory
from cplogic.threeval import ThreeValuedInterp

A, B = Atom("A"), Atom("B", ("c",))
LIT = EffectLiteral(False, A)
DISJUNCT = HeadDisjunct(LIT, Fraction(1, 2))
LAW = CPLaw((), (DISJUNCT,), And((B, Not(A))))
STATE = ExecState(frozenset({A}), frozenset({B}), frozenset({0}))
INTERP = ThreeValuedInterp(frozenset({A, B}), frozenset({A}))
LEAF = ExecNode(STATE, INTERP, ())
DIST = (2, ((frozenset({A}), 1), (frozenset(), 1)))

# One value of each record class, with its fields in declaration order.
RECORDS = {
    Var: (Var("x"), ("name",)),
    Atom: (B, ("predicate", "args")),
    Truth: (Truth(True), ("value",)),
    Not: (Not(A), ("sub",)),
    And: (And((A, B)), ("parts",)),
    Or: (Or((A, B)), ("parts",)),
    ForAll: (ForAll("x", "d", Atom("P", (Var("x"),))), ("var", "domain", "sub")),
    Exists: (Exists("x", "d", Atom("P", (Var("x"),))), ("var", "domain", "sub")),
    EffectLiteral: (LIT, ("negated", "atom")),
    HeadDisjunct: (DISJUNCT, ("literal", "prob")),
    CPLaw: (LAW, ("vars", "head", "body")),
    Theory: (Theory({"d": ("c",)}, {"B": 1}, (LAW,)), ("domains", "exogenous", "laws")),
    ExecState: (STATE, ("true_atoms", "negated", "fired")),
    ExecEdge: (ExecEdge(Fraction(1, 2), LIT, 0, LEAF),
               ("prob", "outcome", "law_index", "child")),
    ExecNode: (LEAF, ("state", "u", "children")),
    GroundTheory: (GroundTheory((LAW,), frozenset({A}), frozenset({B}), {}),
                   ("laws", "endogenous_atoms", "exogenous_atoms", "domains")),
    StratificationReport: (StratificationReport(False, (frozenset({A}),)),
                           ("stratified", "offending_cycles")),
    DivergenceWitness: (DivergenceWitness(((0, LIT),), STATE, 0, 1, DIST, (1, ())),
                        ("path", "state", "law_a", "law_b", "dist_a", "dist_b")),
    OrderSweepReport: (OrderSweepReport(2, (DIST,), None, 5, 100),
                       ("models_explored", "distributions", "witness",
                        "states_explored", "budget")),
    ThreeValuedInterp: (INTERP, ("universe", "true_set", "unknown_set")),
    BundledTheory: (BundledTheory("gears", ("", "Crank1")), ("name", "cases")),
}
CLASSES = list(RECORDS)
# A dict field makes a record unhashable, as a dict is.
UNHASHABLE = (Theory, GroundTheory)


def _fields(x) -> dict:
    return {name: getattr(x, name) for name in RECORDS[type(x)][1]}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_match_args_list_the_fields_in_declaration_order(cls):
    assert cls.__match_args__ == RECORDS[cls][1]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_keyword_and_positional_construction_agree(cls):
    x = RECORDS[cls][0]
    by_keyword = cls(**_fields(x))
    by_position = cls(*_fields(x).values())
    assert by_keyword == by_position == x
    assert by_keyword is not x
    with pytest.raises(TypeError):
        cls(*_fields(x).values(), None)


def test_defaults_fill_the_trailing_fields():
    assert Atom("P") == Atom("P", ()) == Atom(predicate="P", args=())
    assert Atom(predicate="P", args=("a",)).args == ("a",)
    u = ThreeValuedInterp(frozenset({A}))
    assert u.true_set == u.unknown_set == frozenset()
    assert u == ThreeValuedInterp(frozenset({A}), frozenset(), frozenset())
    with pytest.raises(TypeError):
        Var()


@pytest.mark.parametrize("cls", [c for c in CLASSES if c not in UNHASHABLE],
                         ids=lambda c: c.__name__)
def test_equal_records_hash_equal(cls):
    x = RECORDS[cls][0]
    assert hash(cls(**_fields(x))) == hash(x) == hash(tuple(_fields(x).values()))


@pytest.mark.parametrize("cls", UNHASHABLE, ids=lambda c: c.__name__)
def test_a_record_with_a_dict_field_is_unhashable(cls):
    with pytest.raises(TypeError):
        hash(RECORDS[cls][0])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_records_differing_in_one_field_are_unequal(cls):
    x = RECORDS[cls][0]
    for name in _fields(x):
        other = cls(**_fields(x))
        object.__setattr__(other, name, object())
        assert other != x and x != other


def test_records_of_different_classes_are_unequal():
    assert And((A, B)) != Or((A, B))
    assert Exists("x", "d", A) != ForAll("x", "d", A)
    assert Not(A) != A
    assert Var("A") != Atom("A")
    assert A != ("A", ()) and ("A", ()) != A
    assert len({And((A, B)), Or((A, B))}) == 2


def test_match_patterns_bind_the_fields():
    match CPLaw((), (DISJUNCT,), Not(B)):
        case CPLaw(_, (HeadDisjunct(EffectLiteral(neg, Atom(pred)), prob),),
                   Not(Atom(_, args))):
            assert (neg, pred, prob, args) == (False, "A", Fraction(1, 2), ("c",))
        case _:
            pytest.fail("the pattern did not match")


def test_repr_names_each_field_with_its_value():
    law = CPLaw((("x", "d"),),
                (HeadDisjunct(EffectLiteral(True, Atom("P", (Var("x"),))),
                              Fraction(1, 2)),),
                Or((Atom("Q"), Not(Truth(False)))))
    assert repr(law) == (
        "CPLaw(vars=(('x', 'd'),), head=(HeadDisjunct(literal=EffectLiteral("
        "negated=True, atom=Atom(predicate='P', args=(Var(name='x'),))), "
        "prob=Fraction(1, 2)),), body=Or(parts=(Atom(predicate='Q', args=()), "
        "Not(sub=Truth(value=False)))))")
    state = ExecState(frozenset({Atom("A")}), frozenset(), frozenset({2}))
    assert repr(state) == (
        "ExecState(true_atoms=frozenset({Atom(predicate='A', args=())}), "
        "negated=frozenset(), fired=frozenset({2}))")


THEORY_TEXT = """
domain d = {a, b}.
exogenous E/1.
P(a) <- E(a).
!x in d: (Q(x):1/2) <- P(x), ?y in d: ~E(y).
"""


def test_a_theory_cache_is_not_a_field():
    t = parse_theory(THEORY_TEXT)
    built = Theory(t.domains, t.exogenous, t.laws)
    assert built._signature is None
    assert built == t and t == built
    assert repr(built) == repr(t) and "_signature" not in repr(t)
    object.__setattr__(built, "_signature", {"Other": 3})
    assert built == t
    with pytest.raises(TypeError):
        Theory(t.domains, t.exogenous, t.laws, None)
    with pytest.raises(TypeError):
        Theory(t.domains, t.exogenous, t.laws, _signature=None)


def test_the_caches_of_a_ground_theory_are_not_fields():
    g = ground(parse_theory(THEORY_TEXT))
    X = frozenset({Atom("E", ("a",))})
    distribution(g, X)
    assert g._compiled is not None and g._outcomes and g._arity is not None
    built = GroundTheory(g.laws, g.endogenous_atoms, g.exogenous_atoms, g.domains)
    assert built._compiled is built._wake is built._schemas is built._arity is None
    assert built._outcomes == g._outcomes
    assert built == g and g == built
    assert repr(built) == repr(g)
    for cache in ("_outcomes", "_compiled", "_wake", "_schemas", "_arity"):
        assert cache not in repr(g)
        with pytest.raises(TypeError):
            GroundTheory(g.laws, g.endogenous_atoms, g.exogenous_atoms, g.domains,
                         **{cache: None})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_records_are_immutable(cls):
    x = RECORDS[cls][0]
    before = _fields(x)
    for name in (*before, "_signature", "_compiled", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert _fields(x) == before


def test_post_init_still_checks_its_record():
    with pytest.raises(ValueError, match="both true and retracted"):
        ExecState(frozenset({A}), frozenset({A}), frozenset())
    with pytest.raises(ValueError, match="outside the universe"):
        ThreeValuedInterp(frozenset({A}), frozenset({B}))
    with pytest.raises(ValueError, match="outside the universe"):
        ThreeValuedInterp(frozenset({A}), unknown_set=frozenset({B}))
