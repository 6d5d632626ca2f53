"""Concrete syntax for causal probabilistic theories.

A theory file (conventionally ``*.cpl``) contains declarations followed by
laws:

    % three gear wheels, the first one lockable
    domain gear = {gear1, gear2, gear3}.
    domain lock = {g1}.
    exogenous Crank1/0.
    exogenous Locked/1.

    Turns(gear1) <- Crank1.
    (Turns(gear2):0.9) <- Turns(gear1).
    ~Turns(gear1) <- Locked(g1).

``~`` is negation (a negative effect literal in a head, logical negation in
a body), ``,``/``;`` are conjunction/disjunction, ``<-`` separates head from
body, ``!x in d:`` / ``?x in d:`` quantify over a declared finite domain,
and ``.`` terminates a statement.  Probabilities are decimal or ``p/q``
literals and are kept as exact `fractions.Fraction` values throughout; no
float ever enters the pipeline.

A `ParseError` carries the line and column of the offending character.
`Rules` states each rule of the language once: the parser reports a break
at its token, and `ground` raises `TheoryError` with the same message.
Formulas, literals and ``--exo`` assignments read against a theory
(`parse_formula`, `parse_literal`, `parse_assignment`) use its closed
vocabulary: a predicate the theory does not mention is an error at its
token.

The printer is the parser's inverse up to formatting: for any theory value
``t`` produced by `parse_theory`, ``parse_theory(print_theory(t)) == t``.
`ground.check_theory` accepts a value built in code exactly when that holds
for it.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Iterator, NamedTuple, Union

KEYWORDS = frozenset({"domain", "exogenous", "in", "true", "false"})

# Deepest nesting of negations, quantifiers and parentheses in a formula.
# Parsing, grounding, evaluation, printing and the transforms all recurse
# once or a few times per level, and must stay well inside Python's default
# recursion limit of 1000.
MAX_NESTING = 100


class ParseError(Exception):
    """Ill-formed theory text; always carries a source position."""

    def __init__(self, message: str, line: int, col: int):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


class TheoryError(Exception):
    """A structurally ill-formed theory value (programmatic construction)."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    """Occurrence of a law or quantifier variable in an argument position."""

    name: str

    def __str__(self) -> str:
        return self.name


Term = Union[str, Var]  # constants are plain strings


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()

    def is_ground(self) -> bool:
        return not any(isinstance(a, Var) for a in self.args)

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Truth:
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    parts: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    parts: tuple["Formula", ...]


@dataclass(frozen=True)
class ForAll:
    var: str
    domain: str
    sub: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    domain: str
    sub: "Formula"


Formula = Union[Atom, Truth, Not, And, Or, ForAll, Exists]

TRUE = Truth(True)
FALSE = Truth(False)


@dataclass(frozen=True)
class EffectLiteral:
    """An atom that a law may cause: positive (make true) or negative (force false)."""

    negated: bool
    atom: Atom

    def __str__(self) -> str:
        return ("~" if self.negated else "") + str(self.atom)


@dataclass(frozen=True)
class HeadDisjunct:
    literal: EffectLiteral
    prob: Fraction


@dataclass(frozen=True)
class CPLaw:
    """One causal law: ``vars`` universally quantify head and body.

    The head lists the mutually exclusive outcomes of the event triggered by
    the body; probabilities sum to at most 1, the remainder being the chance
    that the event happens with no effect at all.
    """

    vars: tuple[tuple[str, str], ...]  # (variable, domain) pairs, in order
    head: tuple[HeadDisjunct, ...]
    body: Formula

    def is_deterministic(self) -> bool:
        return len(self.head) == 1 and self.head[0].prob == 1


@dataclass(frozen=True)
class Theory:
    domains: dict  # name -> tuple of constants, declaration order kept
    exogenous: dict  # predicate -> arity
    laws: tuple[CPLaw, ...]
    # `endogenous_signature`, kept by the parser or worked out on first use
    _signature: dict | None = field(default=None, init=False, compare=False, repr=False)


# ---------------------------------------------------------------------------
# AST utilities
# ---------------------------------------------------------------------------

def substitute_atom(atom: Atom, env: dict) -> Atom:
    args = tuple([env.get(a.name, a) if type(a) is Var else a for a in atom.args])
    return atom if args == atom.args else Atom(atom.predicate, args)


def substitute_formula(phi: Formula, env: dict) -> Formula:
    """Replace variables by constants according to ``env`` (name -> constant).

    Capture-free: a quantifier whose variable is named like a constant that
    a variable under it receives is renamed, ``b`` to the first of ``b1``,
    ``b2``, ... not used in the quantified formula or among the constants.
    """
    match phi:
        case Atom():
            return substitute_atom(phi, env)
        case Truth():
            return phi
        case Not(sub):
            return Not(substitute_formula(sub, env))
        case And(parts):
            return And(tuple(substitute_formula(p, env) for p in parts))
        case Or(parts):
            return Or(tuple(substitute_formula(p, env) for p in parts))
        case ForAll(var, dom, sub) | Exists(var, dom, sub):
            inner = {k: v for k, v in env.items() if k != var}
            if var in inner.values():
                names = _names(sub)
                if any(free and inner.get(n) == var for n, free in names):
                    used = {n for n, _ in names} | set(map(str, inner.values()))
                    var = next(f"{phi.var}{i}" for i in itertools.count(1)
                               if f"{phi.var}{i}" not in used)
                    inner[phi.var] = Var(var)
            return type(phi)(var, dom, substitute_formula(sub, inner))
    raise TypeError(f"not a formula: {phi!r}")


def _names(phi: Formula, bound: frozenset = frozenset()) -> set:
    """Each constant, variable and quantified variable named in ``phi``,
    paired with whether it is a variable free in ``phi``."""
    match phi:
        case Atom(_, args):
            return {(a.name, a.name not in bound) if isinstance(a, Var) else (a, False)
                    for a in args}
        case Not(sub):
            return _names(sub, bound)
        case And(parts) | Or(parts):
            return set().union(*(_names(p, bound) for p in parts))
        case ForAll(var, _, sub) | Exists(var, _, sub):
            return {(var, False)} | _names(sub, bound | {var})
    return set()


def formula_atom_polarities(phi: Formula, negated: bool = False) -> Iterator[tuple[Atom, bool]]:
    """Atom occurrences in textual order, each paired with whether it sits
    under an odd number of negations."""
    match phi:
        case Atom():
            yield phi, negated
        case Truth():
            return
        case Not(sub):
            yield from formula_atom_polarities(sub, not negated)
        case And(parts) | Or(parts):
            for p in parts:
                yield from formula_atom_polarities(p, negated)
        case ForAll(_, _, sub) | Exists(_, _, sub):
            yield from formula_atom_polarities(sub, negated)
        case _:
            raise TypeError(f"not a formula: {phi!r}")


def formula_atoms(phi: Formula) -> Iterator[Atom]:
    """All atom occurrences in ``phi``, in textual order."""
    return (atom for atom, _ in formula_atom_polarities(phi))


def law_atoms(law: CPLaw) -> Iterator[Atom]:
    for d in law.head:
        yield d.literal.atom
    yield from formula_atoms(law.body)


def endogenous_signature(t: Theory) -> dict:
    """Predicate -> arity map for every predicate not declared exogenous,
    walked out of the laws once per theory; treat it as read-only."""
    if t._signature is None:
        sig: dict = {}
        for law in t.laws:
            for atom in law_atoms(law):
                if atom.predicate not in t.exogenous:
                    sig.setdefault(atom.predicate, len(atom.args))
        object.__setattr__(t, "_signature", sig)
    return t._signature


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"""
    [ \t\r\n]+ | %[^\n]*                      # whitespace and comments: skipped
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>[0-9]+(?:\.[0-9]+)?)
  | (?P<punct><-|[(){}:;,.~!?=/])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


class _Token(NamedTuple):
    kind: str  # "ident" | "number" | "punct" | "eof"
    text: str
    pos: int  # offset of the first character in the source text


def _fail(text: str, message: str, pos: int):
    """Raise `ParseError` at the 1-based line and column of offset ``pos``."""
    raise ParseError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _tokenize(text: str) -> list[_Token]:
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            _fail(text, f"unexpected character {m.group()!r}", m.start())
        if kind is not None:
            toks.append(_Token(kind, m.group(), m.start()))
    toks.append(_Token("eof", "", len(text)))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _raise(message: str, where=None):
    raise TheoryError(message)


class Rules:
    """A theory's vocabulary and each rule of the language, stated once.

    The vocabulary is the declared domains and exogenous predicates, the
    arity each predicate was declared or first used with, and the
    constants of the domains; `domain` gives a declared domain's constants.
    The parser and `ground` share the rules: each method checks one and,
    when it breaks, calls ``fail(message, where)``, which raises: the
    parser's at the offset ``where`` in its text (``where[k]`` for
    constant k in `declare_domain`), the default a `TheoryError`.
    """

    __slots__ = ("fail", "domains", "exogenous", "arity", "constants")

    def __init__(self, domains=(), exogenous=(), fail=_raise):
        self.fail, self.domains, self.exogenous, self.arity = fail, {}, {}, {}
        self.constants: set = set()
        for name in domains:
            self.declare_domain(name, domains[name])
        for pred in exogenous:
            self.declare_exogenous(pred, exogenous[pred])

    def declare_domain(self, name: str, consts, where=None) -> None:
        listed: set = set()
        for k, c in enumerate(consts):
            if c in listed:
                self.fail(f"constant {c!r} listed twice in domain {name!r}", where and where[k])
            listed.add(c)
        self.domains[name] = tuple(consts)
        self.constants |= listed

    def declare_exogenous(self, pred: str, n, where=None) -> None:
        if type(n) is not int or n < 0:
            self.fail("expected arity (a plain integer)", where)
        self.exogenous[pred] = self.arity[pred] = n

    def domain(self, name: str, where=None) -> tuple:
        if name not in self.domains:
            self.fail(f"undeclared domain {name!r}", where)
        return self.domains[name]

    def bind(self, var: str, bound, where=None) -> None:
        if var in bound:
            self.fail(f"law variable {var!r} bound twice", where)

    def predicate(self, pred: str, n: int, where=None) -> None:
        seen = self.arity.setdefault(pred, n)
        if seen != n:
            self.fail(f"predicate {pred!r} used with arity {n}, previously {seen}", where)

    def constant(self, c, where=None, hint: str = "") -> None:
        if c.__hash__ is None or c not in self.constants:  # a list, say
            self.fail(f"undeclared constant {c!r} (not in any domain{hint})", where)

    def effect(self, atom: Atom, where=None) -> None:
        if atom.predicate in self.exogenous:
            self.fail(f"exogenous atom {atom} may not occur in a head", where)

    def distinct(self, atoms, where=None) -> None:
        seen: set = set()
        for a in atoms:
            if a in seen:
                self.fail(f"atom {a} appears in two disjuncts of the same head", where)
            seen.add(a)

    def probability(self, p, where=None) -> None:
        if not 0 < p <= 1:
            self.fail(f"probability {p} is not in (0, 1]", where)

    def head_sum(self, total, where=None) -> None:
        if total > 1:
            self.fail(f"head probabilities sum to {total} > 1", where)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0  # index of the next token
        self.rules = Rules(fail=partial(_fail, text))  # reports at an offset
        self.laws: list[CPLaw] = []
        self.depth = 0  # negations, quantifiers and parentheses now open
        self.closed = False  # True: every predicate must already be known

    # -- token plumbing ------------------------------------------------

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def expect_punct(self, text: str) -> _Token:
        if not self.at_punct(text):
            self.fail(f"expected {text!r}")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> _Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected {what}")
        if tok.text in KEYWORDS:
            self.fail(f"{tok.text!r} is a reserved word, cannot be used as {what}")
        return self.advance()

    def fail(self, message: str, tok: _Token | None = None):
        _fail(self.text, message, (tok or self.peek()).pos)

    def parse_list(self, sep: str, item, *args) -> list:
        """``item {sep item}``, calling ``item(*args)`` for each item."""
        items = [item(*args)]
        while self.at_punct(sep):
            self.advance()
            items.append(item(*args))
        return items

    # -- statements -----------------------------------------------------

    def parse_theory(self) -> Theory:
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "ident" and tok.text in ("domain", "exogenous"):
                if self.laws:
                    self.fail("declarations must precede laws")
                self.advance()
                if tok.text == "domain":
                    self.parse_domain_decl()
                else:
                    self.parse_list(",", self.parse_signature)
                self.expect_punct(".")
            else:
                self.laws.append(self.parse_law())
        t = Theory(dict(self.rules.domains), dict(self.rules.exogenous), tuple(self.laws))
        sig = {p: n for p, n in self.rules.arity.items() if p not in t.exogenous}
        object.__setattr__(t, "_signature", sig)
        return t

    def parse_domain_decl(self):
        name_tok = self.expect_ident("domain name")
        if name_tok.text in self.rules.domains:
            self.fail(f"domain {name_tok.text!r} declared twice", name_tok)
        self.expect_punct("=")
        self.expect_punct("{")
        toks = [] if self.at_punct("}") else self.parse_list(",", self.expect_ident, "constant")
        self.expect_punct("}")
        self.rules.declare_domain(name_tok.text, [c.text for c in toks], [c.pos for c in toks])

    def parse_signature(self):
        """One ``name[/arity]`` of an exogenous declaration."""
        name_tok = self.expect_ident("predicate name")
        if name_tok.text in self.rules.exogenous:
            self.fail(f"exogenous predicate {name_tok.text!r} declared twice", name_tok)
        tok, arity = name_tok, 0
        if self.at_punct("/"):
            self.advance()
            tok = self.advance()
            arity = int(tok.text) if tok.text.isdigit() else None
        self.rules.declare_exogenous(name_tok.text, arity, tok.pos)

    # -- laws -------------------------------------------------------------

    def parse_law(self) -> CPLaw:
        start = self.peek()
        binders: list[tuple[str, str]] = []
        env: set = set()
        while self.at_punct("!"):
            self.advance()
            var_tok, dom = self.parse_binder()
            self.rules.bind(var_tok.text, env, var_tok.pos)
            binders.append((var_tok.text, dom))
            env.add(var_tok.text)

        head = self.parse_list(";", self.parse_head_disjunct, env)
        self.rules.distinct([d.literal.atom for d in head], start.pos)
        body: Formula = TRUE
        if self.at_punct("<-"):
            self.advance()
            body = self.parse_or(env)
        if len(head) > 1:  # each probability is at most 1
            self.rules.head_sum(sum(d.prob for d in head), start.pos)
        self.expect_punct(".")
        return CPLaw(tuple(binders), tuple(head), body)

    def parse_binder(self) -> tuple[_Token, str]:
        """``x in d :`` after a ``!`` or ``?``: the variable and its domain."""
        var_tok = self.expect_ident("variable")
        self.expect_keyword("in")
        dom_tok = self.expect_ident("domain name")
        self.expect_punct(":")
        self.rules.domain(dom_tok.text, dom_tok.pos)
        return var_tok, dom_tok.text

    def expect_keyword(self, kw: str):
        tok = self.peek()
        if tok.kind != "ident" or tok.text != kw:
            self.fail(f"expected {kw!r}")
        self.advance()

    def parse_head_disjunct(self, env: set) -> HeadDisjunct:
        if self.at_punct("("):
            self.advance()
            lit = self.parse_effect_literal(env)
            self.expect_punct(":")
            prob = self.parse_prob()
            self.expect_punct(")")
            return HeadDisjunct(lit, prob)
        return HeadDisjunct(self.parse_effect_literal(env), Fraction(1))

    def parse_effect_literal(self, env: set) -> EffectLiteral:
        negated = False
        if self.at_punct("~"):
            self.advance()
            negated = True
        pos = self.peek().pos
        atom = self.parse_atom(env)
        self.rules.effect(atom, pos)
        return EffectLiteral(negated, atom)

    def parse_prob(self) -> Fraction:
        tok = self.peek()
        if tok.kind != "number":
            self.fail("expected a probability")
        self.advance()
        value = Fraction(tok.text)  # exact: "0.9" -> 9/10
        if self.at_punct("/"):
            self.advance()
            den = self.peek()
            if den.kind != "number" or not den.text.isdigit():
                self.fail("expected denominator")
            self.advance()
            if "." in tok.text:
                self.fail("fraction numerator must be an integer", tok)
            if int(den.text) == 0:
                self.fail("zero denominator", den)
            value = Fraction(int(tok.text), int(den.text))
        self.rules.probability(value, tok.pos)
        return value

    # -- formulas -----------------------------------------------------------

    def parse_or(self, env: set) -> Formula:
        parts = self.parse_list(";", self.parse_and, env)
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self, env: set) -> Formula:
        parts = self.parse_list(",", self.parse_unary, env)
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary(self, env: set) -> Formula:
        tok = self.peek()
        if tok.kind == "punct" and tok.text in ("~", "!", "?", "("):
            if self.depth == MAX_NESTING:
                self.fail(f"formula nested more than {MAX_NESTING} levels deep")
            self.depth += 1
            phi = self.parse_nested(env)
            self.depth -= 1
            return phi
        if tok.kind == "ident" and tok.text in ("true", "false"):
            self.advance()
            return TRUE if tok.text == "true" else FALSE
        return self.parse_atom(env)

    def parse_nested(self, env: set) -> Formula:
        """A negation, quantifier or parenthesized formula."""
        if self.at_punct("~"):
            self.advance()
            return Not(self.parse_unary(env))
        if self.at_punct("!") or self.at_punct("?"):
            cls = ForAll if self.advance().text == "!" else Exists
            var_tok, dom = self.parse_binder()
            return cls(var_tok.text, dom, self.parse_unary(env | {var_tok.text}))
        self.expect_punct("(")
        inner = self.parse_or(env)
        self.expect_punct(")")
        return inner

    def parse_atom(self, env: set) -> Atom:
        name_tok = self.expect_ident("predicate")
        args: list[Term] = []
        if self.at_punct("("):
            self.advance()
            args = self.parse_list(",", self.parse_term, env)
            self.expect_punct(")")
        if self.closed and name_tok.text not in self.rules.arity:
            self.fail(f"unknown predicate {name_tok.text!r}", name_tok)
        self.rules.predicate(name_tok.text, len(args), name_tok.pos)
        return Atom(name_tok.text, tuple(args))

    def parse_term(self, env: set) -> Term:
        """A variable if ``env`` binds it, else a declared constant."""
        tok = self.expect_ident("argument")
        if tok.text in env:
            return Var(tok.text)
        # theory text is the only place where a binder can be written
        self.rules.constant(tok.text, tok.pos,
                            "" if self.closed else "; law variables need a '!x in d:' binder")
        return tok.text


def parse_theory(text: str) -> Theory:
    """Parse a whole theory (or a single-law string) into its AST."""
    return _Parser(text).parse_theory()


def _seeded_parser(text: str, theory: Theory) -> _Parser:
    """A parser over ``text`` closed over the theory's domains and predicates."""
    p = _Parser(text)
    p.closed = True
    rules = Rules(theory.domains, theory.exogenous)  # its own faults: TheoryError
    rules.arity.update(endogenous_signature(theory))
    rules.fail, p.rules = p.rules.fail, rules
    return p


def parse_formula(text: str, theory: Theory) -> Formula:
    """Parse a closed formula, e.g. a query, against ``theory``.

    Predicates must occur in the theory (declared exogenous or used in some
    law), arities must match, and constants must be drawn from its domains.
    """
    p = _seeded_parser(text, theory)
    phi = p.parse_or(set())
    if p.peek().kind != "eof":
        p.fail("trailing input after formula")
    return phi


def parse_literal(text: str, theory: Theory) -> EffectLiteral:
    """Parse ``A`` or ``~A`` with ``A`` a ground atom of ``theory``'s
    vocabulary, as `parse_formula` reads it."""
    p = _seeded_parser(text, theory)
    negated = False
    if p.at_punct("~"):
        p.advance()
        negated = True
    atom = p.parse_atom(set())
    if p.peek().kind != "eof":
        p.fail("trailing input after literal")
    return EffectLiteral(negated, atom)


def parse_assignment(text: str, theory: Theory) -> dict:
    """Parse ``A=true,P(c)=false`` into ``{atom: bool}``, in the order given.

    Every atom must be ground and exogenous in the theory; a trailing comma
    is allowed and the empty text is the empty assignment.
    """
    p = _seeded_parser(text, theory)
    values: dict = {}
    while p.peek().kind != "eof":
        tok = p.peek()
        if p.at_punct("~"):
            p.advance()
            atom = p.parse_atom(set())
            p.fail(f"write {atom}=true or {atom}=false, not ~{atom}", tok)
        atom = p.parse_atom(set())
        if atom.predicate not in theory.exogenous:
            p.fail(f"{atom} is not exogenous", tok)
        if atom in values:
            p.fail(f"{atom} assigned twice", tok)
        p.expect_punct("=")
        value = p.peek()
        if value.kind != "ident" or value.text not in ("true", "false"):
            got = repr(value.text) if value.text else "end of input"
            p.fail(f"expected true or false, got {got}")
        p.advance()
        values[atom] = value.text == "true"
        if p.peek().kind != "eof":
            p.expect_punct(",")
    return values


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def atom_names(atoms) -> list:
    """The atoms' printed forms, sorted: the order of every printed world."""
    return sorted(str(a) for a in atoms)


def format_atom_set(atoms) -> str:
    """``{A, P(c)}``: the atoms' printed forms, sorted."""
    return "{" + ", ".join(atom_names(atoms)) + "}"


def print_formula(phi: Formula) -> str:
    return _fmt(phi, 0)


# precedence levels: 0 = disjunction, 1 = conjunction, 2 = unary
def _fmt(phi: Formula, level: int) -> str:
    match phi:
        case Atom() | Truth():
            return str(phi)
        case Not(sub):
            return "~" + _fmt(sub, 2)
        case ForAll(var, dom, sub):
            return f"!{var} in {dom}: " + _fmt(sub, 2)
        case Exists(var, dom, sub):
            return f"?{var} in {dom}: " + _fmt(sub, 2)
        case And(parts):
            s = ", ".join(_fmt(p, 2) for p in parts)
            return f"({s})" if level >= 2 else s
        case Or(parts):
            s = "; ".join(_fmt(p, 1) for p in parts)
            return f"({s})" if level >= 1 else s
    raise TypeError(f"not a formula: {phi!r}")


def print_law(law: CPLaw) -> str:
    prefix = "".join(f"!{v} in {d}: " for v, d in law.vars)
    if law.is_deterministic():
        head = str(law.head[0].literal)
    else:
        # a Fraction prints in lowest terms, "9/10" or "1"
        head = "; ".join(f"({d.literal}:{d.prob})" for d in law.head)
    if law.body == TRUE:
        return f"{prefix}{head}."
    return f"{prefix}{head} <- {print_formula(law.body)}."


def print_theory(t: Theory) -> str:
    """Render a theory as source text that parses back to an equal value."""
    lines: list[str] = []
    for name in sorted(t.domains):
        consts = ", ".join(t.domains[name])
        lines.append(f"domain {name} = {{{consts}}}.")
    for name in sorted(t.exogenous):
        lines.append(f"exogenous {name}/{t.exogenous[name]}.")
    if lines and t.laws:
        lines.append("")
    for law in t.laws:
        lines.append(print_law(law))
    return "\n".join(lines) + ("\n" if lines else "")
