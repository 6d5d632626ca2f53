"""Concrete syntax for causal probabilistic theories.

A theory file (conventionally ``*.cpl``) contains declarations followed by
laws:

    % three gear wheels, the first one lockable
    domain gear = {gear1, gear2, gear3}.
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

The printer is the parser's inverse up to formatting: for any theory value
``t`` produced by `parse_theory`, ``parse_theory(print_theory(t)) == t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

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

    def head_sum(self) -> Fraction:
        return sum((d.prob for d in self.head), Fraction(0))

    def is_deterministic(self) -> bool:
        return len(self.head) == 1 and self.head[0].prob == 1


@dataclass(frozen=True)
class Theory:
    domains: dict  # name -> tuple of constants, declaration order kept
    exogenous: dict  # predicate -> arity
    laws: tuple[CPLaw, ...]


# ---------------------------------------------------------------------------
# AST utilities
# ---------------------------------------------------------------------------

def substitute_atom(atom: Atom, env: dict) -> Atom:
    if atom.is_ground():
        return atom
    return Atom(atom.predicate,
                tuple(env.get(a.name, a) if isinstance(a, Var) else a
                      for a in atom.args))


def substitute_formula(phi: Formula, env: dict) -> Formula:
    """Replace variables by constants according to ``env`` (name -> constant)."""
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
        case ForAll(var, dom, sub):
            inner = {k: v for k, v in env.items() if k != var}
            return ForAll(var, dom, substitute_formula(sub, inner))
        case Exists(var, dom, sub):
            inner = {k: v for k, v in env.items() if k != var}
            return Exists(var, dom, substitute_formula(sub, inner))
    raise TypeError(f"not a formula: {phi!r}")


def formula_atoms(phi: Formula) -> Iterator[Atom]:
    """All atom occurrences in ``phi``, in textual order."""
    match phi:
        case Atom():
            yield phi
        case Truth():
            return
        case Not(sub):
            yield from formula_atoms(sub)
        case And(parts) | Or(parts):
            for p in parts:
                yield from formula_atoms(p)
        case ForAll(_, _, sub) | Exists(_, _, sub):
            yield from formula_atoms(sub)
        case _:
            raise TypeError(f"not a formula: {phi!r}")


def formula_atom_polarities(phi: Formula, negated: bool = False) -> Iterator[tuple[Atom, bool]]:
    """Atom occurrences paired with whether they sit under an odd number of negations."""
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


def law_atoms(law: CPLaw) -> Iterator[Atom]:
    for d in law.head:
        yield d.literal.atom
    yield from formula_atoms(law.body)


def endogenous_signature(t: Theory) -> dict:
    """Predicate -> arity map for every predicate not declared exogenous."""
    sig: dict = {}
    for law in t.laws:
        for atom in law_atoms(law):
            if atom.predicate not in t.exogenous:
                sig.setdefault(atom.predicate, len(atom.args))
    return sig


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_PUNCT2 = ("<-",)
_PUNCT1 = "(){}:;,.~!?=/"


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "number" | "punct" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def err(msg):
        raise ParseError(msg, line, col)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if text.startswith("<-", i):
            toks.append(_Token("punct", "<-", start_line, start_col))
            i += 2
            col += 2
            continue
        if c in _PUNCT1:
            toks.append(_Token("punct", c, start_line, start_col))
            i += 1
            col += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("ident", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            toks.append(_Token("number", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        err(f"unexpected character {c!r}")
    toks.append(_Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.domains: dict = {}
        self.exogenous: dict = {}
        self.arity: dict = {}  # every predicate seen so far -> arity
        self.constants: set = set()
        self.laws: list[CPLaw] = []
        self.laws_started = False
        self.depth = 0  # negations, quantifiers and parentheses now open

    # -- token plumbing ------------------------------------------------

    def peek(self, offset: int = 0) -> _Token:
        k = min(self.pos + offset, len(self.toks) - 1)
        return self.toks[k]

    def advance(self) -> _Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
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
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    # -- statements -----------------------------------------------------

    def parse_theory(self) -> Theory:
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "ident" and tok.text == "domain":
                self.parse_domain_decl()
            elif tok.kind == "ident" and tok.text == "exogenous":
                self.parse_exogenous_decl()
            else:
                self.laws.append(self.parse_law())
                self.laws_started = True
        return Theory(dict(self.domains), dict(self.exogenous), tuple(self.laws))

    def decl_guard(self, tok: _Token):
        if self.laws_started:
            self.fail("declarations must precede laws", tok)

    def parse_domain_decl(self):
        kw = self.advance()
        self.decl_guard(kw)
        name_tok = self.expect_ident("domain name")
        if name_tok.text in self.domains:
            self.fail(f"domain {name_tok.text!r} declared twice", name_tok)
        self.expect_punct("=")
        self.expect_punct("{")
        consts: list[str] = []
        if not self.at_punct("}"):
            while True:
                c = self.expect_ident("constant")
                if c.text in consts:
                    self.fail(f"constant {c.text!r} listed twice in domain {name_tok.text!r}", c)
                consts.append(c.text)
                if self.at_punct(","):
                    self.advance()
                    continue
                break
        self.expect_punct("}")
        self.expect_punct(".")
        self.domains[name_tok.text] = tuple(consts)
        self.constants.update(consts)

    def parse_exogenous_decl(self):
        kw = self.advance()
        self.decl_guard(kw)
        while True:
            name_tok = self.expect_ident("predicate name")
            arity = 0
            if self.at_punct("/"):
                self.advance()
                num = self.peek()
                if num.kind != "number" or not num.text.isdigit():
                    self.fail("expected arity (a plain integer)")
                self.advance()
                arity = int(num.text)
            if name_tok.text in self.exogenous:
                self.fail(f"exogenous predicate {name_tok.text!r} declared twice", name_tok)
            self.register_predicate(name_tok.text, arity, name_tok)
            self.exogenous[name_tok.text] = arity
            if self.at_punct(","):
                self.advance()
                continue
            break
        self.expect_punct(".")

    def register_predicate(self, name: str, arity: int, tok: _Token):
        seen = self.arity.get(name)
        if seen is None:
            self.arity[name] = arity
        elif seen != arity:
            self.fail(f"predicate {name!r} used with arity {arity}, previously {seen}", tok)

    # -- laws -------------------------------------------------------------

    def parse_law(self) -> CPLaw:
        start = self.peek()
        binders: list[tuple[str, str]] = []
        env: set = set()
        while self.at_punct("!") and self.is_binder_ahead():
            self.advance()
            var_tok = self.expect_ident("variable")
            self.expect_keyword("in")
            dom_tok = self.expect_ident("domain name")
            self.expect_punct(":")
            if var_tok.text in env:
                self.fail(f"law variable {var_tok.text!r} bound twice", var_tok)
            if dom_tok.text not in self.domains:
                self.fail(f"undeclared domain {dom_tok.text!r}", dom_tok)
            binders.append((var_tok.text, dom_tok.text))
            env.add(var_tok.text)

        head = [self.parse_head_disjunct(env)]
        while self.at_punct(";"):
            self.advance()
            head.append(self.parse_head_disjunct(env))

        seen_atoms = set()
        for d in head:
            if d.literal.atom in seen_atoms:
                self.fail(f"atom {d.literal.atom} appears in two disjuncts of the same head", start)
            seen_atoms.add(d.literal.atom)
        total = sum((d.prob for d in head), Fraction(0))
        if total > 1:
            self.fail(f"head probabilities sum to {total} > 1", start)

        body: Formula = TRUE
        if self.at_punct("<-"):
            self.advance()
            body = self.parse_or(env)
        self.expect_punct(".")
        return CPLaw(tuple(binders), tuple(head), body)

    def is_binder_ahead(self) -> bool:
        # at a law's start "!" can only open a binder, but double-check shape
        return (self.peek(1).kind == "ident"
                and self.peek(2).kind == "ident" and self.peek(2).text == "in")

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
        tok = self.peek()
        atom = self.parse_atom(env)
        if atom.predicate in self.exogenous:
            self.fail(f"exogenous atom {atom} may not occur in a head", tok)
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
        if value <= 0:
            self.fail(f"probability must be positive, got {value}", tok)
        if value > 1:
            self.fail(f"probability {value} exceeds 1", tok)
        return value

    # -- formulas -----------------------------------------------------------

    def parse_or(self, env: set) -> Formula:
        parts = [self.parse_and(env)]
        while self.at_punct(";"):
            self.advance()
            parts.append(self.parse_and(env))
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self, env: set) -> Formula:
        parts = [self.parse_unary(env)]
        while self.at_punct(","):
            self.advance()
            parts.append(self.parse_unary(env))
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
            kind = self.advance().text
            var_tok = self.expect_ident("variable")
            self.expect_keyword("in")
            dom_tok = self.expect_ident("domain name")
            if dom_tok.text not in self.domains:
                self.fail(f"undeclared domain {dom_tok.text!r}", dom_tok)
            self.expect_punct(":")
            sub = self.parse_unary(env | {var_tok.text})
            cls = ForAll if kind == "!" else Exists
            return cls(var_tok.text, dom_tok.text, sub)
        self.expect_punct("(")
        inner = self.parse_or(env)
        self.expect_punct(")")
        return inner

    def parse_atom(self, env: set) -> Atom:
        name_tok = self.expect_ident("predicate")
        args: list[Term] = []
        if self.at_punct("("):
            self.advance()
            while True:
                arg_tok = self.expect_ident("argument")
                if arg_tok.text in env:
                    args.append(Var(arg_tok.text))
                else:
                    if arg_tok.text not in self.constants:
                        self.fail(
                            f"undeclared constant {arg_tok.text!r} "
                            "(not in any domain; law variables need a '!x in d:' binder)",
                            arg_tok)
                    args.append(arg_tok.text)
                if self.at_punct(","):
                    self.advance()
                    continue
                break
            self.expect_punct(")")
        self.register_predicate(name_tok.text, len(args), name_tok)
        return Atom(name_tok.text, tuple(args))


def parse_theory(text: str) -> Theory:
    """Parse a whole theory (or a single-law string) into its AST."""
    return _Parser(text).parse_theory()


def _seeded_parser(text: str, theory: Theory | None) -> _Parser:
    """A parser over ``text`` that knows the theory's domains and predicates."""
    p = _Parser(text)
    if theory is not None:
        p.domains = dict(theory.domains)
        for consts in theory.domains.values():
            p.constants.update(consts)
        p.arity = dict(theory.exogenous)
        p.arity.update(endogenous_signature(theory))
    return p


def parse_formula(text: str, theory: Theory | None = None) -> Formula:
    """Parse a closed formula, e.g. a query.

    With ``theory`` given, predicates must occur in the theory (declared
    exogenous or used in some law), arities must match, and constants must be
    drawn from its domains.
    """
    p = _seeded_parser(text, theory)
    known = dict(p.arity)
    phi = p.parse_or(set())
    if p.peek().kind != "eof":
        p.fail("trailing input after formula")
    if theory is not None:
        for atom in formula_atoms(phi):
            if atom.predicate not in known:
                raise ParseError(f"unknown predicate {atom.predicate!r}", 1, 1)
    return phi


def parse_literal(text: str, theory: Theory | None = None) -> EffectLiteral:
    """Parse ``A`` or ``~A`` with ``A`` a ground atom."""
    p = _seeded_parser(text, theory)
    negated = False
    if p.at_punct("~"):
        p.advance()
        negated = True
    atom = p.parse_atom(set())
    if p.peek().kind != "eof":
        p.fail("trailing input after literal")
    return EffectLiteral(negated, atom)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def format_prob(p: Fraction) -> str:
    return str(p)  # Fraction prints in lowest terms, "9/10" or "1"


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
    if len(law.head) == 1 and law.head[0].prob == 1:
        head = str(law.head[0].literal)
    else:
        head = "; ".join(f"({d.literal}:{format_prob(d.prob)})" for d in law.head)
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


# ---------------------------------------------------------------------------
# Whole-theory validation (for programmatically built values)
# ---------------------------------------------------------------------------

def check_theory(t: Theory) -> None:
    """Raise `TheoryError` unless ``t`` satisfies all well-formedness rules.

    `parse_theory` enforces the same rules with source positions; this is the
    re-check used after programmatic construction (e.g. by transforms).
    """
    constants = set()
    for name, consts in t.domains.items():
        if name in KEYWORDS:
            raise TheoryError(f"domain name {name!r} is reserved")
        if len(set(consts)) != len(consts):
            raise TheoryError(f"domain {name!r} lists a constant twice")
        constants.update(consts)
    arity: dict = dict(t.exogenous)

    def check_atom(atom: Atom, bound: set, where: str):
        seen = arity.setdefault(atom.predicate, len(atom.args))
        if seen != len(atom.args):
            raise TheoryError(
                f"predicate {atom.predicate!r} used with arity {len(atom.args)}, previously {seen}")
        for a in atom.args:
            if isinstance(a, Var):
                if a.name not in bound:
                    raise TheoryError(f"unbound variable {a.name!r} in {where}")
            elif a not in constants:
                raise TheoryError(f"undeclared constant {a!r} in {where}")

    def check_formula(phi: Formula, bound: set):
        match phi:
            case Atom():
                check_atom(phi, bound, "body")
            case Truth():
                pass
            case Not(sub):
                check_formula(sub, bound)
            case And(parts) | Or(parts):
                if len(parts) < 2:
                    raise TheoryError("conjunction/disjunction needs at least two parts")
                for p in parts:
                    check_formula(p, bound)
            case ForAll(var, dom, sub) | Exists(var, dom, sub):
                if dom not in t.domains:
                    raise TheoryError(f"undeclared domain {dom!r} in quantifier")
                check_formula(sub, bound | {var})
            case _:
                raise TheoryError(f"not a formula: {phi!r}")

    for law in t.laws:
        bound = set()
        for v, d in law.vars:
            if v in bound:
                raise TheoryError(f"law variable {v!r} bound twice")
            if d not in t.domains:
                raise TheoryError(f"undeclared domain {d!r} in law binder")
            bound.add(v)
        if not law.head:
            raise TheoryError("law has an empty head")
        seen_atoms = set()
        for d in law.head:
            if d.prob <= 0 or d.prob > 1:
                raise TheoryError(f"probability {d.prob} outside (0, 1]")
            if d.literal.atom in seen_atoms:
                raise TheoryError(
                    f"atom {d.literal.atom} appears in two disjuncts of the same head")
            seen_atoms.add(d.literal.atom)
            if d.literal.atom.predicate in t.exogenous:
                raise TheoryError(f"exogenous atom {d.literal.atom} in a head")
            check_atom(d.literal.atom, bound, "head")
        if law.head_sum() > 1:
            raise TheoryError(f"head probabilities sum to {law.head_sum()} > 1")
        check_formula(law.body, bound)
