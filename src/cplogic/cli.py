"""Command-line front end.

    cpl check THEORY [--exo ...]          parse, ground, stratify, probe soundness
    cpl dist THEORY [--exo ...]           full endogenous world distribution
    cpl query THEORY -q FORMULA           probability of a formula
    cpl do THEORY --lit ~A|A              print the intervened theory
    cpl compile THEORY --eliminate-neg-heads
                                          print the theory with negative heads removed
    cpl sweep THEORY [--budget N]         exhaustive firing-order sweep

THEORY is a path or ``-`` for standard input, so transforms compose:

    cpl do bp.cpl --lit "~HighBloodPressure" | cpl query - -q "Fatigue"

Exit codes: 0 success, 1 usage or input error, 2 unsound theory,
3 node budget exceeded.  An input that exhausts Python's recursion limit or
memory is reported in one line as an input error (exit 1), never as a
traceback.  Output is deterministic: worlds are sorted and
every probability is printed as an exact rational with a 6-place decimal.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import engine, oracle, transform
from .ground import ground, stratification_report
from .syntax import (ParseError, Theory, TheoryError, parse_formula,
                     parse_literal, parse_theory, print_theory)
from .threeval import UnboundAtomError


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    exo: frozenset
    mode: engine.UMode
    fmt: str  # "human" | "json" | "tsv"
    budget: int


def _fmt_prob(p: Fraction) -> str:
    return f"{p} (= {p.numerator / p.denominator:.6f})"


def _fmt_world(world) -> str:
    return "{" + ", ".join(sorted(str(a) for a in world)) + "}"


def _world_list(world):
    return sorted(str(a) for a in world)


def _read_theory(path: str) -> Theory:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc}") from exc
    return parse_theory(text)


def _split_top_level(s: str) -> list[str]:
    parts, depth, current = [], 0, []
    for c in s:
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(c)
    if current:
        parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def parse_exogenous_assignment(spec: str | None, theory: Theory) -> frozenset:
    """Parse ``--exo "A=true,P(c)=false"``; unlisted exogenous atoms are false."""
    if not spec:
        return frozenset()
    X = set()
    seen = set()
    for item in _split_top_level(spec):
        if "=" not in item:
            raise UsageError(f"bad exogenous assignment {item!r}, expected atom=true|false")
        lhs, rhs = item.rsplit("=", 1)
        rhs = rhs.strip()
        if rhs not in ("true", "false"):
            raise UsageError(f"bad truth value {rhs!r} in exogenous assignment")
        lit = parse_literal(lhs.strip(), theory)
        if lit.negated:
            raise UsageError(f"use {lit.atom}=false rather than a negated atom")
        if lit.atom.predicate not in theory.exogenous:
            raise UsageError(f"{lit.atom} is not exogenous")
        if not lit.atom.is_ground():
            raise UsageError(f"exogenous assignment atom {lit.atom} is not ground")
        if lit.atom in seen:
            raise UsageError(f"{lit.atom} assigned twice")
        seen.add(lit.atom)
        if rhs == "true":
            X.add(lit.atom)
    return frozenset(X)


def _config(args) -> tuple[Theory, RunConfig]:
    theory = _read_theory(args.path)
    exo = parse_exogenous_assignment(getattr(args, "exo", None), theory)
    fmt = "json" if getattr(args, "json", False) else (
        "tsv" if getattr(args, "tsv", False) else "human")
    cfg = RunConfig(exo, engine.UMode(args.mode), fmt,
                    getattr(args, "budget", 1_000_000))
    return theory, cfg


def _print_dist(dist: engine.Distribution, cfg: RunConfig):
    rows = dist.sorted_items()
    if cfg.fmt == "json":
        payload = {
            "distribution": [{"world": _world_list(w), "p": str(p)} for w, p in rows],
            "mode": cfg.mode.value,
            "exo": _world_list(cfg.exo),
        }
        print(json.dumps(payload, indent=2))
    elif cfg.fmt == "tsv":
        print("world\tp\tdecimal")
        for world, p in rows:
            atoms = ",".join(_world_list(world))
            print(f"{atoms}\t{p}\t{p.numerator / p.denominator:.6f}")
    else:
        width = max((len(_fmt_world(w)) for w, _ in rows), default=0)
        for world, p in rows:
            print(f"{_fmt_world(world):<{width}}  {_fmt_prob(p)}")


# -- subcommands -------------------------------------------------------------

def cmd_check(args) -> int:
    theory, cfg = _config(args)
    g = ground(theory)
    print(f"laws: {len(theory.laws)} ({len(g.laws)} ground instances)")
    print(f"endogenous atoms: {len(g.endogenous_atoms)}")
    print(f"exogenous atoms: {len(g.exogenous_atoms)}")
    print(stratification_report(g).describe())
    dist = engine.distribution(g, cfg.exo, cfg.mode)
    print(f"soundness probe (exo={_fmt_world(cfg.exo)}): ok ({len(dist)} worlds)")
    return 0


def cmd_dist(args) -> int:
    theory, cfg = _config(args)
    dist = engine.distribution(ground(theory), cfg.exo, cfg.mode)
    _print_dist(dist, cfg)
    return 0


def cmd_query(args) -> int:
    theory, cfg = _config(args)
    phi = parse_formula(args.query, theory)
    p = engine.query(ground(theory), cfg.exo, phi, cfg.mode)
    if cfg.fmt == "json":
        print(json.dumps({"query": args.query, "p": str(p),
                          "mode": cfg.mode.value, "exo": _world_list(cfg.exo)}))
    else:
        print(_fmt_prob(p))
    return 0


def cmd_do(args) -> int:
    theory, _cfg = _config(args)
    lit = parse_literal(args.lit, theory)
    print(print_theory(transform.intervene(theory, lit)), end="")
    return 0


def cmd_compile(args) -> int:
    theory, _cfg = _config(args)
    if not args.eliminate_neg_heads:
        raise UsageError("compile currently only supports --eliminate-neg-heads")
    out, _taumap = transform.tau_not(theory)
    print(print_theory(out), end="")
    return 0


def cmd_sweep(args) -> int:
    theory, cfg = _config(args)
    report = oracle.sweep_orders(ground(theory), cfg.exo, cfg.mode, cfg.budget)
    if cfg.fmt == "json":
        payload = {
            "models": report.models_explored,
            "states": report.states_explored,
            "budget": report.budget,
            "distinct": len(report.distributions),
            "distributions": [
                [{"world": _world_list(w), "p": str(p)} for w, p in d.sorted_items()]
                for d in report.distributions],
            "witness": report.witness.describe() if report.witness else None,
            "mode": cfg.mode.value,
            "exo": _world_list(cfg.exo),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"execution models: {report.models_explored}")
    print(f"states explored: {report.states_explored} (budget {report.budget})")
    print(f"distinct distributions: {len(report.distributions)}")
    for k, dist in enumerate(report.distributions, 1):
        print(f"distribution {k}:")
        for world, p in dist.sorted_items():
            print(f"  {_fmt_world(world)}  {_fmt_prob(p)}")
    if report.witness is not None:
        print(f"divergence witness: {report.witness.describe()}")
    return 0


# -- argument plumbing --------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="cpl", description=__doc__,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, exo=True):
        p.add_argument("path", help="theory file, or - for stdin")
        p.add_argument("--mode", choices=[m.value for m in engine.UMode],
                       default=engine.UMode.EXTENDED.value,
                       help="overestimate mode (default: extended)")
        if exo:
            p.add_argument("--exo", default="",
                           help='exogenous assignment, e.g. "Crank1=true,Locked(g1)=true"')

    p = sub.add_parser("check", help="parse, ground, stratify, probe soundness")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dist", help="print the full distribution")
    common(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--tsv", action="store_true")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("query", help="probability of a formula")
    common(p)
    p.add_argument("-q", "--query", required=True, help="ground formula to evaluate")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("do", help="apply an intervention and print the theory")
    common(p, exo=False)
    p.add_argument("--lit", required=True, help="intervention literal, ~A or A")
    p.set_defaults(func=cmd_do)

    p = sub.add_parser("compile", help="source-to-source compilation")
    common(p, exo=False)
    p.add_argument("--eliminate-neg-heads", action="store_true",
                   help="replace negative head literals by cause/block predicates")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("sweep", help="exhaustive firing-order sweep")
    common(p)
    p.add_argument("--budget", type=int, default=1_000_000,
                   help="node budget for the sweep (default 1000000)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, TheoryError, transform.TransformError,
            UnboundAtomError, engine.ExogenousError, oracle.OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except engine.SoundnessError as exc:
        print(f"unsound: {exc}", file=sys.stderr)
        return 2
    except oracle.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError) as exc:
        # Last resort: whatever input got this far, it gets no traceback.
        print(f"error: input too large or too deeply nested "
              f"({type(exc).__name__})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
