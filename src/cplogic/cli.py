"""Command-line front end.

    cpl check THEORY [--exo ...]          parse, ground, stratify, probe soundness
    cpl dist THEORY [--exo ...] [--json|--tsv]
                                          full endogenous world distribution
    cpl query THEORY -q FORMULA           probability of a formula
    cpl do THEORY --lit ~A|A              print the intervened theory
    cpl compile THEORY --eliminate-neg-heads
                                          print the theory with negative heads removed
    cpl sweep THEORY [--budget N]         exhaustive firing-order sweep

THEORY is a path or ``-`` for standard input, so transforms compose:

    cpl do bp.cpl --lit "~HighBloodPressure" | cpl query - -q "Fatigue"

The four commands that run inference take ``--mode`` and ``--exo
"A=true,P(c)=false"`` (a trailing comma is allowed); ``do`` and ``compile``
take neither.  The assignment, the query and the literal are read by the
theory parser against the theory's vocabulary, so their errors carry a column.

Exit codes: 0 success, 1 usage or input error, 2 unsound theory,
3 node budget exceeded, 141 standard output closed before all output was
written (the code a shell reports for a process killed by SIGPIPE).  An
input that exhausts Python's recursion limit or memory, or is not UTF-8
text, is reported in one line as an input error (exit 1), never as a
traceback.  Output is deterministic: worlds are sorted and
every probability is printed as an exact rational with a 6-place decimal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import engine, oracle, transform
from .ground import ground, stratification_report
from .syntax import (ParseError, Theory, TheoryError, atom_names,
                     format_atom_set, parse_assignment, parse_formula,
                     parse_literal, parse_theory, print_theory)
from .threeval import UnboundAtomError


class UsageError(Exception):
    pass


def _fmt_prob(p: Fraction, form: str = "{} (= {})") -> str:
    return form.format(p, f"{p.numerator / p.denominator:.6f}")


def _json_rows(dist: engine.Distribution) -> list:
    return [{"world": atom_names(w), "p": str(p)} for w, p in dist.sorted_items()]


def _read_theory(path: str) -> Theory:
    try:
        if path == "-":
            # Decode the bytes strictly, as a file is; a stand-in stdin such
            # as io.StringIO has no bytes underneath and is read as text.
            buffer = getattr(sys.stdin, "buffer", None)
            text = (sys.stdin.read() if buffer is None
                    else buffer.read().decode("utf-8"))
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        source = "standard input" if path == "-" else path
        raise UsageError(f"cannot read {source}: {exc}") from exc
    return parse_theory(text)


def _budget(text: str) -> int:
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if budget < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {budget}")
    return budget


def _inference_input(args) -> tuple[Theory, frozenset, engine.UMode]:
    """The theory, X and U mode of a command that runs inference; the
    exogenous atoms that ``--exo`` does not set true are false."""
    theory = _read_theory(args.path)
    X = frozenset(a for a, value in parse_assignment(args.exo, theory).items() if value)
    return theory, X, engine.UMode(args.mode)


# -- subcommands -------------------------------------------------------------

def cmd_check(args) -> int:
    theory, X, mode = _inference_input(args)
    g = ground(theory)
    print(f"laws: {len(theory.laws)} ({len(g.laws)} ground instances)")
    print(f"endogenous atoms: {len(g.endogenous_atoms)}")
    print(f"exogenous atoms: {len(g.exogenous_atoms)}")
    print(stratification_report(g).describe())
    dist = engine.distribution(g, X, mode)
    print(f"soundness probe (exo={format_atom_set(X)}): ok ({len(dist)} worlds)")
    return 0


def cmd_dist(args) -> int:
    theory, X, mode = _inference_input(args)
    dist = engine.distribution(ground(theory), X, mode)
    if args.json:
        print(json.dumps({"distribution": _json_rows(dist), "mode": mode.value,
                          "exo": atom_names(X)}, indent=2))
        return 0
    rows = dist.sorted_items()
    if args.tsv:
        print("world\tp\tdecimal")
        for world, p in rows:
            print(",".join(atom_names(world)), _fmt_prob(p, "{}\t{}"), sep="\t")
    else:
        width = max((len(format_atom_set(w)) for w, _ in rows), default=0)
        for world, p in rows:
            print(f"{format_atom_set(world):<{width}}  {_fmt_prob(p)}")
    return 0


def cmd_query(args) -> int:
    theory, X, mode = _inference_input(args)
    phi = parse_formula(args.query, theory)
    p = engine.query(ground(theory), X, phi, mode)
    if args.json:
        print(json.dumps({"query": args.query, "p": str(p),
                          "mode": mode.value, "exo": atom_names(X)}))
    else:
        print(_fmt_prob(p))
    return 0


def cmd_do(args) -> int:
    theory = _read_theory(args.path)
    lit = parse_literal(args.lit, theory)
    print(print_theory(transform.intervene(theory, lit)), end="")
    return 0


def cmd_compile(args) -> int:
    theory = _read_theory(args.path)
    if not args.eliminate_neg_heads:
        raise UsageError("compile currently only supports --eliminate-neg-heads")
    out, _taumap = transform.tau_not(theory)
    print(print_theory(out), end="")
    return 0


def cmd_sweep(args) -> int:
    theory, X, mode = _inference_input(args)
    report = oracle.sweep_orders(ground(theory), X, mode, args.budget)
    if args.json:
        payload = {
            "models": report.models_explored,
            "states": report.states_explored,
            "budget": report.budget,
            "distinct": len(report.distributions),
            "distributions": [_json_rows(d) for d in report.distributions],
            "witness": report.witness.describe() if report.witness else None,
            "mode": mode.value,
            "exo": atom_names(X),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"execution models: {report.models_explored}")
    print(f"states explored: {report.states_explored} (budget {report.budget})")
    print(f"distinct distributions: {len(report.distributions)}")
    for k, dist in enumerate(report.distributions, 1):
        print(f"distribution {k}:")
        for world, p in dist.sorted_items():
            print(f"  {format_atom_set(world)}  {_fmt_prob(p)}")
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

    def common(p, infer=True):
        p.add_argument("path", help="theory file, or - for stdin")
        if infer:
            p.add_argument("--mode", choices=[m.value for m in engine.UMode],
                           default=engine.UMode.EXTENDED.value,
                           help="overestimate mode (default: extended)")
            p.add_argument("--exo", default="",
                           help='exogenous assignment, e.g. "Crank1=true,Locked(g1)=true"')

    p = sub.add_parser("check", help="parse, ground, stratify, probe soundness")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dist", help="print the full distribution")
    common(p)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--tsv", action="store_true")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("query", help="probability of a formula")
    common(p)
    p.add_argument("-q", "--query", required=True, help="ground formula to evaluate")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("do", help="apply an intervention and print the theory")
    common(p, infer=False)
    p.add_argument("--lit", required=True, help="intervention literal, ~A or A")
    p.set_defaults(func=cmd_do)

    p = sub.add_parser("compile", help="source-to-source compilation")
    common(p, infer=False)
    p.add_argument("--eliminate-neg-heads", action="store_true",
                   help="replace negative head literals by cause/block predicates")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("sweep", help="exhaustive firing-order sweep")
    common(p)
    p.add_argument("--budget", type=_budget, default=oracle.DEFAULT_BUDGET,
                   help="node budget for the sweep (default %(default)s)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away.  Point stdout at the null device so that the
        # interpreter's own flush at exit finds nothing left to complain about.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, TheoryError, transform.TransformError,
            UnboundAtomError, engine.ExogenousError) as exc:
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
