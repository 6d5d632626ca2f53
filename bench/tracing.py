"""Spans around the public functions of each `cplogic` layer.

`Tracer.install()` replaces each traced function at every module that
binds it, since `cli`, `engine` and `oracle` import names with `from .x
import y` and patching the defining module alone would miss those calls.
`uninstall()` puts the originals back.  The benchmark's own `runner`,
which makes the library calls, is patched the same way.  Spans (name,
start, end, parent, request) stay in memory until `layer_metrics` folds
them into per-layer numbers.  `kleene_eval` and `holds` run hundreds of thousands of times per
request, so they are only counted, never timed.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import NamedTuple

import runner
from cplogic import cli, engine, oracle, transform


class Span(NamedTuple):
    name: str
    start: int  # ns
    end: int  # ns
    parent: int  # index into the span list, -1 at top level
    request: int


# (module, attribute, span name): every import site of each traced function.
TIMED = [
    (cli, "parse_theory", "parse_theory"),
    (cli, "parse_formula", "parse_formula"),
    (cli, "parse_literal", "parse_literal"),
    (cli, "print_theory", "print_theory"),
    (cli, "ground", "ground"),
    (cli, "stratification_report", "stratification_report"),
    (engine, "distribution", "distribution"),
    (engine, "query", "query"),
    (engine, "compute_U", "compute_U"),
    (engine, "satisfied_unfired", "satisfied_unfired"),
    (engine, "apply_disjunct", "apply_disjunct"),
    (engine.Distribution, "sorted_items", "sorted_items"),
    (oracle, "sweep_orders", "sweep_orders"),
    (oracle, "compute_U", "compute_U"),
    (oracle, "satisfied_unfired", "satisfied_unfired"),
    (oracle, "applicable", "applicable"),
    (oracle, "apply_disjunct", "apply_disjunct"),
    (transform, "intervene", "intervene"),
    (transform, "tau_not", "tau_not"),
] + [(runner, name, name) for name in (
    "parse_theory", "parse_formula", "parse_literal", "print_theory", "ground",
    "stratification_report", "distribution", "query", "sweep_orders",
    "intervene", "tau_not")]
_OBSERVED = frozenset({"parse_theory", "ground", "query", "distribution",
                       "sweep_orders", "intervene", "tau_not"})
COUNTED = [
    (engine, "kleene_eval"),
    (engine, "holds"),
    (oracle, "holds"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []  # open span indices
        self.names: list[str] = []  # names of the open spans
        self.counts: Counter = Counter()
        self.request = 0
        self._saved: list = []

    # -- patching -----------------------------------------------------------

    def install(self):
        for owner, attr, name in TIMED:
            self._patch(owner, attr, self.timed(name, getattr(owner, attr)))
        for owner, attr in COUNTED:
            fn = getattr(owner, attr)
            self._patch(owner, attr, self._kleene(fn) if attr == "kleene_eval"
                        else self._count("holds_calls", fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def timed(self, name: str, fn):
        spans, stack, names = self.spans, self.stack, self.names

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            names.append(name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                names.pop()
                spans[index] = Span(name, start, end, parent, self.request)
            if name in _OBSERVED:
                self._observe(name, args, result)
            return result
        return wrapper

    def _kleene(self, fn):
        counts, names = self.counts, self.names

        def wrapper(*args, **kwargs):
            if names and names[-1] == "compute_U":
                counts["u_body_evals"] += 1
            else:
                counts["gate_body_evals"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _observe(self, name: str, args, result):
        """Sizes read off arguments and results at the layer boundary."""
        c = self.counts
        if name == "parse_theory":
            c["source_bytes"] += len(args[0].encode())
        elif name == "ground":
            c["laws"] += len(result.laws)
            c["endo_atoms"] += len(result.endogenous_atoms)
            c["exo_atoms"] += len(result.exogenous_atoms)
        elif name == "query":
            c["query_laws"] += len(args[0].laws)
        elif name == "distribution":
            c["dist_calls"] += 1
            c["worlds"] += len(result)
        elif name == "sweep_orders":
            c["sweep_states"] += result.states_explored
            c["sweep_distinct"] += len(result.distributions)
        elif name == "intervene":
            c["out_laws"] += len(result.laws)
        elif name == "tau_not":
            c["out_laws"] += len(result[0].laws)


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s.start
        for j in sorted(children.get(i, ()), key=lambda j: spans[j].start):
            lo, hi = max(spans[j].start, reach), min(spans[j].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _within(spans: list, i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


TIMES = ("syntax.parse_s", "syntax.print_s", "ground.ground_s", "ground.stratify_s",
         "engine.infer_s", "engine.u_s", "engine.sat_s", "engine.expand_s",
         "engine.mix_self_s", "engine.sort_s", "transform.tau_not_s",
         "transform.intervene_s", "oracle.sweep_s", "oracle.sweep_u_s",
         "oracle.mix_self_s", "cli.main_s", "cli.self_s")


def layer_metrics(spans: list, counts: Counter) -> dict:
    """Per-layer totals for one pass: times in seconds, the rest counts."""
    ns: Counter = Counter(dict.fromkeys(TIMES, 0))
    n: Counter = Counter(counts)
    selfs = self_times(spans)
    for i, s in enumerate(spans):
        dur = s.end - s.start
        if s.name in ("parse_theory", "parse_formula", "parse_literal"):
            ns["syntax.parse_s"] += dur
        elif s.name == "print_theory":
            ns["syntax.print_s"] += dur
        elif s.name == "ground":
            ns["ground.ground_s"] += dur
        elif s.name == "stratification_report":
            ns["ground.stratify_s"] += dur
        elif s.name == "distribution":
            ns["engine.infer_s"] += dur
            ns["engine.mix_self_s"] += selfs[i]
        elif s.name == "sorted_items":
            ns["engine.sort_s"] += dur
        elif s.name == "tau_not":
            ns["transform.tau_not_s"] += dur
        elif s.name == "intervene":
            ns["transform.intervene_s"] += dur
        elif s.name == "sweep_orders":
            ns["oracle.sweep_s"] += dur
            ns["oracle.mix_self_s"] += selfs[i]
        elif s.name == "cli.main":
            ns["cli.main_s"] += dur
            ns["cli.self_s"] += selfs[i]
        elif s.name in ("compute_U", "satisfied_unfired", "apply_disjunct"):
            if _within(spans, i, "sweep_orders"):
                if s.name == "compute_U":
                    ns["oracle.sweep_u_s"] += dur
                continue
            if s.name == "compute_U":
                ns["engine.u_s"] += dur
                n["u_calls"] += 1
            elif s.name == "satisfied_unfired":
                ns["engine.sat_s"] += dur
                n["states"] += 1
                if _within(spans, i, "query"):
                    n["query_states"] += 1
            else:
                ns["engine.expand_s"] += dur
                n["expand_calls"] += 1
    lookups = n["expand_calls"] + n["dist_calls"]
    hits = lookups - n["states"]
    out = {k: v / 1e9 for k, v in ns.items()}
    out.update({
        "engine.u_calls": n["u_calls"],
        "engine.states": n["states"],
        "engine.query_states": n["query_states"],
        "engine.worlds": n["worlds"],
        "engine.expand_calls": n["expand_calls"],
        "engine.memo_hits": hits,
        "engine.memo_hit_ratio": hits / lookups if lookups else 0.0,
        "threeval.u_body_evals": n["u_body_evals"],
        "threeval.gate_body_evals": n["gate_body_evals"],
        "threeval.holds_calls": n["holds_calls"],
        "syntax.source_bytes": n["source_bytes"],
        "ground.laws": n["laws"],
        "ground.query_laws": n["query_laws"],
        "ground.endo_atoms": n["endo_atoms"],
        "ground.exo_atoms": n["exo_atoms"],
        "transform.out_laws": n["out_laws"],
        "oracle.sweep_states": n["sweep_states"],
        "oracle.sweep_distinct": n["sweep_distinct"],
        "trace.spans": len(spans),
    })
    return out
