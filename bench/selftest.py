#!/usr/bin/env python3
"""Self-test of the benchmark itself, not of `cplogic`.

    python3 bench/selftest.py

It checks that the generators are byte-identical for a seed, that the
closed-form references and recorded digests agree with the engine at this
commit, and that the span self-time arithmetic is right.
"""

from __future__ import annotations

import random
import sys
import tempfile
import unittest
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import runner  # noqa: E402
import workloads as wl  # noqa: E402
from cplogic import (distribution, ground, parse_literal,  # noqa: E402
                     parse_theory, sweep_orders)
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402


def engine_dist(text: str, exo=()) -> dict:
    theory = parse_theory(text)
    X = frozenset(parse_literal(a, theory).atom for a in exo)
    return runner.normalize("dist", distribution(ground(theory), X).sorted_items())


class Generators(unittest.TestCase):
    def build_files(self, name: str, seed: int) -> dict:
        with tempfile.TemporaryDirectory() as d:
            wl.build(name, seed, Path(d))
            return {p.name: p.read_bytes() for p in sorted(Path(d).iterdir())}

    def test_same_seed_same_bytes(self):
        for name in wl.NAMES:
            with self.subTest(name):
                first = self.build_files(name, 7)
                self.assertEqual(first, self.build_files(name, 7))
                self.assertNotEqual(first, self.build_files(name, 8))

    def test_same_seed_same_requests(self):
        def argvs(name, seed):
            with tempfile.TemporaryDirectory() as d:
                return [[s.argv(Path(r.file).name) for s in r.steps]
                        for r in wl.build(name, seed, Path(d))]
        for name in wl.NAMES:
            with self.subTest(name):
                self.assertEqual(argvs(name, 3), argvs(name, 3))

    def test_stratified_generator_is_stratified(self):
        from cplogic import stratification_report
        for seed in range(30):
            text = gen.stratified(random.Random(seed), 12, 10)
            report = stratification_report(ground(parse_theory(text)))
            self.assertTrue(report.stratified, text)

    def test_relabel_keeps_the_distribution(self):
        text = wl.sweep_structure(next(iter(wl.SWEEP_DIGESTS)))
        renamed, names = gen.relabel(random.Random(1), text)
        self.assertNotEqual(text, renamed)
        self.assertEqual(wl.dist_digest(engine_dist(renamed), names),
                         wl.dist_digest(engine_dist(text)))


class References(unittest.TestCase):
    def test_chain(self):
        for n in (1, 4, 7):
            text = gen.chain(random.Random(n), n)
            self.assertEqual(engine_dist(text, ("Crank",)), wl.chain_dist(n))
            for k in range(n + 1):
                got = engine_dist(text, ("Crank", f"Locked(g{k})"))
                self.assertEqual(got, wl.chain_dist(n, k), (n, k))

    def test_coins(self):
        for n in (1, 3, 6):
            self.assertEqual(engine_dist(gen.coins(random.Random(n), n)),
                             wl.coins_dist(n))

    def test_reach(self):
        text, nodes = gen.domain(random.Random(2), 6)
        a, b, c = nodes[:3]
        path = (f"Start({a})", f"Edge({a}, {b})", f"Edge({b}, {c})")
        self.assertEqual(engine_dist(text, path), wl.reach_dist([a, b, c]))
        cut = engine_dist(text, path + (f"Cut({b})",))
        self.assertEqual(cut, wl.reach_dist([a]))

    def test_sweep_digests(self):
        for seed, (digest, worlds) in wl.SWEEP_DIGESTS.items():
            with self.subTest(seed):
                theory = parse_theory(wl.sweep_structure(seed))
                dist = engine_dist(wl.sweep_structure(seed))
                self.assertEqual(wl.dist_digest(dist), digest)
                self.assertEqual(len(dist), worlds)
                report = sweep_orders(ground(theory), frozenset())
                self.assertEqual(len(report.distributions), 1)

    def test_every_request_passes_as_library_calls(self):
        for name in wl.NAMES:
            with tempfile.TemporaryDirectory() as d:
                for req in wl.build(name, 0, Path(d)):
                    with self.subTest(f"{name}: {req.label}"):
                        self.assertIsNone(runner.run_lib(req).error)

    def test_a_wrong_answer_fails(self):
        with tempfile.TemporaryDirectory() as d:
            req = wl.build("coins", 0, Path(d))[1]  # query Cj = 1/2
            self.assertIsNone(req.check(Fraction(1, 2)))
            self.assertIsNotNone(req.check(Fraction(1, 3)))


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            Span("cli.main", 0, 100, -1, 0),
            Span("distribution", 10, 40, 0, 0),
            Span("compute_U", 15, 20, 1, 0),
            Span("compute_U", 25, 35, 1, 0),
            Span("print_theory", 60, 90, 0, 0),
        ]
        self.assertEqual(self_times(spans), [40, 15, 5, 10, 30])

    def test_overlapping_children_count_once(self):
        spans = [Span("a", 0, 100, -1, 0), Span("b", 10, 50, 0, 0),
                 Span("c", 30, 70, 0, 0)]
        self.assertEqual(self_times(spans)[0], 40)

    def test_layer_metrics(self):
        spans = [
            Span("cli.main", 0, 100, -1, 0),
            Span("distribution", 10, 70, 0, 0),
            Span("compute_U", 15, 25, 1, 0),
            Span("satisfied_unfired", 25, 30, 1, 0),
            Span("apply_disjunct", 30, 32, 1, 0),
            Span("sweep_orders", 80, 95, 0, 0),
            Span("compute_U", 82, 90, 5, 0),
        ]
        m = layer_metrics(spans, Counter(dist_calls=1))
        ns = 1e-9
        self.assertAlmostEqual(m["cli.self_s"], 25 * ns)
        self.assertAlmostEqual(m["engine.infer_s"], 60 * ns)
        self.assertAlmostEqual(m["engine.u_s"], 10 * ns)
        self.assertAlmostEqual(m["engine.mix_self_s"], 43 * ns)
        self.assertAlmostEqual(m["oracle.sweep_u_s"], 8 * ns)
        self.assertAlmostEqual(m["oracle.mix_self_s"], 7 * ns)
        self.assertEqual(m["engine.states"], 1)
        self.assertEqual(m["engine.u_calls"], 1)
        self.assertEqual(m["engine.memo_hits"], 1)  # 1 expansion + 1 root - 1 state


class Statistics(unittest.TestCase):
    def test_midmean(self):
        from run import midmean
        self.assertEqual(midmean([7]), 7)
        self.assertEqual(midmean([4, 1, 3, 2]), 2.5)
        self.assertEqual(midmean([100, 1, 2, 3, 0]), 2)  # drops 0 and 100


class Patching(unittest.TestCase):
    def test_install_and_uninstall(self):
        from tracing import COUNTED, TIMED
        sites = [(o, a) for o, a, _ in TIMED] + COUNTED
        before = [o.__dict__[a] for o, a in sites]
        tracer = Tracer()
        tracer.install()
        try:
            self.assertTrue(all(o.__dict__[a] is not f for (o, a), f in zip(sites, before)))
            text = gen.coins(random.Random(0), 3)
            with tempfile.TemporaryDirectory() as d:
                path = Path(d) / "t.cpl"
                path.write_text(text)
                from cplogic import cli
                req = wl.Request("q", str(path), (wl.Step("query", "Any"),),
                                 lambda got: None if got == Fraction(7, 8) else got)
                self.assertIsNone(runner.run_inproc(req, cli.main).error)
        finally:
            tracer.uninstall()
        self.assertEqual([o.__dict__[a] for o, a in sites], before)
        names = {s.name for s in tracer.spans}
        self.assertLessEqual({"parse_theory", "ground", "query", "distribution",
                              "compute_U", "apply_disjunct"}, names)
        self.assertGreater(tracer.counts["u_body_evals"], 0)
        self.assertGreater(tracer.counts["holds_calls"], 0)


if __name__ == "__main__":
    unittest.main()
