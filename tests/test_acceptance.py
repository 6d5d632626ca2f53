"""End-to-end acceptance suite.

Each test checks one release criterion at its exact tolerance (rational
equality throughout; no epsilons) and prints one PASS line with its runtime.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import time
from fractions import Fraction

import pytest

from cplogic import theories
from cplogic.cli import main
from cplogic.engine import (Distribution, SoundnessError, UMode,
                            build_execution_model, distribution, query)
from cplogic.ground import ground
from cplogic.oracle import sweep_orders
from cplogic.syntax import (endogenous_signature, parse_formula,
                            parse_literal, parse_theory, print_theory)
from cplogic.transform import intervene, internalize, tau_not

from helpers import atom, atoms, random_deterministic_theory
from reference_models import well_founded_model

NOTHING = frozenset()


class Criterion:
    def __init__(self, num: int, desc: str, limit_s: float):
        self.num, self.desc, self.limit = num, desc, limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None and elapsed < self.limit:
            print(f"PASS criterion {self.num}: {self.desc} "
                  f"({elapsed:.3f}s < {self.limit:g}s)")
            return False
        if exc_type is None:
            pytest.fail(f"criterion {self.num} exceeded its time budget: "
                        f"{elapsed:.3f}s >= {self.limit:g}s")
        print(f"FAIL criterion {self.num}: {self.desc}")
        return False


def test_criterion_01_u_table_reproduction():
    with Criterion(1, "three-valued table along the rightmost branch", 1.0):
        g = ground(theories.get("suzy_billy"))
        root = build_execution_model(g, NOTHING)
        branch = [root]
        while not branch[-1].is_leaf:
            branch.append(branch[-1].children[-1].child)
        assert len(branch) == 4
        expected = [
            (atoms(), atoms("Throws(suzy)", "Throws(billy)", "Broken"), atoms()),
            (atoms(), atoms("Throws(billy)", "Broken"), atoms("Throws(suzy)")),
            (atoms("Throws(billy)"), atoms("Broken"), atoms("Throws(suzy)")),
            (atoms("Throws(billy)"), atoms(), atoms("Throws(suzy)", "Broken")),
        ]
        for node, (t_set, u_set, f_set) in zip(branch, expected):
            assert node.u.true_set == t_set
            assert node.u.unknown_set == u_set
            assert node.u.false_set == f_set


SUZY_EXPECTED = Distribution({
    atoms("Throws(suzy)", "Throws(billy)", "Broken"): Fraction(23, 50),
    atoms("Throws(suzy)", "Throws(billy)"): Fraction(1, 25),
    atoms("Throws(billy)", "Broken"): Fraction(3, 10),
    atoms("Throws(billy)"): Fraction(1, 5),
})


def test_criterion_02_suzy_billy_distribution():
    with Criterion(2, "bottle distribution, engine and order sweep", 1.0):
        g = ground(theories.get("suzy_billy"))
        assert distribution(g, NOTHING) == SUZY_EXPECTED
        report = sweep_orders(g, NOTHING)
        assert len(report.distributions) == 1
        assert report.distributions[0] == SUZY_EXPECTED


def test_criterion_03_gear_chain_and_lock():
    with Criterion(3, "gear chain probability and the lock", 1.0):
        gears = theories.get("gears")
        g = ground(gears)
        assert query(g, atoms("Crank1"),
                     parse_formula("Turns(gear3)", gears)) == Fraction(81, 100)
        locked = theories.get("locked_gears")
        gl = ground(locked)
        X = atoms("Crank1", "Locked(g1)")
        assert query(gl, X, parse_formula("Turns(gear1)", locked), UMode.EXTENDED) == 0
        assert query(gl, X, parse_formula("Turns(gear2)", locked), UMode.EXTENDED) == 0


def test_criterion_04_internalized_intervention_equivalence():
    with Criterion(4, "guarded negative law equals the intervention", 1.0):
        base = theories.get("blood_pressure")
        guarded = internalize(base, atom("HighBloodPressure"), "BPMedicine")
        removed = intervene(base, parse_literal("~HighBloodPressure", base))
        g_base, g_guarded, g_removed = ground(base), ground(guarded), ground(removed)
        bls, gen = atoms("BadLifeStyle"), atoms("Genetics")
        for X in (NOTHING, bls, gen, bls | gen):
            assert distribution(g_guarded, X | atoms("BPMedicine")) \
                == distribution(g_removed, X)
            assert distribution(g_guarded, X) == distribution(g_base, X)
        assert query(g_removed, bls | gen,
                     parse_formula("Fatigue", removed)) == 0


def _exo_assignments(g, max_true=3):
    universe = sorted(g.exogenous_atoms, key=str)
    for k in range(min(max_true, len(universe)) + 1):
        for combo in itertools.combinations(universe, k):
            yield frozenset(combo)


@pytest.mark.parametrize("name", ["locked_gears", "superhero", "penguins",
                                  "probabilistic_birds"])
def test_criterion_05_negation_elimination_preserves_distributions(name):
    with Criterion(5, f"negation elimination is exact on {name}", 10.0):
        t = theories.get(name)
        compiled, _ = tau_not(t)
        vocab = set(endogenous_signature(t))
        g, gc = ground(t), ground(compiled)
        cases = 0
        for X in _exo_assignments(g):
            assert distribution(gc, X).project(vocab) == distribution(g, X)
            cases += 1
        assert cases > 1


def test_criterion_06_superhero_semantics():
    with Criterion(6, "superheroes are unwoundable, walls still suffer", 1.0):
        t = theories.get("superhero")
        g = ground(t)
        X = atoms("Shoot(s)", "Superhero(s)")
        assert query(g, X, parse_formula("Wound(s)", t)) == 0
        assert query(g, X, parse_formula("HoleInWall", t)) == Fraction(3, 10)


def test_criterion_07_order_invariance():
    with Criterion(7, "firing order never matters (except literal mode)", 30.0):
        positive = ["suzy_billy", "gears", "blood_pressure", "repeat_class"]
        negative = ["locked_gears", "superhero", "penguins", "probabilistic_birds"]
        for name in positive + negative:
            b = theories.BUNDLED[name]
            g = ground(b.theory())
            for X in b.exo_cases:
                report = sweep_orders(g, X, UMode.EXTENDED)
                assert report.invariant, (name, X)
                assert report.distributions[0] == distribution(g, X)
        lit = sweep_orders(ground(theories.get("locked_gears")),
                           atoms("Crank1", "Locked(g1)"), UMode.LITERAL)
        assert len(lit.distributions) >= 2
        assert lit.witness is not None


def test_criterion_08_well_founded_embedding():
    with Criterion(8, "deterministic theories agree with the well-founded model", 30.0):
        two_valued = three_valued = 0
        for seed in range(200):
            t = random_deterministic_theory(seed)
            g = ground(t)
            wfm = well_founded_model(g)
            try:
                d = distribution(g, NOTHING)
            except SoundnessError:
                assert wfm.unknown_set, f"seed {seed}"
                three_valued += 1
            else:
                assert not wfm.unknown_set, f"seed {seed}"
                (leaf,) = d
                assert leaf == wfm.true_set, f"seed {seed}"
                two_valued += 1
        assert two_valued and three_valued  # both regimes exercised


def test_criterion_09_unsoundness_exit_code(tmp_path, capsys):
    with Criterion(9, "loop over negation exits 2 and names the node", 1.0):
        path = tmp_path / "loop.cpl"
        path.write_text(theories.BUNDLED["negation_loop"].source)
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "stuck at node" in captured.err
        assert "I={} N={} fired=[]" in captured.err


def test_criterion_10_round_trip_and_determinism(tmp_path, capsys):
    with Criterion(10, "printer round-trips and CLI output is reproducible", 5.0):
        for name, bundle in sorted(theories.BUNDLED.items()):
            t = bundle.theory()
            assert parse_theory(print_theory(t)) == t, name
        path = tmp_path / "suzy.cpl"
        path.write_text(theories.BUNDLED["suzy_billy"].source)
        outputs = []
        for _ in range(2):
            assert main(["dist", str(path), "--json"]) == 0
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1]
        for _ in range(2):
            assert main(["sweep", str(path)]) == 0
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[2] == outputs[3]
