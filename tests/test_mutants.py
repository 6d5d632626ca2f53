"""Planted faults in the two walkers that the references must catch.

Each mutant is an exact snippet of `src/cplogic/engine.py` and its
replacement.  The test writes a copy of the package with the snippet
replaced under ``tmp_path`` and runs `tests/mutant_battery.py` on it in a
subprocess.  The battery must fail on every mutant and pass on the
unmutated copy, so it cannot pass vacuously.  A snippet that no longer
occurs fails its mutant's test by name: a rewrite of the walker restates
its mutants instead of losing them.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "cplogic"
BATTERY = TESTS / "mutant_battery.py"

PUSH = "layer[child] = layer.get(child, 0) + m * num * (step // den)"
MEMO = "memo: dict = {}  # finished key -> value"


def _memo_on(part: str) -> tuple:
    """`_fold`'s memo seeing only ``key[part]`` of each ``(I, N, F)`` key."""
    return MEMO, ("memo = type('Memo', (dict,), {m: (lambda f: lambda d, k, *v: "
                  f"f(d, k[{part}], *v))(getattr(dict, m)) for m in "
                  "('__contains__', '__getitem__', '__setitem__')})()")


MUTANTS = {
    # states of a layer with equal I share one numerator
    "layer keyed on I": (PUSH, "child = next((s for s in layer if s.true_atoms"
                         " == child.true_atoms), child); " + PUSH),
    # states of a layer with equal I and N share one numerator
    "layer keyed on (I, N)": (PUSH, "child = next((s for s in layer if (s.true_atoms,"
                              " s.negated) == (child.true_atoms, child.negated)),"
                              " child); " + PUSH),
    "highest-index law fired first": ("grown.append((state, num, app[0]))",
                                      "grown.append((state, num, app[-1]))"),
    "literal mode run as extended": ("app, _ = _classify(g, X, mode, state)",
                                     "app, _ = _classify(g, X, UMode.EXTENDED, state)"),
    "fold memo keyed on I": _memo_on(":1"),
    "fold memo keyed on (I, N)": _memo_on(":2"),
    "fold positive outcome ignores a pin": ("else (I | b & ~N, N, F | 1 << i))",
                                            "else (I | b, N, F | 1 << i))"),
}


def _battery(tmp_path: Path, mutant: tuple | None) -> subprocess.CompletedProcess:
    copy = tmp_path / "cplogic"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        snippet, replacement = mutant
        engine = copy / "engine.py"
        source = engine.read_text(encoding="utf-8")
        assert source.count(snippet) == 1, f"snippet not in engine.py once: {snippet!r}"
        engine.write_text(source.replace(snippet, replacement), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(tmp_path), str(TESTS))),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, str(BATTERY)], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)


def test_the_battery_passes_on_the_unmutated_package(tmp_path):
    proc = _battery(tmp_path, None)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("name", MUTANTS)
def test_the_battery_catches(name, tmp_path):
    proc = _battery(tmp_path, MUTANTS[name])
    assert proc.returncode == 1 and proc.stdout.startswith("battery failed"), \
        proc.stdout + proc.stderr
