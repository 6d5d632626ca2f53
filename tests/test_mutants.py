"""Planted faults in the engine that the references must catch.

Each mutant names a module of `src/cplogic`, an exact snippet of it and
the snippet's replacement.  The test writes a copy of the package with the
snippet replaced under ``tmp_path`` and runs `tests/mutant_battery.py` on
it in a subprocess.  The battery must fail on every mutant and pass on the
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

PUSH = "below[child] = below.get(child, 0) + m * (num // den)"
MEMO = "memo: dict = {}  # finished key -> value"


def _memo_on(part: str) -> tuple:
    """`_fold`'s memo seeing only ``key[part]`` of each ``(I, N, F)`` key."""
    return "engine.py", MEMO, (
        "memo = type('Memo', (dict,), {m: (lambda f: lambda d, k, *v: "
        f"f(d, k[{part}], *v))(getattr(dict, m)) for m in "
        "('__contains__', '__getitem__', '__setitem__')})()")


MUTANTS = {
    # states of a layer with equal I share one numerator
    "layer keyed on I": ("engine.py", PUSH, "child = next((s for s in below if"
                         " s.true_atoms == child.true_atoms), child); " + PUSH),
    # states of a layer with equal I and N share one numerator
    "layer keyed on (I, N)": ("engine.py", PUSH, "child = next((s for s in below if"
                              " (s.true_atoms, s.negated) == (child.true_atoms,"
                              " child.negated)), child); " + PUSH),
    "highest-index law fired first": ("engine.py", "i = app[0]", "i = app[-1]"),
    "literal mode run as extended": ("engine.py", "app = _classify(g, X, mode, state)",
                                     "app = _classify(g, X, UMode.EXTENDED, state)"),
    "fold memo keyed on I": _memo_on(":1"),
    "fold memo keyed on (I, N)": _memo_on(":2"),
    "fold positive outcome ignores a pin": ("engine.py", "else (I | b & ~N, N, F | 1 << i))",
                                            "else (I | b, N, F | 1 << i))"),
    # `overestimate` without its `if b & pinned: continue`
    "U ignores pins": ("engine.py", "if b & pinned:\n                    continue\n"
                       "                ", ""),
    # sure[EXTENDED] = positive: a law reading a retractable atom skips U
    "every positive law sure in extended mode": (
        "engine.py", "i for i in positive if not self.reads[i][0] & retractable)",
        "i for i in positive)"),
    "evaluate does not flip under ~": ("threeval.py", "return 2 - evaluate(sub, value)",
                                       "return evaluate(sub, value)"),
    # two 1/2 laws in a row: 2 // 2 // 2 truncates to 0 in the forward walk
    "sweep denominator the lcm of the laws', not their product": (
        "engine.py", "return prod(_lcms(g, prog).values())", "return lcm(*_lcms(g, prog).values())"),
    # a world of probability 1 carries into the next field
    "sweep field one bit short": ("oracle.py", "k = (M := scale(0)).bit_length()",
                                  "k = (M := scale(0)).bit_length() - 1"),
    "sweep packs every world in one field": ("oracle.py", "ids.setdefault(key[0], len(ids))",
                                             "ids.setdefault(key[0], 0)"),
    # a leaf with an unfired live law holds more than its S
    "sweep leaf valued at M, not its S": ("oracle.py", "{scale(key[2]) << k", "{M << k"),
}


def _battery(tmp_path: Path, mutant: tuple | None) -> subprocess.CompletedProcess:
    copy = tmp_path / "cplogic"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        module, snippet, replacement = mutant
        path = copy / module
        source = path.read_text(encoding="utf-8")
        assert source.count(snippet) == 1, f"snippet not in {module} once: {snippet!r}"
        path.write_text(source.replace(snippet, replacement), encoding="utf-8")
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
