import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cplogic
from cplogic import theories
from cplogic.cli import main


@pytest.fixture
def suzy(tmp_path):
    path = tmp_path / "suzy.cpl"
    path.write_text(theories.BUNDLED["suzy_billy"].source)
    return str(path)


@pytest.fixture
def run(capsys, monkeypatch):
    def _run(args, stdin=""):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


def test_query_broken(run, suzy):
    code, out, err = run(["query", suzy, "-q", "Broken"])
    assert code == 0
    assert out == "19/25 (= 0.760000)\n"


def test_query_json(run, suzy):
    code, out, _ = run(["query", suzy, "-q", "Broken", "--json"])
    assert code == 0
    assert json.loads(out) == {"query": "Broken", "p": "19/25",
                               "mode": "extended", "exo": []}


def test_dist_table_sorted_and_exact(run, suzy):
    code, out, _ = run(["dist", suzy])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("{Broken, Throws(billy)}")
    assert "23/50 (= 0.460000)" in out


def test_dist_json_schema(run, suzy):
    code, out, _ = run(["dist", suzy, "--json"])
    payload = json.loads(out)
    assert set(payload) == {"distribution", "mode", "exo"}
    worlds = {tuple(row["world"]): row["p"] for row in payload["distribution"]}
    assert worlds[("Broken", "Throws(billy)", "Throws(suzy)")] == "23/50"


def test_dist_tsv(run, suzy):
    code, out, _ = run(["dist", suzy, "--tsv"])
    assert out.splitlines()[0] == "world\tp\tdecimal"
    assert "Broken,Throws(billy)\t3/10\t0.300000" in out


def test_repeated_runs_byte_identical(run, suzy):
    first = run(["dist", suzy])
    second = run(["dist", suzy])
    assert first == second


def test_exogenous_assignment_flag(run, tmp_path):
    path = tmp_path / "gears.cpl"
    path.write_text(theories.BUNDLED["gears"].source)
    code, out, _ = run(["query", str(path), "-q", "Turns(gear3)",
                        "--exo", "Crank1=true"])
    assert code == 0
    assert out == "81/100 (= 0.810000)\n"


def test_do_pipes_into_query(run, tmp_path):
    path = tmp_path / "bp.cpl"
    path.write_text(theories.BUNDLED["blood_pressure"].source)
    code, transformed, _ = run(["do", str(path), "--lit", "~HighBloodPressure"])
    assert code == 0
    code, out, _ = run(["query", "-", "-q", "Fatigue"], stdin=transformed)
    assert code == 0
    assert out == "0 (= 0.000000)\n"


def test_compile_eliminates_negative_heads(run, tmp_path):
    path = tmp_path / "sup.cpl"
    path.write_text(theories.BUNDLED["superhero"].source)
    code, out, _ = run(["compile", str(path), "--eliminate-neg-heads"])
    assert code == 0
    assert "~" not in out.split("<-")[0]  # no negative head in the first law
    assert "c_neg__Wound" in out
    # output parses back and queries identically on the original vocabulary
    code, p, _ = run(["query", "-", "-q", "HoleInWall",
                      "--exo", "Shoot(s)=true,Superhero(s)=true"], stdin=out)
    assert code == 0
    assert p == "3/10 (= 0.300000)\n"


def test_check_reports_and_exits_zero(run, suzy):
    code, out, _ = run(["check", suzy])
    assert code == 0
    assert "stratified: yes" in out
    assert "soundness probe" in out and "ok" in out


def test_check_unsound_exits_two_and_names_node(run, tmp_path):
    path = tmp_path / "loop.cpl"
    path.write_text(theories.BUNDLED["negation_loop"].source)
    code, out, err = run(["check", str(path)])
    assert code == 2
    assert "stuck at node" in err
    assert "I={} N={} fired=[]" in err


def test_sweep_human_output(run, suzy):
    code, out, _ = run(["sweep", suzy])
    assert code == 0
    assert "distinct distributions: 1" in out


def test_sweep_json_includes_witness_on_divergence(run, tmp_path):
    path = tmp_path / "lock.cpl"
    path.write_text(theories.BUNDLED["locked_gears"].source)
    code, out, _ = run(["sweep", str(path), "--mode", "literal",
                        "--exo", "Crank1=true,Locked(g1)=true", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["distinct"] >= 2
    assert payload["witness"]


def test_budget_exceeded_exits_three(run, tmp_path):
    path = tmp_path / "gears.cpl"
    path.write_text(theories.BUNDLED["gears"].source)
    code, _, err = run(["sweep", str(path), "--budget", "5",
                        "--exo", "Crank1=true,Crank2=true,Crank3=true"])
    assert code == 3
    assert "budget" in err


def test_usage_errors_exit_one(run, suzy, tmp_path):
    assert run(["frobnicate", suzy])[0] == 1
    code, _, err = run(["query", suzy, "-q", "Broken", "--exo", "Broken=true"])
    assert (code, err) == (1, "usage error: Broken is not exogenous\n")
    assert run(["query", suzy, "-q", "Broken", "--exo", "nonsense"])[0] == 1
    assert run(["query", "/no/such/file.cpl", "-q", "A"])[0] == 1
    gears = tmp_path / "gears.cpl"
    gears.write_text(theories.BUNDLED["gears"].source)
    code, _, err = run(["dist", str(gears), "--exo", "Crank1=true,Crank1=false"])
    assert code == 1 and "assigned twice" in err


def test_exogenous_assignment_errors_carry_a_column(run, tmp_path):
    gears = tmp_path / "gears.cpl"
    gears.write_text(theories.BUNDLED["gears"].source)
    code, out, err = run(["dist", str(gears), "--exo", "Crank1=maybe"])
    assert (code, out) == (1, "")
    assert err == "error: expected true or false, got 'maybe' (line 1, column 8)\n"


def test_exogenous_assignment_of_atoms_with_arguments(run, tmp_path):
    path = tmp_path / "reach.cpl"
    path.write_text("domain node = {a, b}.\nexogenous Start/1, Edge/2.\n"
                    "!x in node: Reach(x) <- Start(x).\n"
                    "!x in node: !y in node: (Reach(y):1/2) <- Reach(x), Edge(x, y).\n")
    code, out, _ = run(["query", str(path), "-q", "Reach(b)",
                        "--exo", "Start(a)=true,Edge(a, b)=true"])
    assert (code, out) == (0, "1/2 (= 0.500000)\n")


def test_do_rejects_an_unknown_predicate(run, suzy):
    for lit, col in (("Brokn", 1), ("~Brokn", 2)):
        code, out, err = run(["do", suzy, "--lit", lit])
        assert (code, out) == (1, "")
        assert err == f"error: unknown predicate 'Brokn' (line 1, column {col})\n"


def test_undeclared_constant_outside_theory_text_has_no_binder_hint(run, tmp_path):
    gears = str(tmp_path / "gears.cpl")
    Path(gears).write_text(theories.BUNDLED["gears"].source)
    for argv in (["dist", gears, "--exo", "Turns(gear9)=true"],
                 ["query", gears, "-q", "Turns(gear9)"]):
        code, out, err = run(argv)
        assert (code, out) == (1, "")
        assert err == ("error: undeclared constant 'gear9' (not in any domain) "
                       "(line 1, column 7)\n")


def test_options_that_do_nothing_are_usage_errors(run, suzy):
    code, out, err = run(["dist", suzy, "--json", "--tsv"])
    assert (code, out) == (1, "")
    assert err == "usage error: argument --tsv: not allowed with argument --json\n"
    for argv in (["do", suzy, "--lit", "Broken"], ["compile", suzy, "--eliminate-neg-heads"]):
        code, out, err = run(argv + ["--mode", "literal"])
        assert (code, out) == (1, "")
        assert err == "usage error: unrecognized arguments: --mode literal\n"


def test_non_ascii_input_is_a_parse_error(run):
    code, out, err = run(["dist", "-"], stdin="(A:\u00b2).")
    assert (code, out) == (1, "")
    assert err == "error: unexpected character '\u00b2' (line 1, column 4)\n"


def test_non_utf8_file_is_an_input_error(run, tmp_path):
    path = tmp_path / "bad.cpl"
    path.write_bytes(b"A <- \xff.\n")
    code, out, err = run(["dist", str(path)])
    assert (code, out) == (1, "")
    assert err == (f"usage error: cannot read {path}: 'utf-8' codec can't "
                   "decode byte 0xff in position 5: invalid start byte\n")


def test_non_utf8_stdin_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(b"A <- \xff.\n"), encoding="utf-8", errors="strict"))
    assert main(["dist", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage error: cannot read standard input: 'utf-8' "
                            "codec can't decode byte 0xff in position 5: "
                            "invalid start byte\n")


def test_closed_stdout_exits_quietly():
    """The reader of a pipe goes away before any output is written."""
    env = dict(os.environ, PYTHONPATH=str(Path(cplogic.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cplogic.cli", "dist", "-", "--json"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env)
    proc.stdout.close()  # before the theory arrives, so before any output
    proc.stdin.write(theories.BUNDLED["gears"].source.encode())
    proc.stdin.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_parse_errors_exit_one(run, tmp_path):
    path = tmp_path / "bad.cpl"
    path.write_text("(A:0.7); (B:0.5) <- C.")
    code, _, err = run(["check", str(path)])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("text", ["A <- " + "(" * 400 + "B" + ")" * 400 + ".",
                                  "A <- " + "~" * 5000 + "B."])
def test_deep_nesting_is_a_parse_error(run, text):
    code, out, err = run(["dist", "-"], stdin=text)
    assert (code, out) == (1, "")
    assert err == ("error: formula nested more than 100 levels deep "
                   "(line 1, column 106)\n")


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_last_resort_error_exits_one(run, suzy, monkeypatch, exc):
    def exhausted(*args, **kwargs):
        raise exc()

    monkeypatch.setattr("cplogic.engine.distribution", exhausted)
    code, out, err = run(["dist", suzy])
    assert (code, out) == (1, "")
    assert err == ("error: input too large or too deeply nested "
                   f"({exc.__name__})\n")


def test_non_utf8_stdin_subprocess_is_an_input_error():
    """The real standard input is decoded strictly, as a file is."""
    env = dict(os.environ, PYTHONPATH=str(Path(cplogic.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "cplogic.cli", "dist", "-"],
        input=b"A <- \xff.\n", capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == (b"usage error: cannot read standard input: 'utf-8' "
                           b"codec can't decode byte 0xff in position 5: "
                           b"invalid start byte\n")


@pytest.mark.parametrize("budget", ["-3", "0"])
def test_budget_below_one_is_a_usage_error(run, suzy, budget):
    code, out, err = run(["sweep", suzy, "--budget", budget])
    assert (code, out) == (1, "")
    assert err == ("usage error: argument --budget: must be at least 1, "
                   f"got {budget}\n")
    code, _, err = run(["sweep", suzy, "--budget", "many"])
    assert (code, err) == (1, "usage error: argument --budget: invalid int "
                              "value: 'many'\n")
