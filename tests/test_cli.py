import hashlib
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


def test_do_renames_a_quantifier_that_would_capture_a_constant(run):
    theory = "domain d = {a, b}.\n!y in d: P(y) <- ?b in d: Q(b, y).\n!y in d: Q(y, y).\n"
    code, transformed, _ = run(["do", "-", "--lit", "~P(a)"], stdin=theory)
    assert code == 0
    assert transformed == ("domain d = {a, b}.\n\n"
                           "P(b) <- ?b1 in d: Q(b1,b).\n!y in d: Q(y,y).\n")
    code, out, _ = run(["dist", "-"], stdin=transformed)
    assert code == 0
    assert out == "{P(b), Q(a,a), Q(b,b)}  1 (= 1.000000)\n"


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


def test_compile_without_a_transform_is_a_usage_error(run, suzy):
    code, out, err = run(["compile", suzy])
    assert (code, out) == (1, "")
    assert err == ("usage error: compile currently only supports "
                   "--eliminate-neg-heads\n")


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


def test_sweep_human_output_names_the_divergence_witness(run, tmp_path):
    path = tmp_path / "lock.cpl"
    path.write_text(theories.BUNDLED["locked_gears"].source)
    code, out, _ = run(["sweep", str(path), "--mode", "literal",
                        "--exo", "Crank1=true,Locked(g1)=true"])
    assert code == 0
    assert "distinct distributions: 2\n" in out
    assert out.splitlines()[-1] == (
        "divergence witness: at node [I={Turns(gear1)} N={} fired=[0]] "
        "reached via fire 0 (Turns(gear1)): law 4 and law 7 admit different "
        "distributions")


def test_sweep_reports_the_default_budget(run, suzy):
    code, out, _ = run(["sweep", suzy, "--json"])
    assert code == 0
    assert json.loads(out)["budget"] == cplogic.oracle.DEFAULT_BUDGET == 100_000
    code, out, _ = run(["sweep", suzy])
    assert "(budget 100000)\n" in out


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
    assert (code, err) == (1, "error: Broken is not exogenous (line 1, column 1)\n")
    assert run(["query", suzy, "-q", "Broken", "--exo", "nonsense"])[0] == 1
    assert run(["query", "/no/such/file.cpl", "-q", "A"])[0] == 1
    gears = tmp_path / "gears.cpl"
    gears.write_text(theories.BUNDLED["gears"].source)
    code, _, err = run(["dist", str(gears), "--exo", "Crank1=true,Crank1=false"])
    assert code == 1 and "assigned twice" in err
    code, out, err = run(["dist", str(gears), "--exo", "Crank1=true,Turns(gear1)=false"])
    assert (code, out) == (1, "")
    assert err == "error: Turns(gear1) is not exogenous (line 1, column 13)\n"


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


def test_query_ranges_over_the_theory_vocabulary(run):
    text = "domain d = {a, b}. P(a).\n"
    assert run(["query", "-", "-q", "P(b)"], stdin=text) == (0, "0 (= 0.000000)\n", "")
    assert run(["query", "-", "-q", "?x in d: P(x)"], stdin=text) == (
        0, "1 (= 1.000000)\n", "")
    # P's only law ranges over an empty domain: P has no ground atom at all
    text = "domain d = {}. domain e = {c}. !x in d: P(x). Q.\n"
    assert run(["query", "-", "-q", "P(c)"], stdin=text) == (0, "0 (= 0.000000)\n", "")


def test_a_head_that_grounds_to_one_atom_twice_is_rejected(run):
    for text in ("domain d = {a}.\n!x in d: !y in d: (P(x):1/2); (P(y):1/2).\n",
                 "domain d = {a}.\n(P(a):1/2); (P(a):1/2).\n"):
        code, out, err = run(["dist", "-"], stdin=text)
        assert (code, out) == (1, "")
        assert err.startswith("error: atom P(a) appears in two disjuncts of the same head")


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


def _matrix(name: str) -> list:
    """Every CLI request over one bundled theory, its path written ``-``:
    each inference command under each representative world in both modes,
    a query of every endogenous ground atom, ``do`` on every endogenous
    ground atom in both polarities, and ``compile``."""
    bundled = theories.BUNDLED[name]
    atoms = sorted(str(a) for a in cplogic.ground(bundled.theory()).endogenous_atoms)
    argvs = []
    for case in bundled.exo_cases:
        exo = ",".join(f"{a}=true" for a in sorted(str(a) for a in case))
        for mode in ("extended", "literal"):
            infer = ["-", "--mode", mode, "--exo", exo]
            argvs += [["check", *infer], ["dist", *infer],
                      ["dist", *infer, "--json"], ["dist", *infer, "--tsv"],
                      ["sweep", *infer], ["sweep", *infer, "--json"]]
            argvs += [["query", *infer, "-q", a] for a in atoms]
    argvs += [["do", "-", "--lit", sign + a] for a in atoms for sign in ("", "~")]
    argvs.append(["compile", "-", "--eliminate-neg-heads"])
    return argvs


# SHA-256 over (argv with the theory's name for its path, exit code, stdout,
# stderr) of every request of `_matrix`, in order.  A change to any byte the
# CLI writes, or to its exit code, on a bundled theory shows here.
CLI_DIGESTS = {
    "blood_pressure": "0250401728bf961baf4b85115ec77f866358bfb184f2f135966fdb2f58554e12",
    "gears": "0e8a1b3298a1d35a5810df32db40781083e6921ffe0ee999a1aec7c1665cc9e8",
    "locked_gears": "ef25a83f2d3dad8d93b5c228ca014435d53aa88e45496492760689f055a61e5b",
    "negation_loop": "91c427aa196758ef49e0ebbe5fde1d9a982c82d0a9355e72be0be10ba259b5df",
    "penguins": "31d3f4fe84b496c9cc8bd4bd716c347e134574a72f23be06a950dda3d07aeef1",
    "probabilistic_birds": "f297bbf01313e5fb466cfb072ae80e1ec0aa5e5af4890003761246e3b07cdbca",
    "repeat_class": "cda1864258cf15657206793fd903433a0252baeb2ebef37a0a08d0ca11b82fd8",
    "superhero": "04e74949641bdb6a30d214ee93eb00a15102a1152adc1034506eaa1ce4ded58c",
    "suzy_billy": "34174844983fc686331c27fe857511fd1c990a971ffd4206f94c0ffb85b04a8b",
}


@pytest.mark.parametrize("name", sorted(theories.BUNDLED))
def test_cli_output_matrix_is_unchanged(run, name):
    source = theories.BUNDLED[name].source
    digest = hashlib.sha256()
    for argv in _matrix(name):
        code, out, err = run(argv, stdin=source)
        shown = [name if arg == "-" else arg for arg in argv]
        digest.update(json.dumps([shown, code, out, err]).encode())
    assert digest.hexdigest() == CLI_DIGESTS[name]
