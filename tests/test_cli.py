import io
import json

import pytest

from cplogic import theories
from cplogic.cli import main


@pytest.fixture
def suzy(tmp_path):
    path = tmp_path / "suzy.cpl"
    path.write_text(theories.SUZY_BILLY)
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
    path.write_text(theories.GEARS)
    code, out, _ = run(["query", str(path), "-q", "Turns(gear3)",
                        "--exo", "Crank1=true"])
    assert code == 0
    assert out == "81/100 (= 0.810000)\n"


def test_do_pipes_into_query(run, tmp_path):
    path = tmp_path / "bp.cpl"
    path.write_text(theories.BLOOD_PRESSURE)
    code, transformed, _ = run(["do", str(path), "--lit", "~HighBloodPressure"])
    assert code == 0
    code, out, _ = run(["query", "-", "-q", "Fatigue"], stdin=transformed)
    assert code == 0
    assert out == "0 (= 0.000000)\n"


def test_compile_eliminates_negative_heads(run, tmp_path):
    path = tmp_path / "sup.cpl"
    path.write_text(theories.SUPERHERO)
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
    path.write_text(theories.NEGATION_LOOP)
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
    path.write_text(theories.LOCKED_GEARS)
    code, out, _ = run(["sweep", str(path), "--mode", "literal",
                        "--exo", "Crank1=true,Locked(g1)=true", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["distinct"] >= 2
    assert payload["witness"]


def test_budget_exceeded_exits_three(run, tmp_path):
    path = tmp_path / "gears.cpl"
    path.write_text(theories.GEARS)
    code, _, err = run(["sweep", str(path), "--budget", "5",
                        "--exo", "Crank1=true,Crank2=true,Crank3=true"])
    assert code == 3
    assert "budget" in err


def test_usage_errors_exit_one(run, suzy, tmp_path):
    assert run(["frobnicate", suzy])[0] == 1
    assert run(["query", suzy, "-q", "Broken", "--exo", "Broken=true"])[0] == 1
    assert run(["query", suzy, "-q", "Broken", "--exo", "nonsense"])[0] == 1
    assert run(["query", "/no/such/file.cpl", "-q", "A"])[0] == 1
    gears = tmp_path / "gears.cpl"
    gears.write_text(theories.GEARS)
    code, _, err = run(["dist", str(gears), "--exo", "Crank1=true,Crank1=false"])
    assert code == 1 and "assigned twice" in err


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
