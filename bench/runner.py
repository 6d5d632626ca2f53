"""Run a request as `cpl` subprocesses, as library calls, or through
`cli.main` inside this process, and normalize each kind of output to the
answers that `workloads` checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from cplogic import (distribution, ground, intervene, parse_formula,
                     parse_literal, parse_theory, print_theory, query,
                     stratification_report, sweep_orders, tau_not)
from workloads import Check, Request, Step

# The `cpl` console script, spelled out so that no installation is needed.
CPL = [sys.executable, "-c", "import sys\nfrom cplogic.cli import main\nsys.exit(main())"]
IMPORT_ONLY = [sys.executable, "-c", "import cplogic.cli"]


@dataclass
class Proc:
    code: int | None  # None when killed at the timeout
    out: str
    err: str
    wall: float  # seconds from spawn to reaped
    rss_kb: int  # the child's own peak resident set


def spawn(argv: list[str], env: dict, cwd: Path, workdir: Path,
          stdin_text: str | None, timeout: float) -> Proc:
    """Run one child with files for stdin/stdout/stderr, reap it with
    `os.wait4` for its own rusage, and kill it at ``timeout`` seconds."""
    paths = {name: workdir / name for name in ("stdin", "stdout", "stderr")}
    if stdin_text is not None:
        paths["stdin"].write_text(stdin_text, encoding="utf-8")
    with contextlib.ExitStack() as stack:
        fin = (stack.enter_context(open(paths["stdin"], "rb"))
               if stdin_text is not None else subprocess.DEVNULL)
        fout = stack.enter_context(open(paths["stdout"], "w+b"))
        ferr = stack.enter_context(open(paths["stderr"], "w+b"))
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr,
                                env=env, cwd=cwd)
        pidfd = os.pidfd_open(proc.pid)
        ready = []
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
        finally:
            if not ready:  # timed out, or this process is being stopped
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            os.close(pidfd)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        fout.seek(0)
        ferr.seek(0)
        out = fout.read().decode("utf-8", "replace")
        err = ferr.read().decode("utf-8", "replace")
    return Proc(proc.returncode if ready else None, out, err, wall, usage.ru_maxrss)


@dataclass
class Outcome:
    seconds: float
    error: str | None  # None when the answer was checked and right
    rss_kb: int = 0
    output_bytes: int = 0


def run_cli(req: Request, env: dict, cwd: Path, workdir: Path,
            timeout: float) -> Outcome:
    """Each step is its own `cpl` process; a pipeline feeds one step's
    stdout to the next step's stdin after the first has exited."""
    text, seconds, rss = None, 0.0, 0
    for i, step in enumerate(req.steps):
        p = spawn(CPL + step.argv(req.file if i == 0 else "-"), env, cwd, workdir,
                  text, timeout)
        seconds += p.wall
        rss = max(rss, p.rss_kb)
        if p.code is None:
            return Outcome(seconds, f"timed out after {timeout} s", rss)
        if p.code != 0:
            return Outcome(seconds, f"exit {p.code}: {p.err.strip()[-300:]}", rss)
        text = p.out
    return _checked(req, seconds, lambda: parse_output(req.steps[-1].cmd, text),
                    rss, len(text.encode()))


def run_inproc(req: Request, main) -> Outcome:
    """Each step through ``main(argv)`` with stdin and stdout redirected."""
    text, seconds = None, 0.0
    for i, step in enumerate(req.steps):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(text or "")
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(step.argv(req.file if i == 0 else "-"))
        except Exception as exc:  # counts as a failed request, like a crashed `cpl`
            return Outcome(time.perf_counter() - start + seconds, f"raised {exc!r}")
        finally:
            sys.stdin = saved
        seconds += time.perf_counter() - start
        if code != 0:
            return Outcome(seconds, f"exit {code}: {err.getvalue().strip()[-300:]}")
        text = out.getvalue()
    return _checked(req, seconds, lambda: parse_output(req.steps[-1].cmd, text),
                    output_bytes=len(text.encode()))


def run_lib(req: Request) -> Outcome:
    """The request as library calls; the timed part ends at the same
    `sorted_items`/`print_theory` calls that the CLI formats from."""
    start = time.perf_counter()
    try:
        text = Path(req.file).read_text(encoding="utf-8")
        for step in req.steps:
            text = lib_step(step, text)
    except Exception as exc:  # counts as a failed request, like a crashed `cpl`
        return Outcome(time.perf_counter() - start, f"raised {exc!r}")
    seconds = time.perf_counter() - start
    return _checked(req, seconds, lambda: normalize(req.steps[-1].cmd, text))


def _checked(req: Request, seconds: float, answer, rss_kb: int = 0,
             output_bytes: int = 0) -> Outcome:
    try:
        error = req.check(answer())
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        error = f"unreadable answer: {exc!r}"
    return Outcome(seconds, error, rss_kb, output_bytes)


def lib_step(step: Step, text: str):
    theory = parse_theory(text)
    X = frozenset(parse_literal(a, theory).atom for a in step.exo)
    if step.cmd == "query":
        return query(ground(theory), X, parse_formula(step.arg, theory))
    if step.cmd == "dist":
        return distribution(ground(theory), X).sorted_items()
    if step.cmd == "sweep":
        report = sweep_orders(ground(theory), X)
        return [d.sorted_items() for d in report.distributions]
    if step.cmd == "check":
        g = ground(theory)
        return Check(stratification_report(g).stratified, len(distribution(g, X)))
    if step.cmd == "do":
        return print_theory(intervene(theory, parse_literal(step.arg, theory)))
    if step.cmd == "compile":
        return print_theory(tau_not(theory)[0])
    raise ValueError(f"unknown command {step.cmd!r}")


def _rows(items) -> dict:
    return {tuple(sorted(str(a) for a in world)): p for world, p in items}


def normalize(cmd: str, result):
    if cmd == "dist":
        return _rows(result)
    if cmd == "sweep":
        return [_rows(items) for items in result]
    return result


_WORLDS = re.compile(r"ok \((\d+) worlds\)")


def parse_output(cmd: str, out: str):
    if cmd == "query":
        return Fraction(out.split()[0])
    if cmd == "dist":
        return _json_rows(json.loads(out)["distribution"])
    if cmd == "sweep":
        return [_json_rows(d) for d in json.loads(out)["distributions"]]
    if cmd == "check":
        return Check("stratified: yes" in out, int(_WORLDS.search(out).group(1)))
    raise ValueError(f"no answer to parse for {cmd!r}")


def _json_rows(rows) -> dict:
    return {tuple(r["world"]): Fraction(r["p"]) for r in rows}
