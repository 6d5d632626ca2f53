#!/usr/bin/env python3
"""Seeded benchmark of `cpl`, end to end and per layer.

    python3 bench/run.py --workload chain --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20 --trace 1

Run from anywhere; it finds `src/` next to its own directory.  A run
builds the workload's theory files from ``--seed`` in a work directory
under `.bench_work/`, measures for about ``--seconds`` seconds in one
closed loop (one request at a time, from this process), checks every
answer, and prints its metrics, with the last line a JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` gives the end-to-end metrics: each pass sends every request
as `cpl` subprocesses and then as library calls in this warm process.
``--trace 1`` gives the per-layer metrics: each pass runs every request
as library calls, plain and traced, and traced through `cli.main` in this
process; the spans of the last pass are written under `.bench_work/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HASHSEED = "0"  # frozenset/dict order in `compute_U` and `ground` depends on it
SETUP_REPS = 15
TIMEOUT_S = 60.0  # per `cpl` process
# Median time of `calibrate()` on the host where the benchmark was written
# (2-vCPU Intel Xeon VM, Python 3.11.7).  Reported times are scaled to it.
REF_CAL_S = 0.020


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": _commit(), "PYTHONHASHSEED": HASHSEED}


def _commit() -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED=HASHSEED)
    return env


def calibrate() -> float:
    """Time one run of a fixed pure-Python kernel that uses no `cplogic`
    code: `Fraction` sums, `frozenset` keys and `dict` updates."""
    start = time.perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 3000):
        total += Fraction(1, i % 97 + 1)
        key = frozenset(range(i % 50))
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - start


def paired(measure):
    """Run ``measure()`` between two calibration samples.  Returns its
    result and the factor that scales a wall time taken in between to the
    reference host speed: ``REF_CAL_S`` over the mean of the two samples.
    A shared VM's speed can swing within seconds, so only samples taken
    right next to a measurement track it (NOTES.md, "Steadiness")."""
    before = calibrate()
    result = measure()
    return result, 2 * REF_CAL_S / (before + calibrate())


def midmean(values) -> float:
    """Mean of the middle half of ``values``: it ignores the slowest and
    fastest quarter, as a median does, but uses more of the samples."""
    v = sorted(values)
    q = len(v) // 4
    return statistics.fmean(v[q:len(v) - q])


class Failure(Exception):
    """The benchmark cannot run at all; no result is printed."""


def measure_setup(env: dict, workdir: Path) -> tuple[float, float, float]:
    """Time of a fresh interpreter importing `cplogic.cli`, scaled and as
    measured, and of a bare interpreter as measured, each the `midmean` of
    ``SETUP_REPS`` runs after one untimed import fills the bytecode cache."""
    from runner import IMPORT_ONLY, spawn
    bare_cmd = [sys.executable, "-c", "pass"]
    first = spawn(IMPORT_ONLY, env, ROOT, workdir, None, TIMEOUT_S)
    if first.code != 0:
        raise Failure(f"cannot import cplogic.cli: {first.err.strip()[-500:]}")
    scaled, setup, bare = [], [], []
    for _ in range(SETUP_REPS):
        p, k = paired(lambda: spawn(IMPORT_ONLY, env, ROOT, workdir, None, TIMEOUT_S))
        scaled.append(p.wall * k)
        setup.append(p.wall)
        bare.append(spawn(bare_cmd, env, ROOT, workdir, None, TIMEOUT_S).wall)
    return midmean(scaled), midmean(setup), midmean(bare)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, label: str, how: str, error: str | None):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{label} [{how}]: {error}")


def closed_loop(seconds: float, one_pass) -> int:
    """Run passes until another pass of average length would pass
    ``seconds``; always at least one.  Returns the number of passes."""
    start, passes = time.perf_counter(), 0
    while True:
        one_pass()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            return passes


def end_to_end(reqs, seconds: float, tally: Tally, workdir: Path) -> dict:
    """Each request's time is its `midmean` over passes, so that a spike in
    one pass moves no metric; ``cli_s`` and ``lib_s`` sum those times and
    ``cli_req_max_s`` is the largest.  Every time is scaled by `paired`;
    the wall times are kept beside them."""
    from runner import run_cli, run_lib
    env = child_env()
    cli_t = [[] for _ in reqs]  # (scaled, wall) per pass
    lib_t = [[] for _ in reqs]
    rss = [0]

    def one_pass():
        for i, req in enumerate(reqs):
            o, k = paired(lambda: run_cli(req, env, ROOT, workdir, TIMEOUT_S))
            tally.add(req.label, "cli", o.error)
            cli_t[i].append((o.seconds * k, o.seconds))
            rss[0] = max(rss[0], o.rss_kb)
            if o.error and o.error.startswith("timed out"):
                # the same call in-process would not end either
                tally.add(req.label, "lib", "skipped: the cpl call timed out")
                continue
            o, k = paired(lambda: run_lib(req))
            tally.add(req.label, "lib", o.error)
            lib_t[i].append((o.seconds * k, o.seconds))

    passes = closed_loop(seconds, one_pass)

    def midmeans(times, j):
        return [midmean(t[j] for t in ts) if ts else 0.0 for ts in times]

    out = {"passes": passes}
    for j, key in ((0, "metrics"), (1, "wall")):
        cli_med, lib_med = midmeans(cli_t, j), midmeans(lib_t, j)
        out[key] = {"cli_s": (sum(cli_med), "s"), "cli_req_max_s": (max(cli_med), "s"),
                    "lib_s": (sum(lib_med), "s")}
    out["metrics"]["peak_rss_mb"] = (rss[0] / 1024, "MB")
    out["per_request"] = [(r.label, c, l) for r, c, l in
                          zip(reqs, midmeans(cli_t, 1), midmeans(lib_t, 1))]
    return out


def per_layer(reqs, seconds: float, tally: Tally, spans_path: Path) -> dict:
    """Each pass runs every request as library calls, plain and traced, which
    gives the tracing overhead, and then traced through `cli.main`, which
    gives the layer metrics.  The last pass's `cli.main` spans are written
    to ``spans_path`` as JSON lines."""
    from cplogic import cli
    from runner import run_inproc, run_lib
    from tracing import Tracer, layer_metrics
    plain, traced, layers = [], [], []
    last: list = []

    def lib_pass(tracer: Tracer | None) -> float:
        total = 0.0
        if tracer:
            tracer.install()
        try:
            for req in reqs:
                o = run_lib(req)
                tally.add(req.label, "traced lib" if tracer else "lib", o.error)
                total += o.seconds
        finally:
            if tracer:
                tracer.uninstall()
        return total

    def one_pass():
        # alternate which goes first, so that warm-up favours neither
        if len(plain) % 2:
            traced.append(lib_pass(Tracer()))
            plain.append(lib_pass(None))
        else:
            plain.append(lib_pass(None))
            traced.append(lib_pass(Tracer()))
        tracer = Tracer()
        main = tracer.timed("cli.main", cli.main)
        out_bytes = 0
        tracer.install()
        try:
            for i, req in enumerate(reqs):
                tracer.request = i
                o = run_inproc(req, main)
                tally.add(req.label, "traced cli", o.error)
                out_bytes += o.output_bytes
        finally:
            tracer.uninstall()
        m = layer_metrics(tracer.spans, tracer.counts)
        m["cli.output_bytes"] = out_bytes
        layers.append(m)
        last[:] = tracer.spans

    passes = closed_loop(seconds, one_pass)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(last):
            fh.write(json.dumps({"id": i, "name": s.name, "start_ns": s.start,
                                 "end_ns": s.end, "parent": s.parent,
                                 "request": reqs[s.request].label}) + "\n")
    med = statistics.median
    metrics = {k: (med(m[k] for m in layers), _unit(k)) for k in layers[0]}
    metrics["trace.untraced_s"] = (med(plain), "s")
    metrics["trace.overhead_s"] = (med(t - p for t, p in zip(traced, plain)), "s")
    return {"metrics": metrics, "passes": passes, "spans_file": spans_path}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    try:
        reqs = workloads.build(name, seed, work)
        tally = Tally()
        if trace:
            result = per_layer(reqs, seconds, tally,
                               base / f"spans-{name}-seed{seed}.jsonl")
        else:
            setup, setup_wall, bare = measure_setup(child_env(), work)
            result = end_to_end(reqs, seconds, tally, work)
            result["metrics"]["setup_s"] = (setup, "s")
            result["wall"]["setup_s"] = (setup_wall, "s")
            result["wall"]["bare interpreter"] = (bare, "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    result.update(requests=len(reqs), tally=tally)
    return result


def report(name: str, seed: int, result: dict) -> None:
    tally = result["tally"]
    print(f"# workload {name}, seed {seed}: {result['requests']} requests per pass, "
          f"{result['passes']} passes, closed loop, 1 client")
    for key, (value, unit) in sorted(result["metrics"].items()):
        print(f"{name:7} {key:26} {value:14.6f} {unit}")
    for label, cli_s, lib_s in result.get("per_request", ()):
        print(f"# {name:7} {label:36} cli {cli_s:9.4f} s  lib {lib_s:9.4f} s  (wall)")
    if "spans_file" in result:
        print(f"# spans of the last traced pass: {result['spans_file']}")
    for key, (value, unit) in result.get("wall", {}).items():
        print(f"# {name:7} {key + ' (wall)':26} {value:14.6f} {unit}")
    print(f"{name:7} {'failed_ratio':26} {tally.failed / max(tally.attempted, 1):14.6f} "
          f"({tally.failed} of {tally.attempted})")
    for line in tally.errors[:10]:
        print(f"# FAILED {line}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cplogic" / "cli.py").is_file():
        print(f"error: no cplogic sources at {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASHSEED:
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                   *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASHSEED})
    sys.path.insert(0, str(SRC))
    # Turn SIGTERM into SystemExit, so that the running child is killed and
    # the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    print("# " + json.dumps(environment()))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            report(name, args.seed, result)
            prefix = f"{name}." if args.workload == "all" else ""
            for key, (value, unit) in result["metrics"].items():
                metrics[prefix + key] = {"value": value, "unit": unit}
            attempted += result["tally"].attempted
            failed += result["tally"].failed
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
