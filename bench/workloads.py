"""The four workloads: seeded request lists and the answers they must give.

A request is one `cpl` invocation or a pipeline of them (`cpl do ... |
cpl query -`).  Every request carries a check of its final answer against a
reference that does not come from the code under test: a closed form for
`chain`, `coins` and `domain`, and for `sweep` a digest of the answer
recorded when the benchmark was written (see `SWEEP_DIGESTS`).

Answers are normalized before checking, whether they come from parsed
`cpl` output or from library calls:

    query   Fraction
    dist    {world: Fraction}, a world being the sorted tuple of atom names
    sweep   [dist, ...] in output order
    check   Check(stratified, worlds)
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import gen

NAMES = ("chain", "coins", "domain", "sweep")


class Check(NamedTuple):
    stratified: bool
    worlds: int


@dataclass(frozen=True)
class Step:
    """One `cpl` command; the first step of a request reads the theory file,
    later ones read the previous step's output from stdin."""

    cmd: str  # check | dist | query | do | compile | sweep
    arg: str | None = None  # query formula (-q) or intervention literal (--lit)
    exo: tuple = ()  # exogenous atoms set true; all others are false

    def argv(self, path: str) -> list[str]:
        argv = [self.cmd, path]
        if self.cmd == "query":
            argv += ["-q", self.arg]
        elif self.cmd == "do":
            argv += ["--lit", self.arg]
        elif self.cmd == "compile":
            argv.append("--eliminate-neg-heads")
        elif self.cmd in ("dist", "sweep"):
            argv.append("--json")
        if self.exo:
            argv += ["--exo", ",".join(f"{a}=true" for a in self.exo)]
        return argv


@dataclass(frozen=True)
class Request:
    label: str
    file: str  # path of the theory file the first step reads
    steps: tuple
    check: Callable  # answer -> None when right, else a message


# -- checks -------------------------------------------------------------------

def _expect(want) -> Callable:
    def check(got):
        return None if got == want else f"expected {_short(want)}, got {_short(got)}"
    return check


def _short(value) -> str:
    text = str(value)
    return text if len(text) <= 120 else text[:117] + "..."


def dist_digest(dist: dict, names: dict | None = None) -> str:
    """Digest of a distribution, atoms renamed through ``names``."""
    names = names or {}
    rows = sorted((tuple(sorted(names.get(a, a) for a in world)), str(p))
                  for world, p in dist.items())
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _digest_is(want: str, names: dict) -> Callable:
    """A dist or one-distribution sweep answer: sums to 1, matches ``want``."""
    def check(got):
        if isinstance(got, list):
            if len(got) != 1:
                return f"expected one distribution, got {len(got)}"
            got = got[0]
        if sum(got.values()) != 1:
            return f"distribution sums to {sum(got.values())}"
        digest = dist_digest(got, names)
        return None if digest == want else f"digest {digest}, expected {want}"
    return check


# -- closed forms -------------------------------------------------------------

NINE = Fraction(9, 10)


def chain_dist(n: int, lock: int | None = None) -> dict:
    """Gear chain with ``Crank`` on: g0 turns, each later gear with 9/10 given
    the one before; a lock at gk stops the chain before gk."""
    last = n if lock is None else min(n, lock - 1)
    if last < 0:
        return {(): Fraction(1)}
    out = {}
    for i in range(last + 1):
        world = tuple(sorted(f"Turns(g{j})" for j in range(i + 1)))
        out[world] = NINE ** i * (Fraction(1, 10) if i < last else 1)
    return out


def coins_dist(n: int) -> dict:
    """Every subset of n fair coins has probability 2^-n; Any iff non-empty."""
    out = {}
    for mask in range(1 << n):
        heads = [f"C{i}" for i in range(n) if mask >> i & 1]
        world = tuple(sorted(heads + (["Any"] if heads else [])))
        out[world] = Fraction(1, 1 << n)
    return out


def reach_dist(path: list[str]) -> dict:
    """Reachability along a path from Start: each hop succeeds with 9/10."""
    out = {}
    for i in range(len(path) + 1):
        world = tuple(sorted(f"Reach({v})" for v in path[:i]))
        out[world] = NINE ** i * (Fraction(1, 10) if i < len(path) else 1)
    return out


# -- workload definitions -------------------------------------------------------
#
# Sizes are fixed; the seed varies law order, names and positions, never
# the size, so that cost stays comparable across seeds (see NOTES.md).

CHAIN_SIZES = (30, 45, 60)
COINS_N = 10
DOMAIN_K = 60


def _chain(rng, write) -> list[Request]:
    reqs = []
    for n in CHAIN_SIZES:
        f = write(f"chain{n}.cpl", gen.chain(rng, n))
        k = n - rng.randrange(4)
        q = f"Turns(g{n})"
        reqs.append(Request(f"query n={n}", f, (Step("query", q, ("Crank",)),),
                            _expect(NINE ** n)))
        reqs.append(Request(f"query n={n} lock g{k}", f,
                            (Step("query", q, ("Crank", f"Locked(g{k})")),),
                            _expect(Fraction(0))))
    return reqs


def _coins(rng, write) -> list[Request]:
    n = COINS_N
    f = write(f"coins{n}.cpl", gen.coins(rng, n))
    j = rng.randrange(n)
    return [
        Request(f"dist n={n}", f, (Step("dist"),), _expect(coins_dist(n))),
        Request(f"query C{j} n={n}", f, (Step("query", f"C{j}"),),
                _expect(Fraction(1, 2))),
        Request(f"query Any n={n}", f, (Step("query", "Any"),),
                _expect(1 - Fraction(1, 1 << n))),
    ]


def _domain(rng, write) -> list[Request]:
    text, nodes = gen.domain(rng, DOMAIN_K)
    f = write(f"domain{DOMAIN_K}.cpl", text)
    a, b, c = rng.sample(nodes, 3)
    one = (f"Start({a})", f"Edge({a}, {b})")
    two = one + (f"Edge({b}, {c})",)
    return [
        Request("query 2 steps", f, (Step("query", f"Reach({c})", two),),
                _expect(NINE ** 3)),
        Request("query 2 steps, cut", f,
                (Step("query", f"Reach({c})", two + (f"Cut({b})",)),),
                _expect(Fraction(0))),
        Request("check", f, (Step("check"),), _expect(Check(True, 1))),
        Request("compile|query 1 step", f,
                (Step("compile"), Step("query", f"Reach({b})", one)),
                _expect(NINE ** 2)),
        Request("do|query 2 steps", f,
                (Step("do", f"~Reach({b})"), Step("query", f"Reach({c})", two)),
                _expect(Fraction(0))),
    ]


# Structures of the sweep workload: generator seeds of `gen.stratified`
# with SWEEP_ATOMS atoms and SWEEP_LAWS laws, and the digest of each one's
# distribution recorded at the commit that added the benchmark.  The
# workload seed renames atoms and shuffles laws, which leaves the cost of
# an exhaustive sweep unchanged; drawing the structures themselves from the
# seed would make run time swing by an order of magnitude (NOTES.md).
SWEEP_ATOMS = 10
SWEEP_LAWS = 8
SWEEP_DIGESTS = {  # generator seed -> (digest, number of worlds)
    60: ("694d700eb8ed0bd3", 6),
    74: ("b39c06c4f248267e", 36),
    139: ("77b1fe3e7cbec395", 58),
    187: ("ccbf89b33639d383", 96),
}


def sweep_structure(gen_seed: int) -> str:
    return gen.stratified(random.Random(gen_seed), SWEEP_ATOMS, SWEEP_LAWS)


def _sweep(rng, write) -> list[Request]:
    reqs = []
    for i, s in enumerate(SWEEP_DIGESTS):
        text, names = gen.relabel(rng, sweep_structure(s))
        f = write(f"sweep{i}.cpl", text)
        want = SWEEP_DIGESTS[s][0]
        reqs.append(Request(f"sweep #{s}", f, (Step("sweep"),), _digest_is(want, names)))
        reqs.append(Request(f"dist #{s}", f, (Step("dist"),), _digest_is(want, names)))
    return reqs


_BUILDERS = {"chain": _chain, "coins": _coins, "domain": _domain, "sweep": _sweep}


def build(name: str, seed: int, workdir: Path) -> list[Request]:
    """Write the workload's theory files into ``workdir``; return its requests."""
    rng = random.Random(f"{name}:{seed}")

    def write(fname: str, text: str) -> str:
        path = workdir / fname
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _BUILDERS[name](rng, write)
