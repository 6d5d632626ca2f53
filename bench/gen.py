"""Seeded theory generators for the four benchmark families.

Each generator takes a `random.Random` and returns `.cpl` source text, so
the same seed always gives byte-identical files.  They use no code from
`cplogic`: the workloads must not change when the library's own random
theory helpers do.
"""

from __future__ import annotations

import random
import re


def chain(rng: random.Random, n: int) -> str:
    """Gear chain g0..gn driven by ``Crank``, one lock law per gear.

    Law order is shuffled, so law indices (and with them the lowest-index
    firing policy) differ between seeds; the answer does not.
    """
    gears = [f"g{i}" for i in range(n + 1)]
    laws = ["Turns(g0) <- Crank."]
    laws += [f"(Turns(g{i}):9/10) <- Turns(g{i - 1})." for i in range(1, n + 1)]
    laws += [f"~Turns({g}) <- Locked({g})." for g in gears]
    rng.shuffle(laws)
    head = [f"% gear chain, n={n}",
            f"domain gear = {{{', '.join(gears)}}}.",
            "exogenous Crank/0, Locked/1."]
    return "\n".join(head + laws) + "\n"


def coins(rng: random.Random, n: int) -> str:
    """n independent fair coins C0..Cn-1 and ``Any`` if some coin is heads.

    The coin laws are shuffled; ``Any`` stays last so that the state space,
    and with it the cost, is the same for every seed.
    """
    laws = [f"(C{i}:1/2)." for i in range(n)]
    rng.shuffle(laws)
    laws.append("Any <- " + " ; ".join(f"C{i}" for i in range(n)) + ".")
    return "\n".join([f"% {n} coins"] + laws) + "\n"


def domain(rng: random.Random, k: int) -> tuple[str, list[str]]:
    """Quantified reachability over k nodes declared in a seeded order.

    Returns the source and the node names in declaration order.
    """
    nodes = [f"v{i}" for i in range(k)]
    rng.shuffle(nodes)
    text = "\n".join([
        f"% reachability over {k} nodes",
        f"domain node = {{{', '.join(nodes)}}}.",
        "exogenous Edge/2, Start/1, Cut/1.",
        "!y in node: (Reach(y):9/10) <- Start(y) ; "
        "(?x in node: (Reach(x), Edge(x, y))).",
        "!y in node: ~Reach(y) <- Cut(y).",
    ]) + "\n"
    return text, nodes


# Head probabilities: single outcomes and two-outcome heads summing to <= 1.
_SINGLES = ("1", "1/2", "1/3", "2/3", "1/4", "3/4")
_PAIRS = (("1/2", "1/2"), ("1/2", "1/4"), ("1/3", "1/3"),
          ("1/4", "1/4"), ("2/3", "1/3"))


def stratified(rng: random.Random, atoms: int, laws: int) -> str:
    """Propositional theory with negative heads, stratified by construction.

    Every atom gets a stratum.  A negated body atom, and every body atom of
    a law with a negative head literal, lies on a strictly lower stratum
    than all of the law's head atoms; other body atoms lie on the same or a
    lower one.  So no dependency cycle carries a negative edge, and the
    theory has exactly one distribution whatever the firing order.
    """
    names = [f"P{i}" for i in range(atoms)]
    stratum = {a: rng.randrange(3) for a in names}
    out = [f"% stratified, {atoms} atoms, {laws} laws"]
    for _ in range(laws):
        width = rng.randint(1, 2)
        heads = rng.sample(names, width)
        negs = [rng.random() < 0.25 for _ in heads]
        probs = (rng.choice(_SINGLES),) if width == 1 else rng.choice(_PAIRS)
        lits = [("~" if neg else "") + a for a, neg in zip(heads, negs)]
        if width == 1 and probs[0] == "1":
            head = lits[0]
        else:
            head = "; ".join(f"({lit}:{p})" for lit, p in zip(lits, probs))
        floor = min(stratum[a] for a in heads)
        body = []
        for _ in range(rng.randint(0, 2)):
            negated = rng.random() < 0.4
            strict = negated or any(negs)
            pool = [a for a in names
                    if stratum[a] < floor or (not strict and stratum[a] == floor)]
            if pool:
                body.append(("~" if negated else "") + rng.choice(pool))
        out.append(head + (" <- " + ", ".join(body) if body else "") + ".")
    return "\n".join(out) + "\n"


def relabel(rng: random.Random, text: str) -> tuple[str, dict]:
    """Rename the atoms P<i> of a `stratified` theory and shuffle its laws.

    Returns the new text and the map from new to original atom names.  The
    theory is the same up to names and law order, so its distribution is
    the same up to names and the cost of an exhaustive sweep is unchanged.
    """
    lines = text.splitlines()
    old = sorted(set(re.findall(r"\bP\d+\b", text)), key=lambda a: int(a[1:]))
    new = [f"P{i}" for i in rng.sample(range(10 * len(old)), len(old))]
    rename = dict(zip(old, new))
    laws = [re.sub(r"\bP\d+\b", lambda m: rename[m.group()], line) for line in lines[1:]]
    rng.shuffle(laws)
    return "\n".join(lines[:1] + laws) + "\n", {v: k for k, v in rename.items()}
