"""The benchmark's engine counts on seed 1 of each workload, pinned.

`bench/tracing.py` counts the engine's work by patching the names it
calls: the states classified (`satisfied_unfired`), the successors built
(`apply_disjunct`), the memo hits those imply, the worlds returned, the
`U` builds and the `holds` calls, and the states and distinct
distributions that the order sweep reports.  Each workload's seed-1
requests run here once as library calls under its `Tracer`, and the
counts must be the ones `bench/run.py --trace 1 --seed 1` reports, so a
walker that does more or less work, or calls the engine through other
names, fails here.  The sweep's own counts are pinned per structure too:
they are what `cpl sweep` prints as "execution models" and "states
explored".
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import runner  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

from cplogic.ground import ground  # noqa: E402
from cplogic.oracle import sweep_orders  # noqa: E402
from cplogic.syntax import parse_theory  # noqa: E402

COUNTS = ("engine.states", "engine.expand_calls", "engine.memo_hits",
          "engine.worlds", "engine.u_calls", "threeval.holds_calls",
          "oracle.sweep_states", "oracle.sweep_distinct")
WANT = {
    "chain": (552, 549, 3, 272, 6, 272),
    "coins": (6143, 6140, 0, 2050, 2, 1026),
    "domain": (23, 19, 1, 11, 7, 10),
    "sweep": (477, 601, 128, 196, 75, 0),
}
# The order sweep's states and distinct distributions; (0, 0) elsewhere.
WANT_SWEEP = {"sweep": (4766, 4)}
# Per structure of the sweep workload: states explored, execution models
# and distinct distributions.
SWEEP = {
    60: (378, 2394559026032, 1),
    74: (552, 27236404153087836674480128, 1),
    139: (1456, 63285848866720684510620000292596814094270464, 1),
    187: (2380, 3995420435941264491533391031516762055159817567230157842248570163429376, 1),
}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_one_counts(name, tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        errors = [runner.run_lib(req).error
                  for req in workloads.build(name, 1, tmp_path)]
    finally:
        tracer.uninstall()
    assert errors == [None] * len(errors)
    m = layer_metrics(tracer.spans, tracer.counts)
    assert tuple(m[k] for k in COUNTS) == WANT[name] + WANT_SWEEP.get(name, (0, 0))


@pytest.mark.parametrize("gen_seed", workloads.SWEEP_DIGESTS)
def test_sweep_structure_counts(gen_seed):
    report = sweep_orders(ground(parse_theory(workloads.sweep_structure(gen_seed))),
                          frozenset())
    got = report.states_explored, report.models_explored, len(report.distributions)
    assert got == SWEEP[gen_seed]
