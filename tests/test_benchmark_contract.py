"""The benchmark's contract with the package.

perfbench/tracer.py wraps package functions and methods by name, and
perfbench/workloads.py calls package helpers; a rename or deletion in the
package breaks the benchmark without failing any other test. Here one op
of each workload runs under the span wrappers, and each workload's
reference check, which the benchmark runs before any timing, passes.
Nothing under perfbench/ is written: its modules are imported without
bytecode caching, and reference.json is only read.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from synergy_es.harness import ExperimentConfig
from synergy_es.personalizer import DEFAULT_CONFIG

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GREYBOX_OP, BASELINE_OP = 0, 1  # op ids of the greybox-mc and baseline-io ops
WORKLOADS = [w["name"] for w in json.loads(
    (PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def _import_perfbench(*names):
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        return tuple(importlib.import_module(name) for name in names)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved


@pytest.fixture(scope="module")
def perfbench():
    return _import_perfbench("tracer", "workloads")


@pytest.fixture(scope="module")
def reference():
    return _import_perfbench("bootstrap", "reference")


def test_every_workload_runs_under_the_tracer(tmp_path, perfbench):
    tracer, workloads = perfbench
    loads = workloads.make_workloads(tmp_path)
    assert list(loads)[GREYBOX_OP] == "greybox-mc"
    assert list(loads)[BASELINE_OP] == "baseline-io"
    spans = tracer.Tracer()
    spans.install()
    try:
        for k, load in enumerate(loads.values()):
            inp = load.inputs(1, k)
            try:
                out = spans.run_op(k, load.run, inp)
                assert load.check(inp, out), load.name
            finally:
                load.cleanup(inp)
    finally:
        spans.uninstall()
    assert spans.errors == dict.fromkeys(tracer.LAYERS, 0)

    cols = spans.arrays()

    def calls(layer, op=GREYBOX_OP):
        names = cols["names"][cols["layer"][cols["op"] == op]]
        return int((names == layer).sum())

    episodes = workloads.GREYBOX_SEEDS
    assert calls("harness.run_episode") == calls("personalizer.init") == episodes
    per_episode = workloads.GREYBOX_ITERATIONS
    assert calls("personalizer.filter") == episodes * per_episode
    assert calls("personalizer.step") == episodes * per_episode
    # the observer wraps step and demodulate, one call each per iteration
    assert calls("personalizer.observer") == 2 * episodes * per_episode
    # the optimizer runs from the iteration after warmup on
    warmup = DEFAULT_CONFIG.warmup_iterations
    assert calls("personalizer.optimizer") == episodes * (per_episode - warmup)
    assert spans.counters["newton_branches"] > 0  # read from last_branch
    # both loops inherit one step: each wrapper counts its own loop only
    assert calls("baseline.step") == 0
    assert calls("baseline.step", BASELINE_OP) == \
        workloads.BASELINE_SEEDS * ExperimentConfig().iterations
    assert calls("personalizer.step", BASELINE_OP) == 0
    assert calls("personalizer.init", BASELINE_OP) == 0
    # the arm-sweep cache sits behind the traced name: one call per synergy
    reach = list(loads).index("reach")
    assert calls("plant.simulate_reach", reach) == len(workloads.REACH_GRID)
    assert calls("plant.objective", reach) == len(workloads.REACH_GRID)
    # every wrapped name is back on its owner
    for targets in tracer.LAYERS.values():
        for owner, attr in targets:
            assert not hasattr(getattr(owner, attr), "__wrapped__"), attr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_check_passes(tmp_path, monkeypatch, reference, workload):
    bootstrap, ref = reference
    monkeypatch.setattr(bootstrap, "WORK", tmp_path)  # csv_round_trip's files
    recorded = ref.REFERENCE_PATH.read_bytes()
    assert ref.check(ref.PARTS[workload]) == []
    assert ref.REFERENCE_PATH.read_bytes() == recorded
