"""The benchmark's own checks, at tiny sizes of the same workloads.

Run from the repository root::

    python3 -m pytest perfbench -q

They go through the same driver code as a real run (``run.measure``, one
fresh process per iteration), only with the ``TINY`` parameters.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
from spans import load_spans  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"] for metric in BENCHMARK["per_layer"]}

#: Per-layer counters the simulator must reproduce bit for bit from a seed.
EXACT = (
    "sim.events",
    "net.msgs.Request",
    "net.msgs.Accept",
    "net.msgs.Assign",
    "net.msgs.Inform",
    "overlay.flood.targets",
    "scheduling.cost.calls",
)


def _measure(name: str, trace: bool, spans_path=None):
    workload = WORKLOADS[name]
    return run.measure(
        name, workload.kind, TINY[name], 3, 0.0, trace, spans_path
    )


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", ["inform-flood", "large-discovery"])
def test_two_traced_runs_of_one_seed_repeat_the_exact_counters(name):
    first = _measure(name, trace=True)["iterations"]
    second = _measure(name, trace=True)["iterations"]
    layers = [
        run_["layers"] for run_ in first + second if run_["traced"]
    ]
    assert len(layers) == 2
    for key in EXACT:
        assert layers[0][key] == layers[1][key], key
    assert layers[0]["sim.events"] > 0
    assert layers[0]["overlay.flood.targets"] > 0
    assert layers[0]["scheduling.cost.calls"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_each_workload_reports_every_metric(name):
    plain = _measure(name, trace=False)
    result = plain["result"]
    assert result["correct"], plain["report"]
    # Sim iterations repeat input 0, so the digest check has a pair.
    inputs = [0, 0] if WORKLOADS[name].kind == "sim" else [0, 1]
    assert [it["input"] for it in plain["iterations"]] == inputs
    assert result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())

    spans_path = run.OUT / f"test-spans-{name}.bin"
    run.OUT.mkdir(exist_ok=True)
    try:
        traced = _measure(name, trace=True, spans_path=spans_path)
        assert traced["result"]["correct"], traced["report"]
        assert set(traced["result"]["metrics"]) == PER_LAYER
        meta, columns = load_spans(spans_path)
    finally:
        spans_path.unlink(missing_ok=True)
    assert meta["workload"] == name and meta["spans"] == len(columns["start"])
    assert all(e >= s for s, e in zip(columns["start"], columns["end"]))
    layers = {n.split(".")[0] for n in meta["names"]}
    expected = {"sim", "net", "core"} if WORKLOADS[name].kind == "sim" else {
        "runtime", "net", "core", "workload"
    }
    assert expected <= layers


def test_tracing_does_not_change_the_outcome():
    iterations = _measure("inform-flood", trace=True)["iterations"]
    assert [it["traced"] for it in iterations] == [False, True]
    assert iterations[0]["digest"] == iterations[1]["digest"]


def test_speed_probe_samples_and_restores_the_timer():
    probe = speed.SpeedProbe()
    with probe.running():
        total = 0
        for i in range(3_000_000):
            total += i
        ref_s = probe.checkpoint()
    assert probe.samples > 3
    assert ref_s > 0 and probe.cpu_s > 0
    assert probe.ref_s >= ref_s
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) != probe._sample


def test_exits_without_a_result_when_the_program_is_missing(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", HERE / "no-such-src")
    assert run.main(["--workload", "inform-flood", "--seed", "0"]) == 2
    assert capsys.readouterr().out == ""
