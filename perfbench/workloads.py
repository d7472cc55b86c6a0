"""The benchmark's workloads, and one measured iteration of each.

An iteration is plain calls into public entry points — never
``run_batch``, whose on-disk cache would serve stored results instead of
running the code:

* ``sim`` workloads: ``repro.experiments.build_grid`` (the set-up), then
  ``GridSetup.run`` (the run);
* ``live`` workloads: ``repro.runtime.run_live``, one in-process fleet of
  localhost HTTP nodes on one asyncio thread.

Each iteration runs in a fresh process (see ``run.py``), so its peak RSS
is its own and the converged-overlay cache in ``repro.experiments.runner``
starts empty: every set-up pays for its overlay build.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from spans import LiveProbe, SpanRecorder, instrument
from speed import SpeedProbe

perf_counter = time.perf_counter

#: Protocol message classes reported one by one in ``net.msgs.*``.
MESSAGE_TYPES = ("Request", "Accept", "Assign", "Inform")


@dataclass(frozen=True)
class Workload:
    kind: str  # "sim" or "live"
    params: Dict[str, Any]


#: The workloads by name; why each was chosen is recorded in
#: ``BENCHMARK.json`` and ``README.md``.
WORKLOADS: Dict[str, Workload] = {
    # The paper's INFORM-heavy rescheduling scenario at 150 nodes / 300
    # jobs: the paper's per-node load (ScenarioScale keeps the offered
    # load shape) at 3/10 of its size, so several fresh-process runs fit
    # one measuring window.  INFORM relay is ~85 % of the messages.
    "inform-flood": Workload(
        "sim",
        {
            "scenario": "iMixed",
            "nodes": 150,
            "jobs": 300,
            "duration": 150_000.0,
            "sample_interval": 600.0,
        },
    ),
    # Above the 2 000-node large-grid threshold: chordal ring, capped
    # REQUEST floods, small seen caches, gc.freeze.  EDF without
    # rescheduling sends no INFORM at all, so an INFORM-side change must
    # leave this workload unchanged.
    "large-discovery": Workload(
        "sim",
        {
            "scenario": "Deadline",
            "nodes": 2_500,
            "jobs": 250,
            "duration": 20_000.0,
            "sample_interval": 300.0,
        },
    ),
    # Open loop: jobs are submitted on schedule whatever the grid's
    # state.  The only workload that reaches repro.runtime (codec,
    # one-shot HTTP, LiveTransport).  The horizon is twice run_live's
    # default 9 000 protocol seconds: some inputs finish their last job
    # after ~11 600 s.  The run still stops once every job is done.
    "live-overlay": Workload(
        "live",
        {
            "scenario": "iMixed",
            "nodes": 24,
            "jobs": 40,
            "time_scale": 600.0,
            "duration": 18_000.0,
        },
    ),
}

#: The same workloads at sizes that run in a few seconds, for the
#: benchmark's own tests.  ``large-discovery`` stays above 2 000 nodes so
#: the large-grid path is still the one taken.
TINY: Dict[str, Dict[str, Any]] = {
    "inform-flood": {
        "scenario": "iMixed",
        "nodes": 16,
        "jobs": 30,
        "duration": 60_000.0,
        "sample_interval": 600.0,
    },
    "large-discovery": {
        "scenario": "Deadline",
        "nodes": 2_100,
        "jobs": 10,
        "duration": 3_000.0,
        "sample_interval": 300.0,
    },
    "live-overlay": {
        "scenario": "iMixed",
        "nodes": 6,
        "jobs": 6,
        "time_scale": 900.0,
        "duration": 9_000.0,
    },
}


def run_iteration(
    kind: str,
    params: Dict[str, Any],
    seed: int,
    trace: bool,
    spans_path: Optional[str] = None,
    header: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Set up and run one workload once; return its figures and checks.

    With ``trace`` every layer's entry points are wrapped for the whole
    iteration (:func:`spans.instrument`), the per-layer figures are added
    under ``layers``, and the spans are written to ``spans_path`` at the
    end when one is given.
    """
    recorder = SpanRecorder() if trace else None
    runner = _run_sim if kind == "sim" else _run_live
    with instrument(recorder) if recorder is not None else nullcontext():
        out = runner(params, seed, recorder)
    from repro.accel import describe

    out["accel"] = describe()
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if recorder is not None:
        out["layers"] = layer_metrics(recorder, out, live=kind == "live")
        if spans_path is not None:
            recorder.dump(spans_path, {**(header or {}), "accel": out["accel"]})
    return out


def _run_sim(
    params: Dict[str, Any], seed: int, recorder: Optional[SpanRecorder]
) -> Dict[str, Any]:
    import repro.experiments as experiments

    duration = params["duration"]
    scale = experiments.ScenarioScale(
        nodes=params["nodes"],
        jobs=params["jobs"],
        duration=duration,
        expanding_start=duration / 3,
        expanding_end=duration * 2 / 3,
        sample_interval=params["sample_interval"],
    )
    scenario = experiments.get_scenario(params["scenario"])
    speed = SpeedProbe()
    with speed.running():
        start = perf_counter()
        ref_start = speed.checkpoint()
        setup = experiments.build_grid(scenario, scale, seed=seed)
        built = perf_counter()
        ref_built, cpu_built = speed.checkpoint(), speed.cpu_s
        result = setup.run()
        end = perf_counter()
        ref_end, cpu_end = speed.checkpoint(), speed.cpu_s
    counts = dict(sorted(result.traffic.count_by_type.items()))
    outcome = {
        "events": result.executed_events,
        "messages": counts,
        "completed": result.metrics.completed_jobs,
    }
    return {
        "setup_s": ref_built - ref_start,
        "setup_wall_s": built - start,
        "run_s": end - built,
        "cpu_s": cpu_end - cpu_built,
        "ref_s": ref_end - ref_built,
        "messages": sum(counts.values()),
        "traffic": counts,
        "bytes": result.traffic.total_bytes,
        "events": result.executed_events,
        "completed": result.metrics.completed_jobs,
        "jobs": params["jobs"],
        "violations": list(result.summary().violations),
        "digest": hashlib.sha256(
            json.dumps(outcome, sort_keys=True).encode("utf-8")
        ).hexdigest()[:16],
    }


def _run_live(
    params: Dict[str, Any], seed: int, recorder: Optional[SpanRecorder]
) -> Dict[str, Any]:
    from repro.runtime import LiveRunConfig, run_live

    config = LiveRunConfig(
        params["scenario"],
        nodes=params["nodes"],
        jobs=params["jobs"],
        time_scale=params["time_scale"],
        duration=params["duration"],
        seed=seed,
    )
    speed = SpeedProbe()
    probe = LiveProbe(speed)
    with speed.running(), probe.attach(recorder):
        start = perf_counter()
        ref_start = speed.checkpoint()
        result = run_live(config)
        end = perf_counter()
        ref_end, cpu_end = speed.checkpoint(), speed.cpu_s
    ref_built, cpu_built = probe.setup_end_ref
    counts = dict(sorted(result.traffic.count_by_type.items()))
    return {
        "setup_s": ref_built - ref_start,
        "setup_wall_s": probe.setup_end - start,
        "run_s": end - probe.setup_end,
        "wall_s": end - start,
        "cpu_s": cpu_end - cpu_built,
        "ref_s": ref_end - ref_built,
        "messages": sum(counts.values()),
        "traffic": counts,
        "bytes": result.traffic.total_bytes,
        "events": result.executed_events,
        "completed": result.metrics.completed_jobs,
        "jobs": config.jobs,
        "violations": list(result.summary().violations),
        "posts": probe.attempted,
        "posts_failed": probe.failed,
        "post_ms": probe.latencies_ms,
        "submit_lag_ms": probe.submit_lag_ms,
    }


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(
    recorder: SpanRecorder, out: Dict[str, Any], live: bool
) -> Dict[str, float]:
    """The per-layer figures of one traced iteration.

    Counts of calls, messages, flood targets and cost evaluations are
    exact (the simulator replays a seed bit for bit); ``*_s`` are self
    seconds unless the name says otherwise.  Figures of a layer the
    workload never reaches are 0.
    """
    totals = recorder.totals()
    counters = recorder.counters
    samples = recorder.samples

    def calls(*names: str) -> int:
        return sum(totals.get(name, (0, 0.0, 0.0))[0] for name in names)

    def total(*names: str) -> float:
        return sum(totals.get(name, (0, 0.0, 0.0))[1] for name in names)

    def own(*names: str) -> float:
        return sum(totals.get(name, (0, 0.0, 0.0))[2] for name in names)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    cost = ("scheduling.cost_for", "scheduling.queue_cost_of")
    metrics: Dict[str, float] = {
        "sim.events": out["events"],
        "sim.self_s": own("sim.run_until"),
        "net.send.calls": calls("net.send"),
        "net.send.self_s": own("net.send"),
        "net.bytes": out["bytes"],
        "overlay.flood.calls": calls("overlay.flood"),
        "overlay.flood.targets": counters["overlay.flood.targets"],
        "overlay.flood.self_s": own("overlay.flood"),
        "overlay.seen.probes": calls("overlay.seen"),
        "overlay.seen.dup_ratio": ratio(
            counters["overlay.seen.duplicates"], calls("overlay.seen")
        ),
        "core.inform.accept_ratio": ratio(
            counters["accepts_in.Inform"], calls("core.handle.Inform")
        ),
        "core.request.accept_ratio": ratio(
            counters["accepts_in.Request"], calls("core.handle.Request")
        ),
        "core.timer.calls": calls("core.timer"),
        "core.timer.self_s": own("core.timer"),
        "scheduling.cost.calls": calls(*cost),
        "scheduling.cost.self_s": own(*cost),
        "scheduling.cost.us_per_call": ratio(own(*cost) * 1e6, calls(*cost)),
        "overlay.build_s": total("overlay.build"),
        "experiments.build_grid.self_s": own("experiments.build_grid"),
        "runtime.codec.encode.calls": calls("runtime.encode"),
        "runtime.codec.decode.calls": calls("runtime.decode"),
        "runtime.codec.encode.us_per_call": ratio(
            total("runtime.encode") * 1e6, calls("runtime.encode")
        ),
        "runtime.codec.decode.us_per_call": ratio(
            total("runtime.decode") * 1e6, calls("runtime.decode")
        ),
        "runtime.http.post.calls": calls("runtime.http.post"),
        "runtime.http.serve.us_per_call": ratio(
            total("runtime.http.serve") * 1e6, calls("runtime.http.serve")
        ),
        "runtime.http.wait_ms_p50": percentile(
            samples["runtime.http.wait_ms"], 50
        ),
        "runtime.loop_busy_frac": (
            1.0 - recorder.idle_s / out["wall_s"] if live else 0.0
        ),
        "runtime.discover_s": total("runtime.discover"),
    }
    for name in MESSAGE_TYPES:
        metrics[f"net.msgs.{name}"] = out["traffic"].get(name, 0)
    for name in ("Inform", "Request"):
        metrics[f"core.handle.{name}.calls"] = calls(f"core.handle.{name}")
    for name in ("Inform", "Request", "Accept", "Assign"):
        metrics[f"core.handle.{name}.self_s"] = own(f"core.handle.{name}")
    return metrics
