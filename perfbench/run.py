"""The repository's benchmark: end-to-end and per-layer figures per workload.

Run from the repository root::

    python3 perfbench/run.py --workload inform-flood --seed 0 --seconds 36 --trace 0

Every iteration is one fresh Python process, started back to back until
the next one would end after ``--seconds``.  Each iteration runs one of
the inputs :func:`input_seed` derives from ``--seed``, so one run
measures several inputs and reports medians over them.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs untraced/traced pairs on one input seed each and
reports the per-layer metrics (see ``perfbench/README.md``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when an
output check failed and 2 when the program is not there to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, percentile  # noqa: E402

#: The process must exit within 180 s; iterations still running after
#: this many seconds are killed and counted as failed.
HARD_LIMIT_S = 160.0

#: Fewest iterations per run: in the sim, an untraced iteration repeated
#: on the same input (the outcome-digest check needs a pair), or one
#: untraced/traced pair.
MIN_ITERATIONS = 2


def input_seed(seed: int, k: int) -> int:
    """The seed of the ``k``-th input of a run seeded with ``seed``.

    The per-message cost of a simulation depends on its input (how many
    INFORM rounds a seed's queues trigger, for one), so a run measures
    several inputs instead of repeating one.
    """
    if k == 0:
        return seed
    digest = hashlib.sha256(f"perfbench/{seed}/{k}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big")


def fingerprint() -> Dict[str, Any]:
    """The machine and code a result was measured on."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def _iteration(job: Dict[str, Any], timeout: float) -> Dict[str, Any]:
    """Run one iteration in a fresh interpreter and return its figures."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    started = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--iteration", json.dumps(job)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"iteration killed after {timeout:.0f} s"}
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-5:]
        return {"error": f"iteration exited {done.returncode}: " + " | ".join(tail)}
    out = json.loads(lines[-1])
    out["process_s"] = wall
    return out


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(
    name: str,
    kind: str,
    params: Dict[str, Any],
    seed: int,
    seconds: float,
    trace: bool,
    spans_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run iterations for ``seconds`` and fold them into one result.

    Untraced, iteration ``i`` runs input ``i``, except in the sim, where
    iterations 0 and 1 both run input 0 and iteration ``i > 1`` runs
    input ``i - 1``.  Traced, iterations ``2k`` (untraced) and ``2k + 1``
    (traced) run input ``k``.  Returns the result object
    (``correct``, ``attempted``, ``failed``, ``metrics``) with the
    ``report`` lines and the raw ``iterations``.
    """
    begin = time.monotonic()
    stamp = fingerprint()
    runs: List[Dict[str, Any]] = []
    errors: List[str] = []
    longest = {False: 0.0, True: 0.0}
    while True:
        index = len(runs)
        traced = trace and index % 2 == 1
        now = time.monotonic()
        if index >= MIN_ITERATIONS and not traced:
            step = longest[False] + (longest[True] if trace else 0.0)
            if now + step > begin + seconds:
                break
        if trace:
            k = index // 2
        elif kind == "sim":
            k = max(0, index - 1)  # input 0 twice: the digest check's pair
        else:
            k = index
        job = {
            "kind": kind,
            "params": params,
            "seed": input_seed(seed, k),
            "trace": traced,
            "spans_path": None,
            "header": {"workload": name, "seed": seed, "params": params, **stamp},
        }
        if traced and k == 0 and spans_path is not None:
            job["spans_path"] = str(spans_path)
        out = _iteration(job, max(1.0, begin + HARD_LIMIT_S - now))
        if "error" in out:
            errors.append(out["error"])
            break
        out.update(traced=traced, input=k)
        longest[traced] = max(longest[traced], out["process_s"])
        runs.append(out)
    if runs:
        stamp["accel"] = runs[0]["accel"]
    plain = [run for run in runs if not run["traced"]]
    traced_runs = [run for run in runs if run["traced"]]

    # -- output checks ------------------------------------------------------
    failures = list(errors)
    failed_runs = 0
    digests: Dict[int, str] = {}
    for index, run in enumerate(runs):
        label = f"iteration {index} (input {run['input']}{', traced' if run['traced'] else ''})"
        problems = []
        if run["violations"]:
            problems.append(f"violations {run['violations'][:3]}")
        if kind == "live" and run["completed"] != run["jobs"]:
            problems.append(f"{run['completed']}/{run['jobs']} jobs completed")
        if kind == "sim":
            first = digests.setdefault(run["input"], run["digest"])
            if run["digest"] != first:
                problems.append(f"outcome digest {run['digest']} != {first} of the same input")
        failures.extend(f"{label}: {problem}" for problem in problems)
        failed_runs += bool(problems)
    if kind == "sim":
        attempted = len(runs) + len(errors)
        failed = failed_runs + len(errors)
    else:
        attempted = sum(run["posts"] for run in runs)
        failed = sum(run["posts_failed"] for run in runs)
    attempted = max(attempted, 1)

    # -- metrics --------------------------------------------------------------
    report = [
        f"perfbench {name} seed={seed} trace={int(trace)} "
        f"iterations={len(plain)} untraced + {len(traced_runs)} traced, "
        f"{len({run['input'] for run in runs})} inputs",
        "fingerprint " + json.dumps(stamp, sort_keys=True),
    ]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics: Dict[str, Dict[str, Any]] = {}

    def put(entry: Dict[str, str], values: List[float]) -> None:
        value = _median(values)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        note = ""
        if len(values) > 1 and min(values) != max(values):
            note = f"median of {len(values)}, {min(values):.4g}..{max(values):.4g}"
        report.append(
            f"  {entry['name']:<36s} {value:>14.6g} {entry['unit']:<6s} {note}"
        )

    posts = [ms for run in plain for ms in run.get("post_ms", ())]
    if plain and not trace:
        figures = {
            "setup_s": [r["setup_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            "ref_cpu_us_per_msg": [r["ref_s"] * 1e6 / r["messages"] for r in plain],
        }
        for entry in spec["end_to_end"]:
            put(entry, figures[entry["name"]])
        report.append(
            f"  (run phase: median {_median([r['run_s'] for r in plain]):.4g} s wall, "
            f"{_median([r['cpu_s'] for r in plain]):.4g} s CPU, "
            f"{_median([r['ref_s'] for r in plain]):.4g} s CPU at reference speed, "
            f"{_median([r['messages'] for r in plain]):.0f} messages; "
            f"set-up median {_median([r['setup_wall_s'] for r in plain]):.4g} s wall)"
        )
        if kind == "live":
            report.append(
                f"  (POST latency: p50 {percentile(posts, 50):.4g} ms, "
                f"p99 {percentile(posts, 99):.4g} ms over {len(posts)} POSTs)"
            )
    if plain and traced_runs:
        # Figures of the first pair, so a seed's exact counters repeat bit
        # for bit across runs; the tracing overhead is a median over pairs.
        layers = dict(traced_runs[0]["layers"])
        first = plain[0]
        if kind == "sim":
            layers["sim.events_per_s"] = first["events"] / first["run_s"]
        else:
            layers["sim.events_per_s"] = first["events"] / first["wall_s"]
        # On CPU time per message at reference speed, which the host's
        # speed changes leave alone (live wall time is set by the
        # open-loop schedule anyway).
        cost = [
            (t["ref_s"] / t["messages"]) / (p["ref_s"] / p["messages"])
            for p, t in zip(plain, traced_runs)
        ]
        layers["trace.overhead_frac"] = _median(cost) - 1.0
        layers["runtime.http.post_ms_p50"] = percentile(posts, 50)
        layers["runtime.http.post_ms_p99"] = percentile(posts, 99)
        layers["workload.submit_lag_ms_p99"] = percentile(
            [ms for run in plain for ms in run.get("submit_lag_ms", ())], 99
        )
        for entry in spec["per_layer"]:
            put(entry, [layers[entry["name"]]])
        if kind == "live":
            report.append(
                f"  (POST latency from {len(posts)} untraced POSTs, "
                f"{len(posts) // 100} beyond p99)"
            )
        if spans_path is not None and spans_path.exists():
            report.append(f"  spans written to {spans_path.relative_to(ROOT)}")
    report.append(
        f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} "
        f"{'POSTs' if kind == 'live' else 'runs'})"
    )
    for failure in failures:
        report.append(f"  CHECK FAILED: {failure}")
    return {
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "report": report,
        "iterations": runs,
    }


def _iteration_main(job: Dict[str, Any]) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import run_iteration

    out = run_iteration(
        job["kind"],
        job["params"],
        job["seed"],
        job["trace"],
        spans_path=job.get("spans_path"),
        header=job.get("header"),
    )
    print(json.dumps(out))
    return 0


def _terminate(signum, frame) -> None:
    # Raised inside subprocess.run, which then kills and reaps the child.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iteration", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.iteration is not None:
        return _iteration_main(json.loads(args.iteration))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        parser.error("--workload is required")
    signal.signal(signal.SIGTERM, _terminate)
    workload = WORKLOADS[args.workload]
    spans_path = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}.bin"
    measured = measure(
        args.workload,
        workload.kind,
        workload.params,
        args.seed,
        args.seconds,
        bool(args.trace),
        spans_path,
    )
    for line in measured["report"]:
        print(line)
    print(json.dumps(measured["result"]))
    return 0 if measured["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
