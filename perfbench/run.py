"""The repository benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 25 --trace 0

A closed loop from one client: each sample is one fresh process
(``probe.py``) that runs the workload once through the public
``SwiftRuntime`` API with 2 workers, checks its output against a
reference computed from the seed, and reports back.  Samples repeat
until ``--seconds`` is spent (at least three with ``--trace 0``).

``--trace 0`` prints the end-to-end metrics: ``makespan_s`` (10th
percentile over samples of one run's wall time), ``setup_s`` (compile of
the workload's program plus launch and teardown of an empty program on
the same rank layout, 10th percentile over every repetition of every
sample) and ``peak_rss_mb`` (median over samples); a summary of each
distribution goes to stderr.  ``--trace 1`` prints the per-layer metrics
and writes the boundary spans of the traced sample to
``.perfbench_out/spans-<workload>-<n>.jsonl``.  The metric names and
units are those of ``BENCHMARK.json``.

The last stdout line is one JSON object: ``correct``, ``attempted``
and ``failed`` (units checked and units whose expected output line was
missing or wrong, a run that raised failing all its units) and
``metrics``.  ``--scale tiny`` shrinks every workload for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: set-up repetitions per e2e sample; set-up is a few ms, so each sample
#: contributes many values to one pooled percentile
SETUP_REPS = 48
#: a sample that takes longer than this is a hung run
SAMPLE_TIMEOUT_S = 150
MIN_E2E_SAMPLES = 3


def load_metrics() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return tuple(
        {m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer")
    )


def probe(req: dict) -> dict | None:
    """Run one sample in a fresh process; None if it crashed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # a fixed string-hash seed: the same dict and set layouts in every sample
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), json.dumps(req)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            timeout=SAMPLE_TIMEOUT_S,
            text=True,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def sample_loop(make_req, seconds: float, min_samples: int) -> list[dict | None]:
    """Samples until the next one would overrun ``seconds``;
    ``make_req(i)`` is the request of sample ``i``."""
    out: list[dict | None] = []
    t0 = perf_counter()
    while True:
        s0 = perf_counter()
        out.append(probe(make_req(len(out))))
        last = perf_counter() - s0
        if len(out) >= min_samples and perf_counter() - t0 + last > seconds:
            return out


def end_to_end(workload: str, seed: int, scale: str, seconds: float):
    req = {
        "mode": "e2e",
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "setup_reps": SETUP_REPS,
    }
    samples = sample_loop(lambda i: req, seconds, MIN_E2E_SAMPLES)
    units = WORKLOADS[workload](seed, scale).attempted
    attempted = failed = 0
    makespans, rss, setup = [], [], []
    for s in samples:
        if s is None:  # the process died: its run fails all its units
            attempted += units
            failed += units
            continue
        attempted += s["attempted"]
        failed += s["failed"]
        if s["makespan_s"] is not None:
            makespans.append(s["makespan_s"])
        rss.append(s["peak_rss_mb"])
        setup.extend(s["setup_s"])
    values = {"makespan_s": makespans, "setup_s": setup, "peak_rss_mb": rss}
    for k, v in values.items():
        if len(v) >= 2:
            q = statistics.quantiles(v, n=10, method="inclusive")
            print(
                "%s: n=%d p10=%.6g median=%.6g p90=%.6g"
                % (k, len(v), q[0], statistics.median(v), q[8]),
                file=sys.stderr,
            )
    result = {k: statistics.median(v) for k, v in values.items() if v}
    # On a shared host the CPU speed swings by up to 1.6x for seconds at
    # a time.  Interference only adds time, so a low percentile tracks
    # the program's own cost: over 10-seed sets the spread of makespan_s
    # was 2-11% against 4-20% for the median, and the median of setup_s
    # moved by 39% between two sets.  p10 rather than the minimum, so
    # that no single sample sets the value.
    for k in ("makespan_s", "setup_s"):
        if len(values[k]) >= 2:
            result[k] = statistics.quantiles(values[k], n=10, method="inclusive")[0]
    return attempted, failed, result


def per_layer(workload: str, seed: int, scale: str, seconds: float):
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    req = {"mode": "layers", "workload": workload, "seed": seed, "scale": scale}

    def make_req(i: int) -> dict:
        path = os.path.join(out_dir, "spans-%s-%d.jsonl" % (workload, i))
        return dict(req, spans_path=path)

    samples = sample_loop(make_req, seconds, 1)
    units = WORKLOADS[workload](seed, scale).attempted * metrics.LAYER_RUNS
    attempted = failed = 0
    values: dict[str, list[float]] = {}
    counts: dict[str, set] = {}
    for s in samples:
        if s is None:
            attempted += units
            failed += units
            continue
        attempted += s["attempted"]
        failed += s["failed"]
        for k, v in s.get("metrics", {}).items():
            values.setdefault(k, []).append(v)
        for run in s.get("counts", []):
            for k, v in run.items():
                counts.setdefault(k, set()).add(v)
    result = {k: statistics.median(v) for k, v in values.items()}
    if values:
        unstable = sorted(
            k
            for k, v in counts.items()
            if len(v) > 1 and k not in metrics.NONREPEATING[workload]
        )
        for k in unstable:
            print("count %s did not repeat: %s" % (k, sorted(counts[k])), file=sys.stderr)
        result["counts.unstable"] = len(unstable)
    return attempted, failed, result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no repro sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    names = load_metrics()[args.trace]
    attempted, failed, values = measure(args.workload, args.seed, args.scale, args.seconds)
    missing = [k for k in names if k not in values]
    unnamed = sorted(set(values) - set(names))
    if unnamed:  # the probe and BENCHMARK.json disagree
        print("perfbench: %s not in BENCHMARK.json" % ", ".join(unnamed), file=sys.stderr)
        return 1
    report = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": values[k], "unit": unit}
            for k, unit in names.items()
            if k in values
        },
    }
    print(json.dumps(report))
    if missing:
        print("perfbench: no value for %s" % ", ".join(missing), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
