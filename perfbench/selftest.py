"""Self-test of the benchmark on a tiny size of every workload.

    python3 perfbench/selftest.py

For each workload and trace mode, runs ``run.py --scale tiny`` and
asserts that every output was correct, that exactly the metrics named
in ``BENCHMARK.json`` were printed, and that no count outside
``metrics.NONREPEATING`` changed between runs.  Then checks that the
benchmark refuses to run, without printing a result, in a directory
that holds only ``BENCHMARK.json`` and the benchmark's own files.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
from run import load_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + args,
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )


def check_config() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert set(metrics.NONREPEATING) == set(WORKLOADS)


def check_workload(name: str, trace: int, names: dict) -> None:
    proc = run(["--workload", name, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny"])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}, report
    assert report["correct"] is True and report["failed"] == 0, report
    assert report["attempted"] >= 1, report
    got = {k: v["unit"] for k, v in report["metrics"].items()}
    assert got == names, (sorted(got), sorted(names))
    for k, v in report["metrics"].items():
        assert isinstance(v["value"], (int, float)), (k, v)
    if trace:
        assert report["metrics"]["counts.unstable"]["value"] == 0, proc.stderr
        assert os.path.isfile(
            os.path.join(ROOT, ".perfbench_out", "spans-%s-0.jsonl" % name)
        )
    print("ok  %-10s trace=%d" % (name, trace))


def check_bare_directory() -> None:
    """Without the program's sources the benchmark must fail, not report."""
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for f in os.listdir(HERE):
        if f.endswith(".py"):
            shutil.copy(os.path.join(HERE, f), os.path.join(bare, "perfbench"))
    proc = run(["--workload", "fanout", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok  bare directory refused")


def main() -> None:
    check_config()
    end_to_end, per_layer = load_metrics()
    for name in WORKLOADS:
        check_workload(name, 0, end_to_end)
        check_workload(name, 1, per_layer)
    check_bare_directory()


if __name__ == "__main__":
    main()
