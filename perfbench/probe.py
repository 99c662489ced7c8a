"""One benchmark sample, run in a fresh process by ``run.py``.

    python3 perfbench/probe.py '{"mode": "e2e"|"layers", "workload": ...,
                                 "seed": ..., "scale": ..., ...}'

Prints one JSON object as its last stdout line.  ``e2e`` repeats the
set-up steps, then times one untraced workload run (compile, launch,
run, teardown and the output check) and reads the process's peak RSS.
``layers`` warms up on a tiny instance, then gathers every per-layer
metric: two untraced runs (stats counts), two traced runs (trace
counters), one untraced run on every CPU instead of one, one run under
the boundary span recorder, the serial baseline and the isolated unit
costs.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

from repro import SwiftRuntime, compile_swift

import metrics
import micro
from spans import SpanRecorder, summarize
from workloads import WORKLOADS

#: the CPUs this process may use; every run but one is pinned to one
ALL_CPUS = os.sched_getaffinity(0)


def _pin(cpus: set) -> None:
    # Rank threads inherit the affinity of the thread that starts them.
    os.sched_setaffinity(0, cpus)


def _runtime(inst, **overrides) -> SwiftRuntime:
    return SwiftRuntime(
        workers=inst.workers,
        servers=inst.servers,
        engines=inst.engines,
        setup=inst.setup,
        args=inst.args,
        **overrides,
    )


def _run(inst, **overrides):
    """One checked workload run: (result or None, seconds, failed units)."""
    t0 = perf_counter()
    try:
        res = _runtime(inst, **overrides).run(inst.source)
    except Exception:
        traceback.print_exc()
        return None, perf_counter() - t0, inst.attempted
    failed = inst.check(res.stdout_lines)
    return res, perf_counter() - t0, failed


def e2e(inst, setup_reps: int) -> dict:
    # Set-up first, on the small heap of a freshly imported runtime (the
    # first repetition also pays the runtime's lazy imports, which the
    # 10th percentile drops), then one run of the workload.
    rt = _runtime(inst)
    empty = compile_swift("", opt=1)
    setup = []
    for _ in range(setup_reps):
        t0 = perf_counter()
        compile_swift(inst.source, opt=1)
        rt.run_compiled(empty)
        setup.append(perf_counter() - t0)
    res, makespan, failed = _run(inst)
    return {
        "makespan_s": makespan if res is not None else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup,
        "attempted": inst.attempted,
        "failed": failed,
    }


def _stat_counts(res) -> dict:
    eng, srv = res.engine_stats, res.server_stats
    return {
        "engine.rules_created": sum(e.rules_created for e in eng),
        "engine.rules_fired_local": sum(e.rules_fired_local for e in eng),
        "engine.tasks_released": sum(e.tasks_released for e in eng),
        "engine.notifications": sum(e.notifications for e in eng),
        "engine.control_tasks_run": sum(e.control_tasks_run for e in eng),
        "worker.tasks_run": sum(w.tasks_run for w in res.worker_stats),
        "adlb.data_ops": sum(s.data_ops for s in srv),
        "adlb.tasks_queued": sum(s.tasks_queued for s in srv),
        "adlb.tasks_matched": sum(s.tasks_matched for s in srv),
        "adlb.steal_requests": sum(s.steal_requests for s in srv),
        "adlb.tasks_stolen_in": sum(s.tasks_stolen_in for s in srv),
        "adlb.idle_polls": sum(s.idle_polls for s in srv),
        "adlb.max_queue": max((s.max_queue for s in srv), default=0),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layers(inst, spans_path: str) -> dict:
    # Warm up on the tiny instance first, so every timed run below (and
    # the serial baseline) starts with the lazy imports done.
    _run(WORKLOADS[inst.name](0, "tiny"))
    attempted = failed = 0
    untraced, traced = [], []
    for _ in range(2):  # alternate, so drift hits both sides alike
        for runs, trace in ((untraced, False), (traced, True)):
            res, dt, f = _run(inst, trace=trace)
            attempted, failed = attempted + inst.attempted, failed + f
            if res is not None:
                runs.append((res, dt))
    # The cost of the interpreter-lock hand-offs between cores that
    # pinning hides: one run the way a user runs the program.
    _pin(ALL_CPUS)
    res_u, unpinned_dt, f = _run(inst)
    _pin({max(ALL_CPUS)})
    attempted, failed = attempted + inst.attempted, failed + f
    with SpanRecorder() as rec:
        res_s, _, f = _run(inst)
    attempted, failed = attempted + inst.attempted, failed + f
    rec.save(spans_path)
    serial_s, f = micro.serial_baseline(inst)
    attempted, failed = attempted + inst.attempted, failed + f
    assert attempted == inst.attempted * metrics.LAYER_RUNS
    out = {"attempted": attempted, "failed": failed}
    if not untraced or not traced or res_s is None or res_u is None:
        return out

    u = inst.units
    res, _ = untraced[0]
    c = _stat_counts(res)
    t = traced[0][0].trace.metrics["counters"]
    span = summarize(rec.spans())
    rank_time = res_s.elapsed * (inst.engines + inst.servers + inst.workers)

    def per_call_us(name: str) -> float:
        row = span.get(name)
        return _ratio(row["total"], row["calls"]) * 1e6 if row else 0.0

    def frac(*names: str, key: str = "self") -> float:
        return sum(span[n][key] for n in names if n in span) / rank_time

    makespan = statistics.median(dt for _, dt in untraced)
    m = {
        "turbine.rules_per_unit": c["engine.rules_created"] / u,
        "turbine.notifications_per_unit": c["engine.notifications"] / u,
        "turbine.control_tasks_per_unit": c["engine.control_tasks_run"] / u,
        "turbine.worker_tasks_per_unit": c["worker.tasks_run"] / u,
        "turbine.worker_busy_frac": sum(w.busy_time for w in res.worker_stats)
        / (inst.workers * res.elapsed),
        "adlb.data_ops_per_unit": c["adlb.data_ops"] / u,
        "adlb.tasks_matched_per_unit": c["adlb.tasks_matched"] / u,
        "adlb.steals_per_unit": c["adlb.tasks_stolen_in"] / u,
        "mpi.msgs_per_unit": t["mpi.sends"] / u,
        "mpi.bytes_per_msg": _ratio(t["mpi.bytes_sent"], t["mpi.sends"]),
        "tcl.compile_hit_ratio": _ratio(
            t["tcl.compile.hits"], t["tcl.compile.hits"] + t["tcl.compile.misses"]
        ),
        "tcl.vm_code_hit_ratio": _ratio(
            t["tcl.vm.code_hits"], t["tcl.vm.code_hits"] + t["tcl.vm.code_misses"]
        ),
        "tcl.vm_frames_per_unit": t["tcl.vm.frames"] / u,
        "adlb.read_cache_hit_ratio": _ratio(
            t["adlb.retrieve_cache.hits"],
            t["adlb.retrieve_cache.hits"] + t["adlb.retrieve_cache.misses"],
        ),
        "core.compile_s": span["core.compile"]["total"],
        "tcl.eval_self_frac": frac("tcl.eval"),
        "mpi.send_us": per_call_us("mpi.send"),
        "mpi.recv_wait_frac": frac("mpi.recv", "mpi.recv_poll"),
        "adlb.rpc_us": per_call_us("adlb.rpc"),
        # get's waiting happens in its child recv, so count it inclusive
        "adlb.get_wait_frac": frac("adlb.get", key="total"),
        "interlang.python_us": per_call_us("interlang.python"),
        "interlang.r_us": per_call_us("interlang.r"),
        "obs.trace_overhead": statistics.median(dt for _, dt in traced) / makespan,
        "mpi.unpinned_over_pinned": unpinned_dt / makespan,
        "baseline.serial_s": serial_s,
        "baseline.makespan_over_serial": makespan / serial_s,
    }
    for name, fn in micro.MICRO.items():
        m[name] = fn()
    out["metrics"] = m
    # every raw count of every run, for the repeatability check
    out["counts"] = [_stat_counts(r) for r, _ in untraced] + [
        {k: r.trace.metrics["counters"][k] for k in metrics.TRACED_COUNTS}
        for r, _ in traced
    ]
    return out


def main() -> None:
    # Every rank is a thread under one interpreter lock, so a run uses
    # one CPU at a time; pinning the process to one CPU removes the
    # cross-core lock hand-offs that otherwise dominate run-to-run spread.
    # mpi.unpinned_over_pinned reports what that hides.
    _pin({max(ALL_CPUS)})
    req = json.loads(sys.argv[1])
    inst = WORKLOADS[req["workload"]](req["seed"], req["scale"])
    if req["mode"] == "e2e":
        out = e2e(inst, req["setup_reps"])
    else:
        out = layers(inst, req["spans_path"])
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
