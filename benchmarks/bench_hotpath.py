"""HOTPATH — the compile-and-cache execution fast path.

Measures the two layers added by the fast-path work against the same
build with the optimizations switched off:

* **Tcl layer** — three backends on the same workloads: the bytecode
  VM (``exec_mode="vm"``, the default), the compiled-AST walk
  (``exec_mode="ast"``: literal argv, substitution closures,
  epoch-guarded command-pointer caches, expr AST specialization, proc
  tail-return elimination), and the plain interpreted walk
  (``Interp(compile_enabled=False)``).
* **Runtime layer** — a compute-bound Swift program run end-to-end
  with ``tcl_compile``/``read_cache``/``batch_refcounts`` on versus
  off, plus VM-vs-AST on the same program.

``benchmarks/record.py`` reuses the ``measure_*`` functions here to
write the committed ``BENCH_hotpath.json`` snapshot.

Note on methodology: timings use best-of-rounds on a private
interpreter per round; deep *binary* Tcl recursion (fib-style) is
deliberately excluded because its wall time swings ±50% with the
initial Python stack depth (CPython frame-stack chunk boundaries),
which drowns the effect being measured.
"""

from __future__ import annotations

import time

from repro import swift_run
from repro.tcl.interp import Interp

# Proc-dispatch-heavy: 16 proc calls per loop iteration, exercising
# argument binding, tail returns, and [cmd] substitution closures.
PROC_PRELUDE = """
proc ping {x} { return $x }
proc pong {a b} { return $b }
proc chain {x} {
    set v [ping [pong [ping $x] [ping [ping [pong $x [ping $x]]]]]]
    set v [ping [pong [ping $v] [ping [ping [pong $v [ping $v]]]]]]
    return [ping [ping $v]]
}
proc drive {n} {
    set out {}
    for {set i 0} {$i < $n} {incr i} { set out [chain $i] }
    return $out
}
"""
PROC_CALL = "drive 50"

# Loop/expr-heavy: compiled loop bodies and specialized literal exprs.
EXPR_PRELUDE = """
proc sumsq {n} {
    set total 0
    for {set i 0} {$i < $n} {incr i} {
        set total [expr {$total + $i * $i}]
    }
    return $total
}
"""
EXPR_CALL = "sumsq 400"

# Dataflow fan-out for the read-cache/refcount-batching comparison (no
# sleeps): every iteration task retrieves the same shared futures
# (read-cache hits after the first) and drops read references on its
# inputs (coalesced by refcount batching).  Per-task Tcl work is tiny,
# so this one is messaging-bound — it guards the *runtime* fast paths.
# It compiles at -O0: the default -O1 keeps a, the test and the output
# as Tcl values and leaves no rule, retrieve or refcount in the body.
E2E_PROGRAM = """
int n = 17;
int m = n * 3 + 2;
foreach i in [0:199] {
    int a = i * n + m;
    if (a %% 7 == 0) { printf("hit %%i", i); }
}
""".replace("%%", "%")
E2E_EXPECTED = sorted(
    "hit %d" % i for i in range(200) if (i * 17 + 17 * 3 + 2) % 7 == 0
)

# End-to-end Tcl-execution benchmark: a hand-written Turbine program
# (the `repro runtcl` flow) whose WORK tasks each run a proc-dispatch
# chain inside a compiled loop — the shape of a Tcl-scripted
# computation distributed by the runtime, where the execution backend
# actually carries the load.  24 tasks over 2 workers.
TASK_COMPUTE_PROGRAM = """
proc swift:main {} {
    for { set i 0 } { $i < 24 } { incr i } {
        turbine::spawn WORK [ list crunch $i ]
    }
}
proc ping { x } { return $x }
proc pong { a b } { return $b }
proc chain { x } {
    set v [ping [pong [ping $x] [ping [ping [pong $x [ping $x]]]]]]
    return [ping [ping $v]]
}
proc crunch { i } {
    set t 0
    for { set j 0 } { $j < 250 } { incr j } {
        set t [ expr { $t + [ chain $j ] } ]
    }
    turbine::log_output "c$i=$t"
}
"""
TASK_COMPUTE_EXPECTED = sorted(
    "c%d=%d" % (i, sum(range(250))) for i in range(24)
)


def _time_tcl(
    prelude: str,
    call: str,
    compile_enabled: bool,
    iters: int,
    exec_mode: str = "ast",
) -> float:
    interp = Interp(compile_enabled=compile_enabled, exec_mode=exec_mode)
    interp.echo = False
    interp.eval(prelude)
    interp.eval(call)  # warm parse/compile caches
    t0 = time.perf_counter()
    for _ in range(iters):
        interp.eval(call)
    return time.perf_counter() - t0


def measure_tcl(
    prelude: str, call: str, iters: int = 60, rounds: int = 3
) -> dict:
    """Best-of-rounds vm vs compiled-AST vs interpreted timing.

    ``speedup`` is the headline number (interpreted / vm, since the VM
    is the default backend); ``speedup_ast`` tracks the compiled-AST
    walk so a VM-era regression there stays visible.
    """
    vm = min(
        _time_tcl(prelude, call, True, iters, "vm") for _ in range(rounds)
    )
    compiled = min(_time_tcl(prelude, call, True, iters) for _ in range(rounds))
    interpreted = min(_time_tcl(prelude, call, False, iters) for _ in range(rounds))
    return {
        "vm_s": vm,
        "compiled_s": compiled,
        "interpreted_s": interpreted,
        "speedup": interpreted / vm,
        "speedup_ast": interpreted / compiled,
        "speedup_vm_vs_ast": compiled / vm,
        "iters": iters,
    }


def measure_dataflow(rounds: int = 3, workers: int = 2) -> dict:
    """The dataflow fan-out with the fast-path optimizations on vs off."""

    def run(**flags) -> float:
        t0 = time.perf_counter()
        res = swift_run(E2E_PROGRAM, workers=workers, opt=0, **flags)
        elapsed = time.perf_counter() - t0
        assert sorted(res.stdout_lines) == E2E_EXPECTED
        return elapsed

    on = min(run() for _ in range(rounds))
    ast = min(run(tcl_exec="ast") for _ in range(rounds))
    off = min(
        run(tcl_compile=False, read_cache=False, batch_refcounts=False)
        for _ in range(rounds)
    )
    return {
        "optimized_s": on,
        "ast_s": ast,
        "unoptimized_s": off,
        "speedup": off / on,
        "workers": workers,
    }


def measure_end_to_end(rounds: int = 3, workers: int = 2) -> dict:
    """Full-stack run of the task-compute Turbine program, three ways:
    the VM backend (default), the compiled-AST backend, and with the
    Tcl compile layer off entirely."""
    from repro.turbine import RuntimeConfig, run_turbine_program

    def run(**flags) -> float:
        cfg = RuntimeConfig.of(workers=workers, **flags)
        t0 = time.perf_counter()
        res = run_turbine_program(TASK_COMPUTE_PROGRAM, cfg)
        elapsed = time.perf_counter() - t0
        assert sorted(res.stdout_lines) == TASK_COMPUTE_EXPECTED
        return elapsed

    vm = min(run() for _ in range(rounds))
    ast = min(run(tcl_exec="ast") for _ in range(rounds))
    off = min(run(tcl_compile=False) for _ in range(rounds))
    return {
        "vm_s": vm,
        "ast_s": ast,
        "interpreted_s": off,
        "speedup": off / vm,
        "speedup_vm_vs_ast": ast / vm,
        "workers": workers,
    }


def test_proc_dispatch_speedup(benchmark):
    """The headline criterion: the VM runs proc-heavy Tcl >= 4x faster
    than interpretation (the AST walk managed ~2.3x)."""
    result = measure_tcl(PROC_PRELUDE, PROC_CALL)
    benchmark.pedantic(
        _time_tcl,
        args=(PROC_PRELUDE, PROC_CALL, True, 30, "vm"),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info.update(result)
    assert result["speedup"] >= 4.0, (
        "VM proc dispatch only %.2fx faster than interpreted "
        "(vm %.4fs, interpreted %.4fs)"
        % (result["speedup"], result["vm_s"], result["interpreted_s"])
    )


def test_proc_dispatch_ast_no_regression(benchmark):
    """tcl_exec="ast" keeps the pre-VM compiled-walk performance."""
    result = measure_tcl(PROC_PRELUDE, PROC_CALL)
    benchmark.pedantic(
        _time_tcl, args=(PROC_PRELUDE, PROC_CALL, True, 30), rounds=3, iterations=1
    )
    benchmark.extra_info.update(result)
    assert result["speedup_ast"] >= 2.0, (
        "compiled proc dispatch only %.2fx faster than interpreted "
        "(compiled %.4fs, interpreted %.4fs)"
        % (result["speedup_ast"], result["compiled_s"], result["interpreted_s"])
    )


def test_expr_loop_speedup(benchmark):
    """Compiled loop bodies + lowered exprs beat the interpreted walk."""
    result = measure_tcl(EXPR_PRELUDE, EXPR_CALL)
    benchmark.pedantic(
        _time_tcl,
        args=(EXPR_PRELUDE, EXPR_CALL, True, 30, "vm"),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info.update(result)
    assert result["speedup"] >= 1.2, (
        "VM expr loop only %.2fx faster than interpreted"
        % result["speedup"]
    )
    # The VM's typed arithmetic bins should not lose to the AST walk.
    assert result["speedup_vm_vs_ast"] >= 0.9, (
        "VM expr loop regressed vs the AST walk: %.2fx"
        % result["speedup_vm_vs_ast"]
    )


def test_end_to_end_vm_speedup(benchmark):
    """The VM must beat the compiled-AST backend >= 1.15x end-to-end on
    the task-compute program (where worker tasks execute real Tcl)."""
    result = measure_end_to_end(rounds=2)
    benchmark.pedantic(
        lambda: measure_end_to_end(rounds=1), rounds=1, iterations=1
    )
    benchmark.extra_info.update(result)
    assert result["speedup_vm_vs_ast"] >= 1.15, (
        "VM end-to-end only %.2fx vs the AST backend "
        "(vm %.4fs, ast %.4fs)"
        % (result["speedup_vm_vs_ast"], result["vm_s"], result["ast_s"])
    )


def test_dataflow_hotpath(benchmark):
    """The full runtime with all fast paths on must not lose to off.

    The threshold is deliberately loose (>= 0.9x): this fan-out is
    dominated by thread scheduling, so it guards against a real
    regression while record.py captures the typical improvement.  The
    same bound is applied to the AST backend so `tcl_exec=ast` stays
    within noise of its pre-VM behavior.
    """
    result = measure_dataflow(rounds=2)
    benchmark.pedantic(
        lambda: swift_run(E2E_PROGRAM, workers=2, opt=0), rounds=2, iterations=1
    )
    benchmark.extra_info.update(result)
    assert result["speedup"] >= 0.9, (
        "fast-path-on end-to-end run regressed: %.2fx vs off"
        % result["speedup"]
    )
    assert result["unoptimized_s"] / result["ast_s"] >= 0.9, (
        "tcl_exec=ast end-to-end run regressed: %.2fx vs off"
        % (result["unoptimized_s"] / result["ast_s"])
    )


def test_cache_metrics_exposed():
    """A traced run exposes the compile/read-cache/VM counters."""
    res = swift_run(E2E_PROGRAM, workers=2, opt=0, trace=True)
    counters = res.trace.metrics["counters"]
    assert counters.get("tcl.compile.hits", 0) > 0
    assert counters.get("tcl.compile.misses", 0) > 0
    assert "adlb.retrieve_cache.hits" in counters
    assert counters.get("adlb.retrieve_cache.misses", 0) > 0
    assert counters.get("tcl.vm.frames", 0) > 0
    assert counters.get("tcl.vm.cache_hits", 0) > 0


if __name__ == "__main__":
    print("proc :", measure_tcl(PROC_PRELUDE, PROC_CALL))
    print("expr :", measure_tcl(EXPR_PRELUDE, EXPR_CALL))
    print("e2e  :", measure_end_to_end())
    print("flow :", measure_dataflow())
