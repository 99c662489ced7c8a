"""The STC compiler driver: Swift source -> Turbine Tcl program."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from .codegen import Codegen, CompiledProgram
from .parser import parse
from .semantics import analyze


@dataclass
class CompileStats:
    parse_time: float
    check_time: float
    codegen_time: float
    n_procs: int
    n_lines: int


def compile_swift(
    source: str,
    opt: int = 1,
    return_stats: bool = False,
    tracer: Any | None = None,
) -> CompiledProgram | tuple[CompiledProgram, CompileStats]:
    """Compile Swift source text at the given optimization level.

    Levels: 0 = straight translation (every scalar a TD, every operator
    a dataflow rule), kept as the reference the others are tested
    against; 1 (the default) = constant folding, compile-time branch
    elimination and the value/future split: scalars produced and used
    inside one task stay Tcl values computed with ``expr``, a group of
    operators waits on its future leaves with one rule, and ``if`` and
    ``printf``/``trace`` on values run directly (see
    :mod:`repro.core.codegen`); 2 = currently the same code as 1.

    ``tracer`` (a :class:`repro.obs.Tracer`) records per-phase spans in
    the ``compile`` category.
    """
    t0 = time.perf_counter()
    program = parse(source)
    t1 = time.perf_counter()
    funcs = analyze(program)
    t2 = time.perf_counter()
    compiled = Codegen(program, funcs, opt=opt).generate()
    t3 = time.perf_counter()
    if tracer is not None:
        from ..obs import RANK_DRIVER

        tracer.complete(RANK_DRIVER, "compile", "parse", t0, t1)
        tracer.complete(RANK_DRIVER, "compile", "check", t1, t2)
        tracer.complete(
            RANK_DRIVER,
            "compile",
            "codegen",
            t2,
            t3,
            {"opt": opt, "procs": compiled.n_procs, "lines": compiled.n_lines},
        )
    if not return_stats:
        return compiled
    stats = CompileStats(
        parse_time=t1 - t0,
        check_time=t2 - t1,
        codegen_time=t3 - t2,
        n_procs=compiled.n_procs,
        n_lines=compiled.n_lines,
    )
    return compiled, stats
