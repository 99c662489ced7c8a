"""Every -O level runs every program the same way.

``-O0`` is the straight translation (every scalar a TD, every operator a
dataflow rule); ``-O1``/``-O2`` split values from futures.  These tests
hold the split to the ``-O0`` oracle and to Python references: the
branch-materialization regression, the shipped examples, a random
program generator, division-by-zero semantics, and deterministic
per-iteration count gates on the fan-out.
"""

from __future__ import annotations

import glob
import importlib.util
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SwiftRuntime, swift_run
from repro.core import compile_swift
from repro.faults import TaskError

from .conftest import run_swift

LEVELS = (0, 1, 2)
EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")

# -------------------------------------------------- branch materialization

BRANCH_SRC = (
    'int k = argv_int("k");\n'
    "foreach i in [0:3] {\n"
    '    if (k > 5) { printf("lo %i", i); } else { printf("hi %i", i); }\n'
    "}\n"
)


@pytest.mark.parametrize("opt", LEVELS)
@pytest.mark.parametrize("k,tag", [(2, "hi"), (9, "lo")])
def test_both_if_arms_materialize_their_own_tds(opt, k, tag):
    # the loop index is materialized as a TD inside an arm; the other
    # arm must not reference that arm's TD
    out = run_swift(BRANCH_SRC, args={"k": k}, opt=opt)
    assert out == ["%s %d" % (tag, i) for i in range(4)]


@pytest.mark.parametrize("opt", LEVELS)
def test_value_materialized_in_one_arm_is_fresh_in_the_other(opt):
    src = (
        "(int o) twice(int x) { o = x * 2; }\n"
        'int k = argv_int("k");\n'
        "foreach i in [0:2] {\n"
        "    int c = i + 1;\n"
        '    if (k > i) { printf("a %i", twice(c)); } else { printf("b %i", twice(c)); }\n'
        "}\n"
    )
    out = run_swift(src, args={"k": 1}, opt=opt)
    assert out == ["a 2", "b 4", "b 6"]


@pytest.mark.parametrize("opt", LEVELS)
@pytest.mark.parametrize("cond", ["1 < 2", "2 < 1"])
def test_constant_if_releases_the_eliminated_arms_array_slot(opt, cond):
    # -O1 drops the dead arm; its array writers' slot must still be released
    src = (
        "int r[];\n"
        "foreach i in [0:1] {\n"
        '    if (%s) { printf("t %%i", i); } else { r[i] = i; }\n'
        "}\n"
        'printf("n=%%i", size(r));\n' % cond
    )
    out = run_swift(src, workers=2, opt=opt, deadline=30)
    if cond == "1 < 2":
        assert out == ["n=0", "t 0", "t 1"]
    else:
        assert out == ["n=2"]


def _fixpoint_program() -> str:
    spec = importlib.util.spec_from_file_location(
        "fixpoint_labels", os.path.join(EXAMPLES, "fixpoint_labels.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.PROGRAM


@pytest.mark.parametrize("opt", LEVELS)
def test_fixpoint_labels_runs_at_every_level(opt):
    out = run_swift(_fixpoint_program(), workers=2, opt=opt)
    assert "components: 3" in out
    for node, root in enumerate([0, 0, 0, 3, 3, 3, 3, 7, 7]):
        assert "node %d -> root %d" % (node, root) in out


# ------------------------------------------------------------ the examples


def _example_outputs(path: str, opt: int, monkeypatch) -> list[list[str]]:
    """Run an example's main() with every runtime forced to ``opt``;
    return the sorted program output of each run it makes."""
    outputs: list[list[str]] = []
    init, run = SwiftRuntime.__init__, SwiftRuntime.run

    def forced_init(self, *args, **kw):
        kw["opt"] = opt
        init(self, *args, **kw)

    def recording_run(self, *args, **kw):
        result = run(self, *args, **kw)
        outputs.append(sorted(result.stdout_lines))
        return result

    with monkeypatch.context() as m:
        m.setattr(SwiftRuntime, "__init__", forced_init)
        m.setattr(SwiftRuntime, "run", recording_run)
        spec = importlib.util.spec_from_file_location("example_%d" % opt, path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        mod.main()
    return outputs


@pytest.mark.parametrize(
    "path",
    sorted(glob.glob(os.path.join(EXAMPLES, "*.py"))),
    ids=lambda p: os.path.basename(p),
)
def test_example_output_same_at_every_opt_level(path, monkeypatch):
    if "powergrid" in path or "materials" in path:
        pytest.importorskip("numpy")
    outs = {opt: _example_outputs(path, opt, monkeypatch) for opt in LEVELS}
    assert outs[0], "example made no Swift run"
    assert outs[0] == outs[1] == outs[2]


# ---------------------------------------------------- generated programs
#
# Programs mix argv-derived futures (a, b), the foreach index i, a
# body-local value x, nested ifs on future conditions that print the
# index in both arms, and array stores at subscripts computed from a
# future.  A Python interpreter of the same tree is the reference; with
# divisors that can be zero, -O0 under on_error="continue" is.

_LEAVES = ["a", "b", "i", "x"]


def _int_expr(depth: int, risky: bool = False):
    leaf = st.one_of(
        st.integers(min_value=-9, max_value=9).map(lambda v: ("lit", v)),
        st.sampled_from(_LEAVES).map(lambda n: ("var", n)),
    )
    if depth == 0:
        return leaf
    sub = _int_expr(depth - 1, risky)
    if risky:
        # never a constant, so -O1 cannot fold a division by zero into
        # a compile error
        divisor = st.tuples(st.sampled_from(["a", "b", "i"]), st.integers(-2, 2)).map(
            lambda t: ("bin", "-", ("var", t[0]), ("lit", t[1]))
        )
    else:
        # positive literal divisors: Tcl and Python floor alike
        divisor = st.integers(1, 5).map(lambda v: ("lit", v))
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub).map(lambda t: ("bin",) + t),
        st.tuples(st.sampled_from(["/", "%"]), sub, divisor).map(lambda t: ("bin",) + t),
        sub.map(lambda e: ("neg", e)),
    )


def _cond(depth: int, risky: bool = False):
    cmp = st.tuples(
        st.sampled_from(["<", "==", "!=", ">="]), _int_expr(1, risky), _int_expr(1, risky)
    ).map(lambda t: ("cmp",) + t)
    if depth == 0:
        return cmp
    sub = _cond(depth - 1, risky)
    return st.one_of(
        cmp,
        st.tuples(st.sampled_from(["&&", "||"]), sub, sub).map(lambda t: ("logic",) + t),
        sub.map(lambda c: ("not", c)),
    )


def _stmts(depth: int, risky: bool = False):
    leaf = st.one_of(
        _int_expr(2, risky).map(lambda e: ("print", e)),
        _int_expr(2, risky).map(lambda e: ("store", e)),
    )
    if depth == 0:
        return st.lists(leaf, min_size=1, max_size=2)
    branch = st.tuples(
        _cond(1, risky), _stmts(depth - 1, risky), _stmts(depth - 1, risky)
    ).map(
        lambda t: ("if",) + t
    )
    return st.lists(st.one_of(leaf, branch), min_size=1, max_size=3)


def _number(stmts, counter) -> list:
    """A copy in which every print/store statement has a unique tag."""
    out = []
    for s in stmts:
        if s[0] == "if":
            out.append(("if", s[1], _number(s[2], counter), _number(s[3], counter)))
        else:
            out.append((s[0], s[1], next(counter)))
    return out


def _expr_src(e) -> str:
    kind = e[0]
    if kind == "lit":
        return str(e[1]) if e[1] >= 0 else "(0 - %d)" % -e[1]
    if kind == "var":
        return e[1]
    if kind == "neg":
        return "(-%s)" % _expr_src(e[1])
    return "(%s %s %s)" % (_expr_src(e[2]), e[1], _expr_src(e[3]))


def _cond_src(c) -> str:
    if c[0] == "cmp":
        return "(%s %s %s)" % (_expr_src(c[2]), c[1], _expr_src(c[3]))
    if c[0] == "not":
        return "(!%s)" % _cond_src(c[1])
    return "(%s %s %s)" % (_cond_src(c[2]), c[1], _cond_src(c[3]))


def _stmts_src(stmts, n_tags: int, indent: str) -> list[str]:
    lines = []
    for s in stmts:
        if s[0] == "print":
            lines.append('%sprintf("p%d %%i %%i", i, %s);' % (indent, s[2], _expr_src(s[1])))
        elif s[0] == "store":
            # a subscript computed from the future a: unique per (i, tag)
            lines.append(
                "%sr[(i + a) * %d + %d] = %s;" % (indent, n_tags, s[2], _expr_src(s[1]))
            )
        else:
            lines.append("%sif %s {" % (indent, _cond_src(s[1])))
            lines += _stmts_src(s[2], n_tags, indent + "    ")
            lines.append("%s} else {" % indent)
            lines += _stmts_src(s[3], n_tags, indent + "    ")
            lines.append("%s}" % indent)
    return lines


def _eval(e, env) -> int:
    kind = e[0]
    if kind == "lit":
        return e[1]
    if kind == "var":
        return env[e[1]]
    if kind == "neg":
        return -_eval(e[1], env)
    x, y = _eval(e[2], env), _eval(e[3], env)
    if e[1] == "/":
        return x // y
    if e[1] == "%":
        return x % y
    return {"+": x + y, "-": x - y, "*": x * y}[e[1]]


def _holds(c, env) -> bool:
    if c[0] == "cmp":
        x, y = _eval(c[2], env), _eval(c[3], env)
        return {"<": x < y, "==": x == y, "!=": x != y, ">=": x >= y}[c[1]]
    if c[0] == "not":
        return not _holds(c[1], env)
    p, q = _holds(c[2], env), _holds(c[3], env)
    return (p and q) if c[1] == "&&" else (p or q)


def _run_ref(stmts, env, n_tags: int, out: list[str], arr: dict[int, int]) -> None:
    for s in stmts:
        if s[0] == "print":
            out.append("p%d %d %d" % (s[2], env["i"], _eval(s[1], env)))
        elif s[0] == "store":
            arr[(env["i"] + env["a"]) * n_tags + s[2]] = _eval(s[1], env)
        else:
            _run_ref(s[2] if _holds(s[1], env) else s[3], env, n_tags, out, arr)


def _subst_x(e):
    """x's own initializer cannot read x: read b instead."""
    if e[0] == "var":
        return ("var", "b") if e[1] == "x" else e
    if e[0] == "lit":
        return e
    if e[0] == "neg":
        return ("neg", _subst_x(e[1]))
    return ("bin", e[1], _subst_x(e[2]), _subst_x(e[3]))


def _program(body, x_init, hi: int) -> tuple[list, object, int, str]:
    counter = iter(range(10**6))
    body = _number(body, counter)
    n_tags = next(counter)
    x_init = _subst_x(x_init)
    src = "\n".join(
        [
            'int a = argv_int("a");',
            'int b = argv_int("b");',
            "int r[];",
            "foreach i in [0:%d] {" % hi,
            "    int x = %s;" % _expr_src(x_init),
            *_stmts_src(body, n_tags, "    "),
            "}",
            'foreach v, j in r { printf("r %i %i", j, v); }',
        ]
    )
    return body, x_init, n_tags, src


@given(
    body=_stmts(2),
    x_init=_int_expr(2),
    a=st.integers(min_value=0, max_value=4),
    b=st.integers(min_value=-6, max_value=6),
    hi=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_generated_programs_agree_with_python(body, x_init, a, b, hi):
    body, x_init, n_tags, src = _program(body, x_init, hi)
    expected: list[str] = []
    arr: dict[int, int] = {}
    for i in range(hi + 1):
        env = {"a": a, "b": b, "i": i}
        env["x"] = _eval(x_init, env)
        _run_ref(body, env, n_tags, expected, arr)
    expected += ["r %d %d" % kv for kv in arr.items()]
    for opt in LEVELS:
        out = run_swift(src, workers=2, args={"a": a, "b": b}, opt=opt)
        assert out == sorted(expected), (src, opt)


@given(
    body=_stmts(2, risky=True),
    x_init=_int_expr(2, risky=True),
    a=st.integers(min_value=0, max_value=2),
    b=st.integers(min_value=-2, max_value=2),
    hi=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_failing_divisions_lose_the_same_output_at_every_level(body, x_init, a, b, hi):
    # a failed operator poisons its value and what reads it, at every
    # level alike; -O0 can record more failures (one per operator rule)
    _, _, _, src = _program(body, x_init, hi)
    seen = {}
    for opt in LEVELS:
        res = swift_run(
            src, workers=2, args={"a": a, "b": b}, opt=opt, on_error="continue", deadline=30
        )
        seen[opt] = (sorted(res.stdout_lines), bool(res.failures))
    assert seen[0] == seen[1] == seen[2], src


# -------------------------------------------------------- error semantics

DIV_SRC = (
    'int z = argv_int("z");\n'
    "foreach i in [0:5] {\n"
    "    int q = (i + 10) %s (z + i - 2);\n"
    '    printf("q%%i=%%i", i, q);\n'
    "}\n"
)


def _div_expected(op: str) -> list[str]:
    return sorted(
        "q%d=%d" % (i, (i + 10) // (i - 2) if op == "/" else (i + 10) % (i - 2))
        for i in range(6)
        if i != 2
    )


@pytest.mark.parametrize("opt", LEVELS)
@pytest.mark.parametrize("op", ["/", "%"])
def test_divide_by_zero_on_futures_raises_task_error(opt, op):
    with pytest.raises(TaskError, match="divide by zero"):
        swift_run(DIV_SRC % op, workers=2, args={"z": 0}, opt=opt, on_error="retry")


@pytest.mark.parametrize("opt", LEVELS)
@pytest.mark.parametrize("op", ["/", "%"])
def test_divide_by_zero_on_futures_continue_keeps_other_iterations(opt, op):
    res = swift_run(DIV_SRC % op, workers=2, args={"z": 0}, opt=opt, on_error="continue")
    assert not res.ok
    assert len(res.failures) == 1
    failure = res.failures[0]
    assert "divide by zero" in failure.error
    # -O0 fails inside the operator rule; the split fails inside the
    # wait continuation that computes the value locally
    want = "turbine::binop_integer_body" if opt == 0 else "swift:__wait"
    assert failure.payload.startswith(want)
    assert sorted(res.stdout_lines) == _div_expected(op)


@pytest.mark.parametrize("opt", LEVELS)
def test_divide_by_zero_on_values_continue_keeps_other_iterations(opt):
    # only the index: the split still computes the division in its own
    # wait continuation, not in the CONTROL task that runs the body
    src = 'foreach i in [0:4] { printf("v%i=%i", i, 12 / (i - 3)); }'
    res = swift_run(src, workers=2, opt=opt, on_error="continue")
    assert len(res.failures) == 1
    assert "divide by zero" in res.failures[0].error
    want = "turbine::binop_integer_body" if opt == 0 else "swift:__wait"
    assert res.failures[0].payload.startswith(want)
    assert sorted(res.stdout_lines) == sorted(
        "v%d=%d" % (i, 12 // (i - 3)) for i in range(5) if i != 3
    )


def _continue_outputs(src: str, args: dict | None = None) -> list[str]:
    """Sorted output under on_error="continue", the same at every level,
    with exactly one recorded failure at each."""
    outs = {}
    for opt in LEVELS:
        res = swift_run(src, workers=2, args=args or {}, opt=opt, on_error="continue", deadline=30)
        assert len(res.failures) == 1, (opt, res.failures)
        outs[opt] = sorted(res.stdout_lines)
    assert outs[0] == outs[1] == outs[2], outs
    return outs[0]


@pytest.mark.parametrize("use", ["decl", "printf", "if"])
def test_failing_value_division_loses_only_its_own_statement(use):
    # a value-only division that fails must not stop the rest of the body:
    # the array insert and its writer-slot release still run, so A closes
    # and size(A) prints
    stmt = {
        "decl": 'int q = 12 / (i - 3); printf("q%i=%i", i, q);',
        "printf": 'printf("q%i=%i", i, 12 / (i - 3));',
        "if": 'if (12 / (i - 3) > -100) { printf("q%i=%i", i, 12 / (i - 3)); }',
    }[use]
    src = (
        "int A[];\n"
        "foreach i in [0:4] {\n"
        "    %s\n"
        "    A[i] = i;\n"
        '    printf("i%%i", i);\n'
        "}\n"
        'printf("size=%%i", size(A));\n' % stmt
    )
    expected = ["q%d=%d" % (i, 12 // (i - 3)) for i in range(5) if i != 3]
    expected += ["i%d" % i for i in range(5)] + ["size=5"]
    assert _continue_outputs(src) == sorted(expected)


def test_failed_future_stops_only_its_readers():
    # q fails in main.  The tail region of a = i * y holds only statements
    # computed from a, so the index printf stays outside it and runs, and
    # only the statement reading q is lost, as at -O0
    src = (
        'int z = argv_int("z");\n'
        'int y = argv_int("y");\n'
        "int q = 10 / z;\n"
        "foreach i in [0:2] {\n"
        "    int a = i * y;\n"
        '    printf("a%i=%i", i, a);\n'
        '    printf("idx %i", i);\n'
        '    printf("q%i=%i", i, q + a);\n'
        "    int b = q + i;\n"
        '    printf("b%i=%i", i, b);\n'
        '    printf("after %i", i);\n'
        "}\n"
    )
    expected = ["a%d=%d" % (i, 3 * i) for i in range(3)]
    expected += ["idx %d" % i for i in range(3)] + ["after %d" % i for i in range(3)]
    assert _continue_outputs(src, {"z": 0, "y": 3}) == sorted(expected)


def _procs(tcl: str) -> dict[str, str]:
    """Generated proc bodies by proc name."""
    out = {}
    for chunk in tcl.split("\nproc ")[1:]:
        name, _, rest = chunk.partition(" ")
        out[name] = rest.split("\n}\n")[0]
    return out


def test_tail_region_takes_only_dependent_statements():
    src = (
        'int y = argv_int("y");\n'
        "foreach i in [0:2] {\n"
        "    int a = i * y;\n"
        "    int c = a + 1;\n"
        '    if (c > 2) { printf("big %i", c); }\n'
        "}\n"
        "foreach j in [0:2] {\n"
        "    int a = j * y;\n"
        '    printf("a %i", a);\n'
        '    printf("j %i", j);\n'
        "}\n"
    )
    procs = _procs(compile_swift(src).tcl_text)
    body1, body2 = (procs[n] for n in sorted(procs) if n.startswith("swift:__body"))
    # first body: a, c and the if all hang off one wait on y, and a and c
    # stay values; second body: the index printf does not read a, so it
    # runs in the body, and a gets a TD that its own wait stores
    assert body1.count("turbine::rule") == 1
    assert "turbine::rule [ list $c_y ] [ list swift:__wait" in body1
    wait1 = procs["swift:" + body1.split("[ list swift:")[1].split()[0]]
    assert "turbine::allocate" not in wait1
    assert "if { $t2 > 2 } {" in wait1
    assert "turbine::log_output [ format {j %d} $idx ]" in body2
    assert body2.count("turbine::allocate integer") == 1
    assert body2.count("turbine::rule") == 2


def _chain_program(n: int) -> str:
    """A loop body of n statements, each waiting on one more future."""
    lines = ['int x%d = argv_int("x%d", %d);' % (j, j, j) for j in range(n)]
    lines.append("foreach i in [0:1] {")
    lines.append("    int v0 = i + x0;")
    lines += ["    int v%d = v%d + x%d;" % (j, j - 1, j) for j in range(1, n)]
    lines.append('    printf("%%i %%i", i, v%d);' % (n - 1))
    lines.append("}")
    return "\n".join(lines)


def test_long_chain_of_waits_nests_boundedly():
    # every statement opens a nested wait; past MAX_TAIL_DEPTH they stop
    # nesting, so compile stack and time stay linear in the chain length
    compile_swift(_chain_program(400))
    n = 40
    total = n * (n - 1) // 2
    for opt in LEVELS:
        assert run_swift(_chain_program(n), workers=2, opt=opt) == [
            "0 %d" % total,
            "1 %d" % (total + 1),
        ]


# ---------------------------------------------------- deterministic gates

FANOUT_SRC = """
int n = argv_int("n");
int m = argv_int("m");
int d = argv_int("d");
int k = argv_int("iters");
foreach i in [0:k - 1] {
    int a = i * n + m;
    if (a % d == 0) { printf("hit %i", i); }
}
"""


def test_fanout_count_gates_per_iteration():
    """Fan-out counts repeat exactly from run to run, so these gates have
    no noise band: a regression of one message per iteration fails."""
    iters, n, m, d = 200, 23, 5, 7
    res = swift_run(
        FANOUT_SRC, workers=2, trace=True, args={"n": n, "m": m, "d": d, "iters": iters}
    )
    assert sorted(res.stdout_lines) == sorted(
        "hit %d" % i for i in range(iters) if (i * n + m) % d == 0
    )
    counters = res.trace.metrics["counters"]
    data_ops = sum(s.data_ops for s in res.server_stats)
    assert counters["engine.rules_created"] / iters <= 2.1
    assert data_ops / iters <= 1
    assert counters["mpi.sends"] / iters <= 13.5


def test_fanout_body_shape():
    """-O1: the body waits on n and m and computes a locally; then, since
    a % d can fail, one more wait on d computes the test and the output
    locally.  -O0 keeps one rule per operator."""
    o1 = compile_swift(FANOUT_SRC).tcl_text
    assert "binop_" not in o1
    assert "printf_rule" not in o1
    procs = _procs(o1)
    (body,) = (procs[n] for n in procs if n.startswith("swift:__body"))
    assert body.count("turbine::rule") == 1
    assert "turbine::rule [ list $c_n $c_m ] [ list swift:__wait3 " in body
    wait_a, wait_d = procs["swift:__wait3"], procs["swift:__wait4"]
    assert "set t1 [ expr { ( $c_i * $v_n ) + $v_m } ]" in wait_a
    assert "turbine::rule [ list $c_d ] [ list swift:__wait" in wait_a
    assert "turbine::allocate" not in wait_a
    assert "if { ( $c_a % $v_d ) == 0 } {" in wait_d
    assert "turbine::log_output [ format {hit %d} $c_i ]" in wait_d
    o0 = compile_swift(FANOUT_SRC, opt=0).tcl_text
    assert o0.count("turbine::binop_integer {") == 4  # k - 1, *, +, %
    assert "turbine::printf_rule" in o0
