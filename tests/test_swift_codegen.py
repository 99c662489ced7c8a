"""Code-generation structure: emitted Tcl, slot accounting, opt levels."""

from __future__ import annotations

import pytest

from repro.core import compile_swift
from repro.core.codegen import block_writes, writer_count, writes_arrays
from repro.core.parser import parse
from repro.core.semantics import analyze


def gen(src: str, opt: int = 1) -> str:
    return compile_swift(src, opt=opt).tcl_text


class TestStructure:
    def test_main_proc_exists(self):
        text = gen("int x = 1;")
        assert "proc swift:main" in text

    def test_user_function_proc(self):
        text = gen("(int o) f(int x) { o = x; }")
        assert "proc swift:f:f" in text

    def test_extension_generates_dispatch_and_task(self):
        text = gen(
            '(int o) g(int i) "pkg" "1.0" [ "set <<o>> [ cmd <<i>> ]" ];'
        )
        assert "proc swift:f:g" in text
        assert "proc task:g" in text
        assert "set o_val [ cmd ${i_val} ]" in text
        assert "package require pkg" in text

    def test_ext_rule_is_work_typed(self):
        text = gen('(int o) g(int i) "p" "1.0" [ "set <<o>> <<i>>" ]; int y = g(1);')
        assert "] WORK" in text

    def test_app_generates_shell_call(self):
        text = gen('app (string o) e(string s) { "echo" s } string r = e("x"); trace(r);')
        assert "shell::exec" in text
        assert "lappend argv echo" in text

    def test_loop_spawns_control_tasks(self):
        text = gen("foreach i in [0:9] { trace(i); }")
        assert "turbine::spawn CONTROL" in text

    def test_if_hoisted_with_rule(self):
        src = "int c = parseint(\"1\"); if (c == 1) { trace(1); } else { trace(2); }"
        text = gen(src, opt=0)
        assert "proc swift:__if" in text
        assert "turbine::retrieve $c" in text
        # the split: one rule waiting on c, then a plain Tcl if on its value
        text = gen(src)
        assert "proc swift:__if" not in text
        assert "binop_" not in text
        assert text.split("proc swift:main")[1].count("turbine::rule ") == 1
        assert "turbine::rule [ list $v_c ] [ list swift:__wait1 $v_c ] LOCAL" in text
        assert "if { $v_c == 1 } {" in text

    def test_wait_rule(self):
        text = gen("int x = parseint(\"5\"); wait (x) { trace(x); }")
        assert "proc swift:__wait" in text


class TestSlotAccounting:
    def test_array_allocated_with_writer_slots(self):
        # one writer statement (the foreach) + declaration slot = 2
        text = gen("int a[];\nforeach i in [0:3] { a[i] = i; }\ntrace(size(a));")
        assert "turbine::allocate_container 2" in text

    def test_declaration_slot_released_at_block_end(self):
        text = gen("int a[]; a[0] = 1;")
        assert "turbine::write_refcount_decr" in text

    def test_loop_rebalances_by_iteration_count(self):
        text = gen("int a[]; foreach i in [0:3] { a[i] = i; }")
        assert "turbine::write_refcount_incr" in text
        assert "$n * 1" in text

    def test_two_writers_in_loop_body(self):
        text = gen(
            "int a[]; foreach i in [0:3] { a[i*2] = i; a[i*2+1] = i; }"
        )
        assert "$n * 2" in text

    def test_writes_analysis(self):
        prog = parse(
            "int a[]; int b[];\n"
            "foreach i in [0:1] { a[i] = 1; }\n"
            "if (true) { b[0] = 1; } else { }\n"
        )
        analyze(prog)
        stmts = prog.main.stmts
        assert writes_arrays(stmts[2]) == {"a"}
        assert writes_arrays(stmts[3]) == {"b"}
        assert block_writes(prog.main) == set()  # both declared here
        assert writer_count(prog.main, "a") == 1
        assert writer_count(prog.main, "b") == 1

    def test_nested_loop_writes_propagate(self):
        prog = parse(
            "int a[];\n"
            "foreach i in [0:1] { foreach j in [0:1] { a[i+j] = 1; } }\n"
        )
        analyze(prog)
        assert writes_arrays(prog.main.stmts[1]) == {"a"}

    def test_local_declaration_shadows_writes(self):
        prog = parse(
            "foreach i in [0:1] { int a[]; a[0] = i; trace(size(a)); }"
        )
        analyze(prog)
        assert writes_arrays(prog.main.stmts[0]) == set()


class TestOptimization:
    def test_o0_emits_rules_for_constants(self):
        text = gen("int x = 1 + 2; trace(x);", opt=0)
        assert "binop_integer" in text

    def test_o1_folds_constants(self):
        text = gen("int x = 1 + 2; trace(x);", opt=1)
        assert "binop_integer" not in text
        # the folded constant is a literal operand: no TD, no rule
        assert "turbine::allocate" not in text.split("proc swift:main")[1]
        assert 'turbine::log_output "trace: [ join [ list 3 ] , ]"' in text

    def test_o1_eliminates_constant_branch(self):
        text = gen("if (1 < 2) { trace(1); } else { trace(2); }", opt=1)
        assert "swift:__if" not in text

    def test_o0_keeps_constant_branch(self):
        text = gen("if (1 < 2) { trace(1); } else { trace(2); }", opt=0)
        assert "swift:__if" in text

    def test_o2_propagates_scalar_constants(self):
        o0 = gen("int x = 5; int y = x + 1; trace(y);", opt=0)
        assert "binop_integer" in o0
        for opt in (1, 2):
            text = gen("int x = 5; int y = x + 1; trace(y);", opt=opt)
            assert "binop_integer" not in text
            assert "turbine::rule" not in text.split("proc swift:main")[1]
            assert "[ list 6 ]" in text

    def test_o2_spawn_time_arithmetic_in_loops(self):
        src = "int a[]; foreach i in [0:3] { a[i+1] = i; }"
        assert gen(src, opt=0).count("binop_integer") == 1
        for opt in (1, 2):
            text = gen(src, opt=opt)
            # the subscript is computed in the body, not by a dataflow rule
            assert "binop_integer" not in text
            assert "insert_when_ready" not in text
            assert "set t2 [ expr { $idx + 1 } ]" in text
            assert "turbine::container_insert $c_a $t2 $t1 1" in text

    def test_opt_levels_preserve_structure(self):
        src = "(int o) f(int x) { o = x * 2; } trace(f(4));"
        for opt in (0, 1, 2):
            text = gen(src, opt=opt)
            assert "proc swift:f:f" in text

    def test_emitted_size_shrinks_with_opt(self):
        src = (
            "int base = 100;\n"
            "int a[];\n"
            "foreach i in [0:9] { a[i] = base + i * 2 + 3; }\n"
            "trace(sum_integer(a));\n"
        )
        sizes = {opt: len(gen(src, opt=opt)) for opt in (0, 1, 2)}
        assert sizes[2] <= sizes[1] <= sizes[0]


class TestCompileStats:
    def test_stats_returned(self):
        compiled, stats = compile_swift("int x = 1;", return_stats=True)
        assert stats.n_procs >= 1
        assert stats.n_lines > 5
        assert stats.parse_time >= 0

    def test_printf_format_conversion(self):
        text = gen('printf("%i and %s", 1, "x");')
        assert "%d and %s" in text

    def test_printf_requires_literal_format(self):
        with pytest.raises(Exception, match="literal"):
            gen('string f = "x%i"; printf(f, 1);')
