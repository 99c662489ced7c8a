"""Tcl code generation (the STC back end).

Swift dataflow semantics compile onto the Turbine command set exactly
as in real STC: every Swift variable becomes a Turbine datum (TD);
statements become ``turbine::rule`` registrations; loop iterations are
shipped as CONTROL tasks; leaf calls (extension functions, apps,
python/r) become WORK tasks executed on workers; arrays are containers
of member-TD references with compile-time write-refcount ("slot")
accounting deciding when they close.

Slot accounting invariant: every scope that can write an array holds
exactly one slot per writer *statement* it contains; compound
statements (if, foreach, wait, calls) hold one slot and rebalance on
entry (``incr W-1``); a container is created with ``1 + W`` slots and
the declaration slot is released at the end of its block.

Value/future split (``-O1`` and up, after STC's own split): a scalar
produced and consumed inside one proc is a Tcl *value* (a local set by
``expr``, a loop index, a literal), not a TD.  A group of pure operators
whose leaves include futures waits on those leaves with one
``turbine::rule ... LOCAL``; its continuation retrieves each leaf once
and computes the rest locally.  The continuation of a scalar's wait
takes the rest of the enclosing block when every later statement only
computes, with operators, on values set from it (so none of them could
run sooner at ``-O0``); otherwise it covers just the one statement.  An
operator group that can fail (division, modulo, a power, a string
comparison) always runs in its own continuation, so a failure loses
what it loses at ``-O0`` and nothing more.  A value becomes a TD only
where it crosses a task boundary: a leaf-call argument, an array
member, an outer variable.
``if`` on a value is a plain Tcl ``if``; ``printf``/``trace`` on values
call ``turbine::log_output`` directly.  ``-O0`` is the straight
translation (every scalar a TD, every operator a rule) and serves as the
differential oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any

from ..tcl.listutil import format_element
from .errors import SwiftTypeError
from .semantics import FuncSig
from .stdlib import INTRINSICS
from .swift_ast import (
    AppDef,
    Assign,
    BinOp,
    Block,
    Call,
    Decl,
    Expr,
    ExprStmt,
    ExtFuncDef,
    Foreach,
    FuncDef,
    If,
    Literal,
    LValue,
    Program,
    RangeSpec,
    Stmt,
    Subscript,
    UnOp,
    VarRef,
    Wait,
)
from .types import (
    BOOLEAN,
    FLOAT,
    INT,
    STORE_CMD,
    STRING,
    TD_TYPE,
    VOID,
    SwiftType,
)

# ---------------------------------------------------------------- write sets


def writes_arrays(stmt: Stmt) -> set[str]:
    """Array variable names (possibly outer-scope) written by stmt."""
    if isinstance(stmt, Decl):
        if stmt.swift_type.is_array and stmt.init is not None:
            return {stmt.name}
        return set()
    if isinstance(stmt, Assign):
        out: set[str] = set()
        for target in stmt.targets:
            if target.index is not None:
                out.add(target.name)
            elif target.type is not None and target.type.is_array:
                out.add(target.name)
        return out
    if isinstance(stmt, If):
        out = block_writes(stmt.then)
        if stmt.els is not None:
            out |= block_writes(stmt.els)
        return out
    if isinstance(stmt, Foreach):
        return block_writes(stmt.body)
    if isinstance(stmt, Wait):
        return block_writes(stmt.body)
    if isinstance(stmt, Block):
        return block_writes(stmt)
    return set()


def block_writes(block: Block) -> set[str]:
    declared = {
        s.name for s in block.stmts if isinstance(s, Decl)
    }
    out: set[str] = set()
    for s in block.stmts:
        out |= writes_arrays(s)
    return out - declared


def writer_count(block: Block, name: str) -> int:
    """Number of immediate writer statements of array ``name`` in block."""
    return sum(1 for s in block.stmts if name in writes_arrays(s))


def value_args(args: list[Expr]) -> bool:
    """Arguments the split can pass to ``printf``/``trace`` as values."""
    return all(a.type in (INT, FLOAT, BOOLEAN, STRING) for a in args)


def is_pure_op(expr: Expr) -> bool:
    """An operator the split computes locally with ``expr``."""
    if isinstance(expr, UnOp):
        return True
    return isinstance(expr, BinOp) and not (expr.op == "+" and expr.type == STRING)


def can_raise(e: Expr) -> bool:
    """Whether computing a pure operator group can fail at run time.

    Division and modulo can, unless the divisor is a nonzero literal; so
    can a power, unless it raises an integer to a non-negative literal,
    and a string comparison, whose ``expr`` text embeds the operands.
    Impure subexpressions are separate TDs and do not count.
    """
    if isinstance(e, UnOp):
        return can_raise(e.operand)
    if not (isinstance(e, BinOp) and is_pure_op(e)):
        return False
    r = e.right
    if e.op in ("/", "%"):
        risky = not (isinstance(r, Literal) and r.value != 0)
    elif e.op == "**":
        risky = not (e.type == INT and isinstance(r, Literal) and r.value >= 0)
    else:
        risky = e.left.type == STRING
    return risky or can_raise(e.left) or can_raise(r)


def pure_reads(e: Expr) -> set[str] | None:
    """Variables a tree of pure operators reads; None if it holds a call
    or a subscript."""
    if isinstance(e, Literal):
        return set()
    if isinstance(e, VarRef):
        return {e.name}
    if isinstance(e, UnOp):
        return pure_reads(e.operand)
    if isinstance(e, BinOp) and is_pure_op(e):
        a, b = pure_reads(e.left), pure_reads(e.right)
        return None if a is None or b is None else a | b
    return None


def defined_names(stmt: Stmt) -> list[str]:
    """Scalar or array names a Decl with an initializer or an Assign sets."""
    if isinstance(stmt, Decl):
        return [stmt.name] if stmt.init is not None else []
    if isinstance(stmt, Assign):
        return [t.name for t in stmt.targets if t.index is None]
    return []


def _simple(text: str) -> bool:
    """A Tcl expr operand that needs no parentheses."""
    return (text.startswith("$") and text[1:].replace("_", "a").isalnum()) or (
        text.replace(".", "", 1).isdigit()
    )


# Tail waits nest one continuation per statement that waits on a new
# future, and each passes the values later statements read down to the
# next, so a long chain of such statements would cost time and stack
# quadratic in its length.  Past this depth a wait covers one statement.
MAX_TAIL_DEPTH = 16


# ---------------------------------------------------------------- values


@dataclass
class CgVal:
    """A compiled expression value: constant, Tcl value, or TD."""

    type: SwiftType
    kind: str  # 'const' | 'rtval' | 'td'
    const: Any = None
    expr: str = ""  # Tcl expression (an id for 'td', a value for 'rtval')
    slot: Any = None  # backing Slot, so TD materialization is cached


def quote_const(value: Any, t: SwiftType) -> str:
    """Tcl source representation of a Swift literal."""
    if t == BOOLEAN:
        return "1" if value else "0"
    if t == FLOAT:
        v = float(value)
        return repr(v)
    if t == INT:
        return str(int(value))
    return format_element(str(value))


class Slot:
    """A Swift variable during code generation."""

    __slots__ = ("swift_name", "type", "kind", "expr", "const", "value_expr")

    def __init__(self, swift_name: str, t: SwiftType, kind: str, expr: str = "", const: Any = None):
        self.swift_name = swift_name
        self.type = t
        self.kind = kind  # 'td' | 'const' | 'rtval' | 'unmaterialized'
        self.expr = expr
        self.const = const
        # Tcl value expression: set for 'rtval', kept across TD
        # materialization, and set on a 'td' once a wait retrieved it
        self.value_expr: str | None = expr if kind == "rtval" else None

    def set_value(self, text: str) -> None:
        self.kind = "rtval"
        self.expr = self.value_expr = text

    def copy(self) -> "Slot":
        slot = Slot(self.swift_name, self.type, self.kind, self.expr, self.const)
        slot.value_expr = self.value_expr
        return slot


# ---------------------------------------------------------------- builders


class ProcBuilder:
    def __init__(self, name: str, params: list[str]):
        self.name = name
        self.params = params
        self.lines: list[str] = []
        self._temp = itertools.count(1)
        self._locals: set[str] = set(params)

    def emit(self, line: str, depth: int = 1) -> None:
        self.lines.append("    " * depth + line)

    def temp(self) -> str:
        return "t%d" % next(self._temp)

    def local_name(self, base: str) -> str:
        name = "v_" + base
        k = 1
        while name in self._locals:
            k += 1
            name = "v_%s_%d" % (base, k)
        self._locals.add(name)
        return name

    def param_name(self, base: str) -> str:
        name = "c_" + base
        k = 1
        while name in self._locals:
            k += 1
            name = "c_%s_%d" % (base, k)
        self._locals.add(name)
        return name

    def text(self) -> str:
        header = "proc %s { %s } {" % (self.name, " ".join(self.params) or "")
        return "\n".join([header, *self.lines, "}"])


class Scope:
    def __init__(
        self,
        gen: "Codegen",
        proc: ProcBuilder,
        parent: "Scope | None" = None,
        boundary: bool = False,
        branch: bool = False,
    ):
        self.gen = gen
        self.proc = proc
        self.parent = parent
        self.boundary = boundary
        # one arm of an if: materializing an outer constant or value here
        # must not leak into the other arm, so such slots are copied in
        self.branch = branch
        self.slots: dict[str, Slot] = {}
        # capture order matters: it becomes the proc's trailing params;
        # each passes the outer slot's TD id ('expr') or value ('value')
        self.captures: list[tuple[str, str]] = []  # (swift name, what)

    def declare(self, name: str, slot: Slot) -> Slot:
        self.slots[name] = slot
        return slot

    def resolve(self, name: str) -> Slot:
        if name in self.slots:
            return self.slots[name]
        if self.parent is None:
            raise SwiftTypeError("codegen: unresolved variable %r" % name)
        outer = self.parent.resolve(name)
        if not self.boundary:
            if self.branch and outer.kind in ("const", "rtval"):
                return self.declare(name, outer.copy())
            return outer
        # crossing a proc boundary: constants copy, TDs/values become params
        if outer.kind == "const":
            slot = Slot(name, outer.type, "const", const=outer.const)
            return self.declare(name, slot)
        if outer.kind == "unmaterialized":
            # materialize in the outer proc so the id can be captured
            self.gen.ensure_td_slot(self.parent, outer)
        if outer.kind == "rtval":
            slot = Slot(name, outer.type, "rtval", expr=self._param(name, "value"))
        else:
            slot = Slot(name, outer.type, "td", expr=self._param(name, "expr"))
            if outer.value_expr is not None and self.gen.split:
                # a retrieved future: pass its value alongside its id
                slot.value_expr = self._param(name, "value")
        return self.declare(name, slot)

    def _param(self, name: str, what: str) -> str:
        param = self.proc.param_name(name.lstrip("%"))
        self.proc.params.append(param)
        self.captures.append((name, what))
        return "$" + param

    def capture_args(self, call_scope: "Scope") -> list[str]:
        """Arguments the parent passes for this boundary scope's captures."""
        args = []
        for name, what in self.captures:
            outer = call_scope.resolve(name)
            if outer.kind == "unmaterialized":
                self.gen.ensure_td_slot(call_scope, outer)
            args.append(outer.value_expr if what == "value" else outer.expr)
        return args


# ---------------------------------------------------------------- result


@dataclass
class CompiledProgram:
    tcl_text: str
    entry: str = "swift:main"
    packages: list[str] = field(default_factory=list)
    opt_level: int = 1
    n_procs: int = 0

    @property
    def n_lines(self) -> int:
        return self.tcl_text.count("\n") + 1


# ---------------------------------------------------------------- codegen


class Codegen:
    def __init__(self, program: Program, funcs: dict[str, FuncSig], opt: int = 1):
        self.program = program
        self.funcs = funcs
        self.opt = opt
        self.split = opt >= 1
        self.procs: list[ProcBuilder] = []
        self._hoist = itertools.count(1)
        self.packages: set[str] = set()
        # id(expr node) -> scope name of the TD an impure subexpression
        # of a pure operator group was compiled into (a future leaf)
        self._leaf_names: dict[int, str] = {}
        self._leaf = itertools.count(1)
        self._tail_depth = 0  # tail waits enclosing the code being emitted

    # -- entry ---------------------------------------------------------------

    def generate(self) -> CompiledProgram:
        for ext in self.program.ext_funcs:
            self.gen_extension(ext)
        for app in self.program.app_funcs:
            self.gen_app(app)
        for fn in self.program.funcs:
            self.gen_composite(fn)
        main_proc = ProcBuilder("swift:main", [])
        self.procs.append(main_proc)
        scope = Scope(self, main_proc)
        self.compile_block(self.program.main, scope)
        prelude = ["# generated by repro-stc (opt level %d)" % self.opt]
        for pkg in sorted(self.packages):
            prelude.append("package require %s" % pkg)
        body = "\n\n".join(p.text() for p in self.procs)
        return CompiledProgram(
            tcl_text="\n".join(prelude) + "\n\n" + body + "\n",
            packages=sorted(self.packages),
            opt_level=self.opt,
            n_procs=len(self.procs),
        )

    # -- helpers --------------------------------------------------------------

    def new_proc(self, kind: str, params: list[str]) -> ProcBuilder:
        proc = ProcBuilder("swift:__%s%d" % (kind, next(self._hoist)), params)
        self.procs.append(proc)
        return proc

    def ensure_td_slot(self, scope: Scope, slot: Slot) -> str:
        """Materialize a slot as a TD id expression, allocating if needed."""
        proc = scope.proc
        if slot.kind == "td":
            return slot.expr
        if slot.kind == "unmaterialized":
            local = proc.local_name(slot.swift_name)
            proc.emit(
                "set %s [ turbine::allocate %s ]" % (local, TD_TYPE[slot.type.base])
            )
            slot.kind = "td"
            slot.expr = "$" + local
            return slot.expr
        if slot.kind == "const":
            td = self.lit_td(proc, slot.const, slot.type)
            slot.kind = "td"
            slot.expr = td
            return td
        if slot.kind == "rtval":
            td = self.value_td(proc, slot.expr, slot.type)
            slot.kind = "td"
            slot.expr = td
            return td
        raise SwiftTypeError("bad slot kind %r" % slot.kind)

    def lit_td(self, proc: ProcBuilder, value: Any, t: SwiftType) -> str:
        tmp = proc.temp()
        proc.emit("set %s [ turbine::allocate %s ]" % (tmp, TD_TYPE[t.base]))
        proc.emit("%s $%s %s" % (STORE_CMD[t.base], tmp, quote_const(value, t)))
        return "$" + tmp

    def value_td(self, proc: ProcBuilder, value_expr: str, t: SwiftType) -> str:
        tmp = proc.temp()
        proc.emit("set %s [ turbine::allocate %s ]" % (tmp, TD_TYPE[t.base]))
        proc.emit("%s $%s %s" % (STORE_CMD[t.base], tmp, value_expr))
        return "$" + tmp

    def ensure_td(self, scope: Scope, val: CgVal) -> str:
        if val.kind == "td":
            return val.expr
        if val.slot is not None:
            # variable-backed: materialize once, cache on the slot
            return self.ensure_td_slot(scope, val.slot)
        if val.kind == "const":
            return self.lit_td(scope.proc, val.const, val.type)
        return self.value_td(scope.proc, val.expr, val.type)

    @staticmethod
    def spawn_value(val: CgVal) -> str | None:
        """Spawn-time value string, or None if only known as a future."""
        if val.kind == "const":
            return quote_const(val.const, val.type)
        if val.kind == "rtval":
            return val.expr
        return None

    def alloc(self, proc: ProcBuilder, t: SwiftType, wrc: int = 1) -> str:
        tmp = proc.temp()
        if t.is_array:
            proc.emit("set %s [ turbine::allocate_container %d ]" % (tmp, wrc))
        else:
            proc.emit("set %s [ turbine::allocate %s ]" % (tmp, TD_TYPE[t.base]))
        return "$" + tmp

    # -- blocks & statements --------------------------------------------------

    def compile_block(
        self, block: Block, scope: Scope, start: int = 0, tails: list[bool] | None = None
    ) -> None:
        """Compile ``block.stmts[start:]``, releasing the declaration slot
        of every array declared among them at the end.

        Under the split a statement whose value positions wait on futures
        gets a wait: a tail wait (see :meth:`tail_heads`) whose
        continuation takes the rest of the block, else a wait covering
        just that ``if`` or ``printf``/``trace``; a declaration or
        assignment that gets no tail stores its TD from its own wait
        (see :meth:`pure_val`).  One that can fail gets its own
        continuation even without futures, so that a failure loses only
        what it loses at ``-O0``.
        """
        stmts = block.stmts
        declared_arrays: list[str] = []
        for k in range(start, len(stmts)):
            stmt = stmts[k]
            futures = self.stmt_futures(stmt, scope) if self.split else None
            if futures and tails is None:
                tails = self.tail_heads(stmts)
            if futures and tails[k] and self._tail_depth < MAX_TAIL_DEPTH:
                self._tail_depth += 1
                self.emit_wait(
                    scope, futures, lambda s: self.compile_block(block, s, k, tails)
                )
                self._tail_depth -= 1
                break
            if isinstance(stmt, (If, ExprStmt)) and futures is not None and (
                futures or any(can_raise(e) for e in self.value_positions(stmt))
            ):
                self.emit_wait(scope, futures, lambda s: self.compile_stmt(stmt, s, block))
                continue
            self.compile_stmt(stmt, scope, block)
            if isinstance(stmt, Decl) and stmt.swift_type.is_array:
                declared_arrays.append(stmt.name)
        for name in declared_arrays:
            slot = scope.resolve(name)
            scope.proc.emit("turbine::write_refcount_decr %s 1" % slot.expr)

    # -- the value/future split ---------------------------------------------------

    def value_positions(self, stmt: Stmt) -> list[Expr] | None:
        """Expressions of stmt that the split computes as Tcl values."""
        if isinstance(stmt, Decl):
            if stmt.init is not None and not stmt.swift_type.is_array and is_pure_op(stmt.init):
                return [stmt.init]
        elif isinstance(stmt, Assign):
            if (
                len(stmt.targets) == 1
                and stmt.targets[0].index is None
                and is_pure_op(stmt.exprs[0])
            ):
                return [stmt.exprs[0]]
        elif isinstance(stmt, If):
            return [stmt.cond]
        elif isinstance(stmt, ExprStmt) and stmt.expr.func in ("printf", "trace"):
            args = stmt.expr.args[1:] if stmt.expr.func == "printf" else stmt.expr.args
            if value_args(args):
                return args
        return None

    def tail_heads(self, stmts: list[Stmt]) -> list[bool]:
        """For each k, whether a wait at ``stmts[k]`` may take ``stmts[k:]``.

        It may when ``stmts[k]`` sets a scalar from operators that cannot
        fail and every later statement either declares without effect or
        computes, from operators only, on a value set at or after k.  At
        ``-O0`` such a statement cannot run before the wait's futures
        either, so the wait defers nothing ``-O0`` would run and holds
        back no future that statement produces, and a poisoned future
        stops only what it stops at ``-O0``.

        Linear: a forward pass finds, for each statement, the latest
        earlier statement setting something it reads; a backward pass
        keeps the minimum of those over the suffix.
        """
        n = len(stmts)
        last: dict[str, int] = {}
        joins = [-1] * n  # the latest head whose region stmts[j] can join
        for j, stmt in enumerate(stmts):
            if isinstance(stmt, Decl) and (stmt.init is None or isinstance(stmt.init, Literal)):
                joins[j] = n
            else:
                exprs = self.value_positions(stmt)
                reads = [pure_reads(e) for e in exprs or ()]
                if exprs and None not in reads:
                    joins[j] = max((last.get(v, -1) for r in reads for v in r), default=-1)
            for name in defined_names(stmt):
                last[name] = j
        ok = [False] * n
        reach = n
        for k in range(n - 1, -1, -1):
            stmt = stmts[k]
            if isinstance(stmt, (Decl, Assign)) and reach >= k:
                exprs = self.value_positions(stmt)
                ok[k] = exprs is not None and not can_raise(exprs[0])
            reach = min(reach, joins[k])
        return ok

    def stmt_futures(self, stmt: Stmt, scope: Scope) -> list[str] | None:
        """Futures a statement's value positions wait on (None: it has none).

        Impure subexpressions (calls, subscripts) are compiled here, each
        into a TD that becomes one more future leaf.
        """
        exprs = self.value_positions(stmt)
        if exprs is None:
            return None
        futures: list[str] = []
        for e in exprs:
            self._leaves(e, scope, futures)
        return list(dict.fromkeys(futures))

    def _leaves(self, e: Expr, scope: Scope, futures: list[str]) -> None:
        name = self._leaf_names.get(id(e))
        if isinstance(e, VarRef) or name is not None:
            slot = scope.resolve(name or e.name)
            if slot.kind == "unmaterialized":
                self.ensure_td_slot(scope, slot)
            if slot.kind == "td" and slot.value_expr is None:
                futures.append(name or e.name)
            return
        if isinstance(e, Literal):
            return
        if isinstance(e, UnOp) and is_pure_op(e):
            self._leaves(e.operand, scope, futures)
            return
        if isinstance(e, BinOp) and is_pure_op(e):
            self._leaves(e.left, scope, futures)
            self._leaves(e.right, scope, futures)
            return
        # an impure leaf: compile it to a TD under a scope name no Swift
        # identifier can take, so waits capture it like a variable
        val = self.compile_expr(e, scope)
        name = "%%t%d" % next(self._leaf)
        scope.declare(name, Slot(name, e.type, "td", expr=self.ensure_td(scope, val)))
        self._leaf_names[id(e)] = name
        futures.append(name)

    def emit_wait(self, scope: Scope, futures: list[str], body) -> None:
        """One rule on ``futures``; its continuation proc retrieves each
        once and runs ``body(scope)`` with them as values."""
        proc = self.new_proc("wait", [])
        child = Scope(self, proc, scope, boundary=True)
        deps = []
        for name in futures:
            deps.append(scope.resolve(name).expr)
            slot = child.resolve(name)
            local = proc.local_name(name.lstrip("%"))
            proc.emit("set %s [ turbine::retrieve %s ]" % (local, slot.expr))
            slot.value_expr = "$" + local
        body(Scope(self, proc, child))
        scope.proc.emit(
            "turbine::rule [ list%s ] [ list %s ] LOCAL"
            % ("".join(" " + d for d in deps), " ".join([proc.name, *child.capture_args(scope)]))
        )

    def value_of(self, slot: Slot) -> str:
        if slot.kind == "const":
            return quote_const(slot.const, slot.type)
        if slot.value_expr is None:
            raise SwiftTypeError("codegen: %r has no value here" % slot.swift_name)
        return slot.value_expr

    def vtext(self, e: Expr, scope: Scope) -> str:
        """Tcl ``expr`` text of a pure operator group whose leaves are all
        values.  Each operator matches its ``turbine::*_body`` proc in
        ``turbine/tcllib.py``, so results and errors are the -O0 ones."""
        name = self._leaf_names.get(id(e))
        if name is not None:
            return self.value_of(scope.resolve(name))
        if isinstance(e, Literal):
            return quote_const(e.value, e.type)
        if isinstance(e, VarRef):
            return self.value_of(scope.resolve(e.name))
        if isinstance(e, UnOp):
            a = self._operand(e.operand, scope)
            if e.op == "!":
                return "! %s" % a
            if e.operand.type == FLOAT:
                return "- double(%s)" % a
            return "- %s" % a
        op = e.op
        lt = e.left.type
        if lt == STRING:
            # binop_compare_body: expr "{$x} oper {$y}"
            a, b = self._str_var(e.left, scope), self._str_var(e.right, scope)
            str_op = {"==": "eq", "!=": "ne"}.get(op, op)
            return self._to_temp(scope, '[ expr "{%s} %s {%s}" ]' % (a, str_op, b))
        a, b = self._operand(e.left, scope), self._operand(e.right, scope)
        if op in ("&&", "||"):
            # both operands are evaluated, as the binop_logic rule does
            a, b = self._to_temp(scope, a), self._to_temp(scope, b)
        elif e.type == FLOAT:
            return "double(%s) %s double(%s)" % (a, op, b)
        elif op == "**":
            # store_integer truncates a fractional power to an integer
            return "int(%s ** %s)" % (a, b)
        return "%s %s %s" % (a, op, b)

    def _operand(self, e: Expr, scope: Scope) -> str:
        text = self.vtext(e, scope)
        return text if _simple(text) else "( %s )" % text

    def _to_temp(self, scope: Scope, text: str) -> str:
        """Evaluate text into a temp now; returns the temp's reference."""
        if _simple(text):
            return text
        tmp = scope.proc.temp()
        if not text.startswith("["):
            text = "[ expr { %s } ]" % text
        scope.proc.emit("set %s %s" % (tmp, text))
        return "$" + tmp

    def _str_var(self, e: Expr, scope: Scope) -> str:
        """A ``$var`` holding a string operand's value."""
        text = self.vtext(e, scope)  # a $reference or a quoted constant
        if _simple(text) and text.startswith("$"):
            return text
        tmp = scope.proc.temp()
        scope.proc.emit("set %s %s" % (tmp, text))
        return "$" + tmp

    def vword(self, e: Expr, scope: Scope) -> str:
        """A Tcl word evaluating to the value of e (all leaves values)."""
        text = self.vtext(e, scope)
        if isinstance(e, (Literal, VarRef)) or id(e) in self._leaf_names:
            return text  # a $reference, or quote_const of a constant
        return "[ expr { %s } ]" % text

    def pure_val(self, expr: Expr, scope: Scope, dst: str | None = None) -> CgVal:
        """A pure operator group as a folded constant or a Tcl value; or,
        when it waits on futures or can fail, as a TD (``dst`` if given)
        stored by its own wait continuation."""
        folded = self.try_fold(expr, scope)
        if folded is not None:
            return folded
        futures: list[str] = []
        self._leaves(expr, scope, futures)
        if not futures and not can_raise(expr):
            return CgVal(expr.type, "rtval", expr=self._to_temp(scope, self.vtext(expr, scope)))
        out = dst or self.alloc(scope.proc, expr.type)
        name = "%%t%d" % next(self._leaf)
        scope.declare(name, Slot(name, expr.type, "td", expr=out))

        def body(s: Scope) -> None:
            s.proc.emit(
                "%s %s %s"
                % (STORE_CMD[expr.type.base], s.resolve(name).expr, self.vword(expr, s))
            )

        self.emit_wait(scope, list(dict.fromkeys(futures)), body)
        return CgVal(expr.type, "td", expr=out)

    def pure_into(self, expr: Expr, dst_td: str, scope: Scope) -> None:
        """Store a pure operator group's value into an existing TD."""
        val = self.pure_val(expr, scope, dst_td)
        if val.kind != "td":
            scope.proc.emit(
                "%s %s %s" % (STORE_CMD[expr.type.base], dst_td, self.spawn_value(val))
            )

    def _materialize_pending(self, scope: Scope) -> None:
        """Give every not-yet-materialized variable of this proc its TD
        now, before an inline ``if``, so neither arm allocates one the
        other arm (or the code after the ``if``) cannot see."""
        s: Scope | None = scope
        while s is not None:
            for slot in s.slots.values():
                if slot.kind == "unmaterialized":
                    self.ensure_td_slot(s, slot)
            if s.boundary:
                break
            s = s.parent

    def rebalance(self, proc: ProcBuilder, td_expr: str, delta: int, depth: int = 1) -> None:
        if delta > 0:
            proc.emit("turbine::write_refcount_incr %s %d" % (td_expr, delta), depth)
        elif delta < 0:
            proc.emit("turbine::write_refcount_decr %s %d" % (td_expr, -delta), depth)

    def compile_stmt(self, stmt: Stmt, scope: Scope, block: Block) -> None:
        if isinstance(stmt, Decl):
            self.compile_decl(stmt, scope, block)
        elif isinstance(stmt, Assign):
            self.compile_assign(stmt, scope)
        elif isinstance(stmt, ExprStmt):
            assert isinstance(stmt.expr, Call)
            sig = self.funcs[stmt.expr.func]
            self.emit_call(
                sig,
                [],
                stmt.expr.args,
                scope,
                priority=self._priority_value(stmt, scope),
                target=self._target_value(stmt, scope),
            )
        elif isinstance(stmt, If):
            self.compile_if(stmt, scope)
        elif isinstance(stmt, Foreach):
            self.compile_foreach(stmt, scope)
        elif isinstance(stmt, Wait):
            self.compile_wait(stmt, scope)
        elif isinstance(stmt, Block):
            self.compile_block(stmt, Scope(self, scope.proc, scope))
        else:
            raise SwiftTypeError("codegen: unknown statement %r" % stmt)

    def compile_decl(self, stmt: Decl, scope: Scope, block: Block) -> None:
        t = stmt.swift_type
        priority = self._priority_value(stmt, scope)
        target = self._target_value(stmt, scope)
        if t.is_array:
            w = writer_count(block, stmt.name)
            td = self.alloc(scope.proc, t, wrc=1 + w)
            slot = Slot(stmt.name, t, "td", expr=td)
            scope.declare(stmt.name, slot)
            if stmt.init is not None:
                # whole-array init from a call
                assert isinstance(stmt.init, Call)
                sig = self.funcs[stmt.init.func]
                self.emit_call(
                    sig, [td], stmt.init.args, scope,
                    priority=priority, target=target,
                )
            return
        # scalars are lazily materialized
        slot = Slot(stmt.name, t, "unmaterialized")
        scope.declare(stmt.name, slot)
        if stmt.init is not None:
            self.assign_into(
                slot, stmt.init, scope, priority=priority, target=target
            )

    def assign_into(
        self,
        slot: Slot,
        expr: Expr,
        scope: Scope,
        priority: str | None = None,
        target: str | None = None,
    ) -> None:
        """Compile ``slot = expr`` for a scalar slot."""
        if self.split and isinstance(expr, Literal) and slot.kind == "unmaterialized":
            slot.kind = "const"
            slot.const = expr.value
            return
        if isinstance(expr, (BinOp, UnOp)):
            if self.split and is_pure_op(expr):
                dst = None if slot.kind == "unmaterialized" else self.ensure_td_slot(scope, slot)
                val = self.pure_val(expr, scope, dst)
                if val.kind == "td":
                    slot.kind, slot.expr = "td", val.expr
                else:
                    self._store_val(slot, val, scope)
                return
            folded = self.try_fold(expr, scope)
            if folded is not None:
                self._store_val(slot, folded, scope)
                return
            dst = self.ensure_td_slot(scope, slot)
            self.emit_operator(expr, dst, scope)
            return
        if isinstance(expr, Call):
            sig = self.funcs[expr.func]
            dst = self.ensure_td_slot(scope, slot)
            self.emit_call(
                sig, [dst], expr.args, scope, priority=priority, target=target
            )
            return
        if isinstance(expr, Subscript):
            dst = self.ensure_td_slot(scope, slot)
            self.emit_subscript_into(expr, dst, scope)
            return
        val = self.compile_expr(expr, scope)
        self._store_val(slot, val, scope)

    def _store_val(self, slot: Slot, val: CgVal, scope: Scope) -> None:
        if self.split and slot.kind == "unmaterialized":
            if val.kind == "const":
                slot.kind = "const"
                slot.const = val.const
                return
            if val.kind == "rtval":
                slot.set_value(val.expr)
                return
        dst = self.ensure_td_slot(scope, slot)
        if val.kind == "td":
            scope.proc.emit("turbine::copy_td %s %s" % (dst, val.expr))
        else:
            value = self.spawn_value(val)
            scope.proc.emit("%s %s %s" % (STORE_CMD[slot.type.base], dst, value))

    def _annotation_value(self, stmt, scope: Scope, attr: str) -> str | None:
        expr = getattr(stmt, attr, None)
        if expr is None:
            return None
        val = self.compile_expr(expr, scope)
        value = self.spawn_value(val)
        if value is None:
            raise SwiftTypeError(
                "@%s must be computable at spawn time (a constant or "
                "loop-index expression), not a future"
                % ("prio" if attr == "priority" else attr),
                stmt.line,
            )
        return value

    def _priority_value(self, stmt, scope: Scope) -> str | None:
        return self._annotation_value(stmt, scope, "priority")

    def _target_value(self, stmt, scope: Scope) -> str | None:
        return self._annotation_value(stmt, scope, "target")

    def compile_assign(self, stmt: Assign, scope: Scope) -> None:
        priority = self._priority_value(stmt, scope)
        target = self._target_value(stmt, scope)
        if len(stmt.exprs) == 1 and isinstance(stmt.exprs[0], Call):
            call = stmt.exprs[0]
            sig = self.funcs[call.func]
            if sig.kind != "intrinsic" and len(sig.outs) == len(stmt.targets) > 1:
                out_tds = [self.target_td(t, scope) for t in stmt.targets]
                self.emit_call(
                    sig, out_tds, call.args, scope,
                    priority=priority, target=target,
                )
                return
        for lhs, expr in zip(stmt.targets, stmt.exprs):
            if lhs.index is None:
                slot = scope.resolve(lhs.name)
                if slot.type.is_array:
                    # whole-array assignment from a call
                    assert isinstance(expr, Call)
                    sig = self.funcs[expr.func]
                    self.emit_call(
                        sig, [slot.expr], expr.args, scope,
                        priority=priority, target=target,
                    )
                elif (priority is not None or target is not None) and isinstance(expr, Call):
                    sig = self.funcs[expr.func]
                    dst = self.ensure_td_slot(scope, slot)
                    self.emit_call(
                        sig, [dst], expr.args, scope,
                        priority=priority, target=target,
                    )
                else:
                    self.assign_into(slot, expr, scope)
            else:
                self.compile_array_store(lhs, expr, scope)

    def target_td(self, target: LValue, scope: Scope) -> str:
        """TD receiving one output of a multi-output call."""
        if target.index is None:
            slot = scope.resolve(target.name)
            return self.ensure_td_slot(scope, slot)
        # a[i], out = f(...): insert a fresh member, then fill it
        member = self.alloc(scope.proc, target.type)
        self.emit_insert(target, member, scope)
        return member

    def compile_array_store(self, target: LValue, expr: Expr, scope: Scope) -> None:
        # a[i] = expr: compile expr to a member TD, insert the reference.
        if isinstance(expr, VarRef):
            member = self.ensure_td_slot(scope, scope.resolve(expr.name))
        else:
            member = self.alloc(scope.proc, target.type)
            self.compile_expr_into(expr, member, target.type, scope)
        self.emit_insert(target, member, scope)

    def emit_insert(self, target: LValue, member_td: str, scope: Scope) -> None:
        arr = scope.resolve(target.name)
        idx = self.compile_expr(target.index, scope)
        idx_value = self.spawn_value(idx)
        if idx_value is not None:
            scope.proc.emit(
                "turbine::container_insert %s %s %s 1"
                % (arr.expr, idx_value, member_td)
            )
        else:
            scope.proc.emit(
                "turbine::insert_when_ready %s %s %s"
                % (arr.expr, idx.expr, member_td)
            )

    # -- control flow ----------------------------------------------------------

    def compile_if(self, stmt: If, scope: Scope) -> None:
        if self.split:
            cond = self.compile_expr_const(stmt.cond, scope)
            arrays = {name: scope.resolve(name).expr for name in sorted(writes_arrays(stmt))}
            if cond is not None:
                # only the taken arm: it still releases the if's slots
                self._emit_arm(stmt.then if cond.const else stmt.els, scope, arrays, 1)
                return
            # compile_block waited for the condition's futures
            self._materialize_pending(scope)
            self._emit_if(stmt, self.vtext(stmt.cond, scope), scope, arrays)
            return
        cond = self.compile_expr(stmt.cond, scope)
        written = sorted(writes_arrays(stmt))
        cond_td = self.ensure_td(scope, cond)
        proc = self.new_proc("if", ["c"])
        child = Scope(self, proc, scope, boundary=True)
        # resolve written arrays up-front so they become captures
        arrays = {name: child.resolve(name).expr for name in written}
        self._emit_if(stmt, "[ turbine::retrieve $c ]", child, arrays)
        args = " ".join([cond_td, *child.capture_args(scope)])
        scope.proc.emit(
            "turbine::rule [ list %s ] [ list %s %s ] LOCAL"
            % (cond_td, proc.name, args)
        )

    def _emit_if(self, stmt: If, cond: str, scope: Scope, arrays: dict[str, str]) -> None:
        """A Tcl ``if`` in scope's proc; each arm first rebalances the
        if's one slot to its own writer count of every array written."""
        proc = scope.proc
        proc.emit("if { %s } {" % cond)
        self._emit_arm(stmt.then, scope, arrays)
        else_line = len(proc.lines)
        proc.emit("} else {")
        self._emit_arm(stmt.els, scope, arrays)
        if self.split and len(proc.lines) == else_line + 1:
            proc.lines.pop()  # empty else arm
        proc.emit("}")

    def _emit_arm(
        self, arm: Block | None, scope: Scope, arrays: dict[str, str], depth: int = 2
    ) -> None:
        for name, td in arrays.items():
            w = writer_count(arm, name) if arm is not None else 0
            self.rebalance(scope.proc, td, w - 1, depth)
        if arm is not None:
            self._compile_block_at(arm, Scope(self, scope.proc, scope, branch=True), depth)

    def _compile_block_at(self, block: Block, scope: Scope, depth: int) -> None:
        """Compile a block whose lines are emitted at a given indent."""
        proc = scope.proc
        mark = len(proc.lines)
        self.compile_block(block, scope)
        if depth != 1:
            extra = "    " * (depth - 1)
            for i in range(mark, len(proc.lines)):
                proc.lines[i] = extra + proc.lines[i]

    def compile_wait(self, stmt: Wait, scope: Scope) -> None:
        deps = [self.ensure_td(scope, self.compile_expr(e, scope)) for e in stmt.exprs]
        written = sorted(writes_arrays(stmt))
        proc = self.new_proc("wait", [])
        child = Scope(self, proc, scope, boundary=True)
        arr_slots = {name: child.resolve(name) for name in written}
        for name in written:
            self.rebalance(proc, arr_slots[name].expr, writer_count(stmt.body, name) - 1, 1)
        self.compile_block(stmt.body, Scope(self, proc, child))
        args = " ".join(child.capture_args(scope))
        scope.proc.emit(
            "turbine::rule [ list %s ] [ list %s%s ] LOCAL"
            % (" ".join(deps), proc.name, (" " + args) if args else "")
        )

    def compile_foreach(self, stmt: Foreach, scope: Scope) -> None:
        written = sorted(writes_arrays(stmt))
        body_w = {name: writer_count(stmt.body, name) for name in written}

        if isinstance(stmt.iterable, RangeSpec):
            self._foreach_range(stmt, scope, written, body_w)
        else:
            self._foreach_array(stmt, scope, written, body_w)

    def _make_body_proc(
        self, stmt: Foreach, scope: Scope, params: list[str]
    ) -> tuple[ProcBuilder, Scope]:
        proc = self.new_proc("body", params)
        child = Scope(self, proc, scope, boundary=True)
        body_scope = Scope(self, proc, child)
        if isinstance(stmt.iterable, RangeSpec):
            body_scope.declare(stmt.var, Slot(stmt.var, INT, "rtval", expr="$idx"))
        else:
            elem_t = stmt.iterable.type.element
            body_scope.declare(stmt.var, Slot(stmt.var, elem_t, "td", expr="$elem"))
            if stmt.index_var:
                body_scope.declare(
                    stmt.index_var, Slot(stmt.index_var, INT, "rtval", expr="$idx")
                )
        self.compile_block(stmt.body, body_scope)
        return proc, child

    def _foreach_range(self, stmt, scope, written, body_w) -> None:
        rng: RangeSpec = stmt.iterable
        lo = self.compile_expr(rng.lo, scope)
        hi = self.compile_expr(rng.hi, scope)
        step = (
            self.compile_expr(rng.step, scope)
            if rng.step is not None
            else CgVal(INT, "const", const=1)
        )
        body_proc, body_child = self._make_body_proc(stmt, scope, ["idx"])

        # The start proc takes the three bounds (values or TD ids to
        # retrieve) followed by pass-through captures for the body.
        start = self.new_proc("loop", ["p_lo", "p_hi", "p_step"])
        start_scope = Scope(self, start, scope, boundary=True)
        dep_tds: list[str] = []
        bound_args: list[str] = []
        for label, val in (("lo", lo), ("hi", hi), ("step", step)):
            value = self.spawn_value(val)
            if value is not None:
                start.emit("set %s $p_%s" % (label, label))
                bound_args.append(value)
            else:
                start.emit("set %s [ turbine::retrieve $p_%s ]" % (label, label))
                dep_tds.append(val.expr)
                bound_args.append(val.expr)
        start.emit(
            "set n [ expr { $hi >= $lo ? ( ( $hi - $lo ) / $step ) + 1 : 0 } ]"
        )
        arr_slots = {name: start_scope.resolve(name) for name in written}
        for name in written:
            w = body_w[name]
            start.emit(
                "turbine::write_refcount_incr %s [ expr { $n * %d } ]"
                % (arr_slots[name].expr, w)
            )
            start.emit("turbine::write_refcount_decr %s 1" % arr_slots[name].expr)
        body_args = " ".join(body_child.capture_args(start_scope))
        start.emit("for { set i $lo } { $i <= $hi } { incr i $step } {")
        start.emit(
            "    turbine::spawn CONTROL [ list %s $i%s ]"
            % (body_proc.name, (" " + body_args) if body_args else "")
        )
        start.emit("}")
        call_args = bound_args + start_scope.capture_args(scope)
        if dep_tds:
            scope.proc.emit(
                "turbine::rule [ list %s ] [ list %s %s ] LOCAL"
                % (" ".join(dep_tds), start.name, " ".join(call_args))
            )
        else:
            scope.proc.emit("%s %s" % (start.name, " ".join(call_args)))

    def _foreach_array(self, stmt, scope, written, body_w) -> None:
        arr = self.compile_expr(stmt.iterable, scope)
        body_proc, body_child = self._make_body_proc(stmt, scope, ["idx", "elem"])
        start = self.new_proc("loop", ["c"])
        start_scope = Scope(self, start, scope, boundary=True)
        start.emit("set subs [ turbine::enumerate $c ]")
        start.emit("set n [ llength $subs ]")
        arr_slots = {name: start_scope.resolve(name) for name in written}
        for name in written:
            w = body_w[name]
            start.emit(
                "turbine::write_refcount_incr %s [ expr { $n * %d } ]"
                % (arr_slots[name].expr, w)
            )
            start.emit("turbine::write_refcount_decr %s 1" % arr_slots[name].expr)
        body_args = " ".join(body_child.capture_args(start_scope))
        start.emit("foreach s $subs {")
        start.emit("    set m [ turbine::container_lookup $c $s ]")
        start.emit(
            "    turbine::spawn CONTROL [ list %s $s $m%s ]"
            % (body_proc.name, (" " + body_args) if body_args else "")
        )
        start.emit("}")
        args = " ".join([arr.expr, *start_scope.capture_args(scope)])
        scope.proc.emit(
            "turbine::rule [ list %s ] [ list %s %s ] LOCAL"
            % (arr.expr, start.name, args)
        )

    # -- expressions -----------------------------------------------------------

    def try_fold(self, expr: Expr, scope: Scope) -> CgVal | None:
        """Constant-fold an operator expression if possible (opt >= 1)."""
        if self.opt < 1:
            return None
        if isinstance(expr, UnOp):
            v = self.compile_expr_const(expr.operand, scope)
            if v is None:
                return None
            if expr.op == "-":
                return CgVal(expr.type, "const", const=-v.const)
            return CgVal(BOOLEAN, "const", const=not v.const)
        if isinstance(expr, BinOp):
            a = self.compile_expr_const(expr.left, scope)
            b = self.compile_expr_const(expr.right, scope)
            if a is None or b is None:
                return None
            return CgVal(expr.type, "const", const=fold_binop(expr.op, a.const, b.const, expr.type))
        return None

    def compile_expr_const(self, expr: Expr, scope: Scope) -> CgVal | None:
        """Compile only if the result is a compile-time constant."""
        if isinstance(expr, Literal):
            return CgVal(expr.type, "const", const=expr.value)
        if isinstance(expr, VarRef):
            slot = scope.resolve(expr.name)
            if slot.kind == "const":
                return CgVal(slot.type, "const", const=slot.const)
            return None
        if isinstance(expr, (BinOp, UnOp)):
            return self.try_fold(expr, scope)
        return None

    def compile_expr(self, expr: Expr, scope: Scope) -> CgVal:
        if isinstance(expr, Literal):
            return CgVal(expr.type, "const", const=expr.value)
        if isinstance(expr, VarRef):
            slot = scope.resolve(expr.name)
            if slot.kind == "const":
                return CgVal(slot.type, "const", const=slot.const, slot=slot)
            if slot.kind == "rtval":
                return CgVal(slot.type, "rtval", expr=slot.expr, slot=slot)
            if slot.kind == "td" and slot.value_expr is not None:
                # the future is materialized, but the spawn-time value
                # is still known — prefer it where a value suffices
                return CgVal(slot.type, "rtval", expr=slot.value_expr, slot=slot)
            td = self.ensure_td_slot(scope, slot)
            return CgVal(slot.type, "td", expr=td, slot=slot)
        if isinstance(expr, (BinOp, UnOp)):
            if self.split and is_pure_op(expr):
                return self.pure_val(expr, scope)
            folded = self.try_fold(expr, scope)
            if folded is not None:
                return folded
            out = self.alloc(scope.proc, expr.type)
            self.emit_operator(expr, out, scope)
            return CgVal(expr.type, "td", expr=out)
        if isinstance(expr, Subscript):
            out = self.alloc(scope.proc, expr.type)
            self.emit_subscript_into(expr, out, scope)
            return CgVal(expr.type, "td", expr=out)
        if isinstance(expr, Call):
            sig = self.funcs[expr.func]
            out = self.alloc(scope.proc, expr.type)
            self.emit_call(sig, [out], expr.args, scope)
            return CgVal(expr.type, "td", expr=out)
        raise SwiftTypeError("codegen: cannot compile expression %r" % expr)

    def compile_expr_into(self, expr: Expr, dst_td: str, t: SwiftType, scope: Scope) -> None:
        """Compile an expression, writing its value into an existing TD."""
        if isinstance(expr, (BinOp, UnOp)):
            if self.split and is_pure_op(expr):
                self.pure_into(expr, dst_td, scope)
                return
            folded = self.try_fold(expr, scope)
            if folded is not None:
                scope.proc.emit(
                    "%s %s %s"
                    % (STORE_CMD[t.base], dst_td, quote_const(folded.const, t))
                )
                return
            self.emit_operator(expr, dst_td, scope)
            return
        if isinstance(expr, Call):
            sig = self.funcs[expr.func]
            self.emit_call(sig, [dst_td], expr.args, scope)
            return
        if isinstance(expr, Subscript):
            self.emit_subscript_into(expr, dst_td, scope)
            return
        val = self.compile_expr(expr, scope)
        if val.kind == "td":
            scope.proc.emit("turbine::copy_td %s %s" % (dst_td, val.expr))
        else:
            scope.proc.emit(
                "%s %s %s" % (STORE_CMD[t.base], dst_td, self.spawn_value(val))
            )

    def alloc_ref(self, proc: ProcBuilder) -> str:
        tmp = proc.temp()
        proc.emit("set %s [ turbine::allocate ref ]" % tmp)
        return "$" + tmp

    def emit_subscript_into(self, expr: Subscript, dst_td: str, scope: Scope) -> None:
        arr = self.compile_expr(expr.array, scope)
        idx = self.compile_expr(expr.index, scope)
        ref = self.alloc_ref(scope.proc)
        idx_value = self.spawn_value(idx)
        if idx_value is not None:
            scope.proc.emit(
                "turbine::container_reference %s %s %s" % (arr.expr, idx_value, ref)
            )
        else:
            scope.proc.emit(
                "turbine::cref_when_ready %s %s %s" % (arr.expr, idx.expr, ref)
            )
        scope.proc.emit("turbine::deref_store %s %s" % (dst_td, ref))

    # -- operators ----------------------------------------------------------------

    def emit_operator(self, expr: Expr, out_td: str, scope: Scope) -> None:
        if isinstance(expr, UnOp):
            a = self.ensure_td(scope, self.compile_expr(expr.operand, scope))
            if expr.op == "!":
                kind = "not"
            elif expr.operand.type == FLOAT:
                kind = "neg_float"
            else:
                kind = "neg_integer"
            scope.proc.emit("turbine::unop %s %s %s" % (kind, out_td, a))
            return
        assert isinstance(expr, BinOp)
        lt, rt = expr.left.type, expr.right.type
        a = self.ensure_td(scope, self.compile_expr(expr.left, scope))
        b = self.ensure_td(scope, self.compile_expr(expr.right, scope))
        op = expr.op
        if op == "+" and lt == STRING:
            scope.proc.emit("turbine::strcat_rule %s %s %s" % (out_td, a, b))
            return
        if op in ("+", "-", "*", "/", "%", "**"):
            fam = "binop_float" if expr.type == FLOAT else "binop_integer"
            scope.proc.emit("turbine::%s {%s} %s %s %s" % (fam, op, out_td, a, b))
            return
        if op in ("==", "!=", "<", ">", "<=", ">="):
            if lt == STRING:
                str_op = {"==": "eq", "!=": "ne"}.get(op, op)
                scope.proc.emit(
                    "turbine::binop_compare {%s} %s %s %s" % (str_op, out_td, a, b)
                )
            else:
                scope.proc.emit(
                    "turbine::binop_logic {%s} %s %s %s" % (op, out_td, a, b)
                )
            return
        if op in ("&&", "||"):
            scope.proc.emit(
                "turbine::binop_logic {%s} %s %s %s" % (op, out_td, a, b)
            )
            return
        raise SwiftTypeError("codegen: unknown operator %r" % op)

    # -- calls ---------------------------------------------------------------------

    def emit_call(
        self,
        sig: FuncSig,
        out_tds: list[str],
        args: list[Expr],
        scope: Scope,
        priority: str | None = None,
        target: str | None = None,
    ) -> None:
        if sig.kind == "intrinsic":
            self.emit_intrinsic(sig, out_tds, args, scope)
            return
        arg_tds = [
            self.ensure_td(scope, self.compile_expr(a, scope)) for a in args
        ]
        call_args = [*out_tds, *arg_tds]
        if priority is not None or target is not None:
            if sig.kind == "composite":
                raise SwiftTypeError(
                    "@prio/@target apply to leaf tasks (extension/app "
                    "functions), not composite function %r" % sig.name
                )
            call_args.append(priority if priority is not None else "0")
            if target is not None:
                call_args.append(target)
        scope.proc.emit(
            "swift:f:%s %s" % (sig.name, " ".join(call_args))
        )

    def emit_intrinsic(
        self, sig: FuncSig, out_tds: list[str], args: list[Expr], scope: Scope
    ) -> None:
        name = sig.name
        proc = scope.proc

        def tds(exprs: list[Expr]) -> list[str]:
            return [self.ensure_td(scope, self.compile_expr(e, scope)) for e in exprs]

        if name == "printf":
            fmt = args[0]
            if not isinstance(fmt, Literal) or not isinstance(fmt.value, str):
                raise SwiftTypeError("printf format must be a string literal", fmt.line)
            fmt_text = fmt.value.replace("%i", "%d")
            if self.split and value_args(args[1:]):
                # compile_block waited for the arguments' futures
                words = [self.vword(a, scope) for a in args[1:]]
                proc.emit(
                    "turbine::log_output [ format %s ]"
                    % " ".join([format_element(fmt_text), *words])
                )
                return
            proc.emit(
                "turbine::printf_rule %s %s"
                % (format_element(fmt_text), " ".join(tds(args[1:])))
            )
            return
        if name == "trace":
            if self.split and value_args(args):
                words = [self.vword(a, scope) for a in args]
                proc.emit(
                    'turbine::log_output "trace: [ join [ list %s ] , ]"' % " ".join(words)
                    if words
                    else "turbine::log_output trace:"
                )
                return
            proc.emit("turbine::trace_rule %s" % " ".join(tds(args)))
            return
        if name == "assert":
            cond, msg = tds(args)
            proc.emit("turbine::assert_rule %s %s" % (cond, msg))
            return
        if name == "strcat":
            proc.emit(
                "turbine::strcat_rule %s %s" % (out_tds[0], " ".join(tds(args)))
            )
            return
        if name == "sprintf":
            fmt = args[0]
            if not isinstance(fmt, Literal) or not isinstance(fmt.value, str):
                raise SwiftTypeError("sprintf format must be a string literal", fmt.line)
            fmt_text = fmt.value.replace("%i", "%d")
            proc.emit(
                "turbine::sprintf_rule %s %s %s"
                % (out_tds[0], format_element(fmt_text), " ".join(tds(args[1:])))
            )
            return
        if name in ("substring", "find", "replace_all", "toupper", "tolower", "trim"):
            proc.emit(
                "turbine::strop_rule %s %s %s"
                % (name, out_tds[0], " ".join(tds(args)))
            )
            return
        if name == "split":
            proc.emit(
                "turbine::split_rule %s %s" % (out_tds[0], " ".join(tds(args)))
            )
            return
        if name == "join":
            proc.emit(
                "turbine::join_rule %s %s" % (out_tds[0], " ".join(tds(args)))
            )
            return
        if name in ("argv", "argv_int"):
            if len(args) not in (1, 2):
                raise SwiftTypeError(
                    "%s() takes a name and optional default" % name,
                    args[0].line if args else 0,
                )
            kind = "int" if name == "argv_int" else "string"
            proc.emit(
                "turbine::argv_rule %s %s %s"
                % (kind, out_tds[0], " ".join(tds(args)))
            )
            return
        if name in ("toint", "tofloat", "fromint", "fromfloat", "parseint", "strlen"):
            (a,) = tds(args)
            proc.emit("turbine::convert_rule %s %s %s" % (name, out_tds[0], a))
            return
        if name in ("sqrt", "exp", "log", "log10", "sin", "cos", "tan", "floor", "ceil"):
            (a,) = tds(args)
            proc.emit("turbine::mathfn_rule %s %s %s" % (name, out_tds[0], a))
            return
        if name == "size":
            (a,) = tds(args)
            proc.emit("turbine::container_size_rule %s %s" % (out_tds[0], a))
            return
        if name in (
            "sum_integer",
            "sum_float",
            "max_integer",
            "min_integer",
            "max_float",
            "min_float",
        ):
            (a,) = tds(args)
            proc.emit(
                "turbine::container_reduce_rule %s %s %s" % (name, out_tds[0], a)
            )
            return
        if name == "blob_from_string":
            (a,) = tds(args)
            proc.emit("turbine::blob_from_string_rule %s %s" % (out_tds[0], a))
            return
        if name == "string_from_blob":
            (a,) = tds(args)
            proc.emit("turbine::string_from_blob_rule %s %s" % (out_tds[0], a))
            return
        if name == "blob_size":
            (a,) = tds(args)
            proc.emit("turbine::blob_size_rule %s %s" % (out_tds[0], a))
            return
        raise SwiftTypeError("codegen: unimplemented intrinsic %r" % name)

    # -- function definitions --------------------------------------------------------

    def gen_composite(self, fn: FuncDef) -> None:
        params = ["o_" + p.name for p in fn.outputs] + [
            "i_" + p.name for p in fn.inputs
        ]
        proc = ProcBuilder("swift:f:" + fn.name, params)
        self.procs.append(proc)
        scope = Scope(self, proc)
        for p, pname in zip(fn.outputs + fn.inputs, params):
            scope.declare(p.name, Slot(p.name, p.swift_type, "td", expr="$" + pname))
        # rebalance output-array slots: caller gave 1 per output array
        for p, pname in zip(fn.outputs, params):
            if p.swift_type.is_array:
                w = writer_count(fn.body, p.name)
                self.rebalance(proc, "$" + pname, w - 1)
        self.compile_block(fn.body, Scope(self, proc, scope))

    def gen_extension(self, ext: ExtFuncDef) -> None:
        if ext.package:
            self.packages.add(ext.package)
        params = ["o_" + p.name for p in ext.outputs] + [
            "i_" + p.name for p in ext.inputs
        ]
        # dispatch proc: one WORK rule waiting on all inputs; the
        # trailing default parameter carries an optional @prio value
        proc = ProcBuilder("swift:f:" + ext.name, params + ["{prio 0}", "{target -1}"])
        self.procs.append(proc)
        in_tds = " ".join("$i_" + p.name for p in ext.inputs)
        all_args = " ".join("$" + p for p in params)
        task = "task:" + ext.name
        if ext.inputs:
            proc.emit(
                "turbine::rule [ list %s ] [ list %s %s ] WORK "
                "priority $prio target $target" % (in_tds, task, all_args)
            )
        else:
            proc.emit(
                "turbine::spawn WORK [ list %s %s ] $prio $target"
                % (task, all_args)
            )
        # leaf task proc: retrieve inputs, run the template, store outputs
        tproc = ProcBuilder(task, list(params))
        self.procs.append(tproc)
        for p in ext.inputs:
            if p.swift_type.is_array:
                # arrays pass as container ids; the template uses
                # turbine::container_* / enumerate on them directly
                tproc.emit("set %s_val $i_%s" % (p.name, p.name))
            else:
                tproc.emit(
                    "set %s_val [ turbine::retrieve $i_%s ]" % (p.name, p.name)
                )
        body = ext.template
        for p in ext.inputs:
            body = body.replace("<<%s>>" % p.name, "${%s_val}" % p.name)
        for p in ext.outputs:
            body = body.replace("<<%s>>" % p.name, "%s_val" % p.name)
        # Emit the template verbatim: leading whitespace may be
        # significant inside multi-line embedded-language fragments.
        tproc.lines.append(body)
        for p in ext.outputs:
            if p.swift_type == VOID:
                tproc.emit("turbine::store_void $o_%s" % p.name)
            else:
                tproc.emit(
                    "%s $o_%s $%s_val"
                    % (STORE_CMD[p.swift_type.base], p.name, p.name)
                )

    def gen_app(self, app: AppDef) -> None:
        self.packages.add("shell")
        params = ["o_" + p.name for p in app.outputs] + [
            "i_" + p.name for p in app.inputs
        ]
        proc = ProcBuilder("swift:f:" + app.name, params + ["{prio 0}", "{target -1}"])
        self.procs.append(proc)
        in_tds = " ".join("$i_" + p.name for p in app.inputs)
        all_args = " ".join("$" + p for p in params)
        task = "task:" + app.name
        if app.inputs:
            proc.emit(
                "turbine::rule [ list %s ] [ list %s %s ] WORK "
                "priority $prio target $target" % (in_tds, task, all_args)
            )
        else:
            proc.emit(
                "turbine::spawn WORK [ list %s %s ] $prio $target"
                % (task, all_args)
            )
        tproc = ProcBuilder(task, list(params))
        self.procs.append(tproc)
        tproc.emit("set argv [ list ]")
        for word in app.command:
            if isinstance(word, Literal):
                tproc.emit(
                    "lappend argv %s" % format_element(str(word.value))
                )
            elif isinstance(word, VarRef):
                tproc.emit("lappend argv [ turbine::retrieve $i_%s ]" % word.name)
            else:
                raise SwiftTypeError(
                    "app command words must be literals or parameters", word.line
                )
        if app.outputs and app.outputs[0].swift_type == STRING:
            tproc.emit("set out [ shell::exec {*}$argv ]")
            tproc.emit("turbine::store_string $o_%s $out" % app.outputs[0].name)
        else:
            tproc.emit("shell::exec {*}$argv")
            if app.outputs:
                tproc.emit("turbine::store_void $o_%s" % app.outputs[0].name)


def fold_binop(op: str, a: Any, b: Any, t: SwiftType) -> Any:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise SwiftTypeError("constant division by zero")
        if t == INT:
            return a // b
        return a / b
    if op == "%":
        if b == 0:
            raise SwiftTypeError("constant modulo by zero")
        if isinstance(a, int) and isinstance(b, int):
            return a % b
        return math.fmod(a, b)
    if op == "**":
        return a**b
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == ">":
        return a > b
    if op == "<=":
        return a <= b
    if op == ">=":
        return a >= b
    if op == "&&":
        return bool(a) and bool(b)
    if op == "||":
        return bool(a) or bool(b)
    raise SwiftTypeError("cannot fold operator %r" % op)
