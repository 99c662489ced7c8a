"""The Tcl interpreter core: frames, namespaces, dispatch, substitution.

Values follow the everything-is-a-string model: command arguments and
results are Python ``str``.  Opaque host objects (blobs, interpreter
handles, native pointers) are stored in an object registry and passed
through Tcl as handle strings, the same trick SWIG uses for pointers.

Two engines run the language.  By default scripts and proc bodies are
lowered to bytecode (:mod:`repro.tcl.compile`) and run on the VM
(:mod:`repro.tcl.vm`); ``Interp(compile_enabled=False)`` walks the
parsed commands directly instead, and is the reference oracle the VM
is differentially tested against.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import Any, Callable

from ..lru import LRUCache
from .bytecode import VMStats
from .errors import TclBreak, TclContinue, TclError, TclReturn
from .expr import to_string
from .listutil import format_list, parse_list
from .parser import Command, TclParseError, Word, parse_cached

CommandFn = Callable[["Interp", list[str]], Any]


@dataclass
class InterpCacheStats:
    """Per-interpreter compile-cache counters.

    Folded into the run's :class:`repro.obs.Metrics` registry as
    ``tcl.compile.*`` at the end of each engine/worker loop.
    """

    hits: int = 0  # VM code-cache hits (evals served already lowered)
    misses: int = 0  # scripts lowered (first sight or LRU-evicted)
    expr_hits: int = 0  # expr AST cache hits
    expr_misses: int = 0  # expr ASTs parsed


class Var:
    """A variable cell, shared between frames by upvar/global links."""

    __slots__ = ("value",)

    def __init__(self, value: str = ""):
        self.value = value


class Namespace:
    __slots__ = ("name", "vars")

    def __init__(self, name: str):
        self.name = name  # fully qualified, "" for global
        self.vars: dict[str, Var] = {}


class Frame:
    __slots__ = ("vars", "ns", "label", "version")

    def __init__(self, ns: Namespace, label: str = "<frame>"):
        self.vars: dict[str, Var] = {}
        self.ns = ns
        self.label = label
        # Bumped whenever a var *cell* is replaced or removed (unset,
        # upvar/global/variable links) so the VM's local-slot cell cache
        # can invalidate.  Plain creation never bumps: the VM caches
        # cells lazily and re-probes the dict on a miss.
        self.version = 0


class TclProc:
    """A user-defined procedure (``proc``)."""

    __slots__ = (
        "name", "params", "body", "ns", "_names", "_simple",
        "_vm_code", "_vm_code_interp",
    )

    def __init__(
        self,
        name: str,
        params: list[tuple[str, str | None]],
        body: str,
        ns: Namespace,
    ):
        self.name = name
        self.params = params  # (name, default|None); last may be "args"
        self.body = body
        self.ns = ns
        # Argument-binding fast path: plain positional params only.
        self._names = [p for p, _ in params]
        self._simple = all(d is None for _, d in params) and (
            not params or params[-1][0] != "args"
        )
        # Bytecode slot: the body lowered for one interp's VM; False
        # marks a body the compiler declined.  Procs are created
        # per-interp (each rank evals the prelude itself), but guard on
        # interp identity anyway.
        self._vm_code: Any = None
        self._vm_code_interp: "Interp" | None = None

    def bind(self, frame: Frame, args: list[str], cells: list | None = None) -> None:
        """Bind call arguments into ``frame`` (defaults, ``args``).

        ``cells``, when given, receives each parameter's cell at its
        slot index (the VM's local-slot vector).
        """
        params = self.params
        n_named = len(params)
        has_varargs = bool(params) and params[-1][0] == "args"
        if has_varargs:
            n_named -= 1
        if len(args) > n_named and not has_varargs:
            raise self._wrong_args()
        fv = frame.vars
        for i in range(n_named):
            pname, default = params[i]
            if i < len(args):
                cell = Var(args[i])
            elif default is not None:
                cell = Var(default)
            else:
                raise self._wrong_args()
            fv[pname] = cell
            if cells is not None:
                cells[i] = cell
        if has_varargs:
            cell = Var(format_list(args[n_named:]))
            fv["args"] = cell
            if cells is not None:
                cells[n_named] = cell

    def _wrong_args(self) -> TclError:
        return TclError(
            'wrong # args: should be "%s %s"'
            % (self.name, " ".join(p for p, _ in self.params))
        )

    def __call__(self, interp: "Interp", argv: list[str]) -> str:
        if interp.compile_enabled:
            code = interp._vm_proc_code(interp, self)
            if code is not None:
                return interp._vm_call_proc(interp, self, code, argv)
        # Interpreted walk, or a body the bytecode compiler declined
        # (unparseable, or parameter names the slot table cannot hold):
        # bind by name and evaluate the body in the new frame.
        frame = Frame(self.ns, label=self.name)
        if self._simple and len(argv) == len(self.params):
            fv = frame.vars
            for pname, val in zip(self._names, argv):
                fv[pname] = Var(val)
        else:
            self.bind(frame, argv)
        interp.frames.append(frame)
        saved_ns = interp.current_ns
        interp.current_ns = self.ns
        try:
            return interp.eval(self.body)
        except TclReturn as r:
            if r.code == 1:
                raise TclError(r.value) from None
            return r.value
        finally:
            interp.frames.pop()
            interp.current_ns = saved_ns


class Interp:
    """A Tcl interpreter instance.

    Each MPI rank in the runtime hosts one of these; rule bodies and
    worker task fragments are evaluated here.
    """

    # Interpreted walk: every Tcl evaluation level is a few Python
    # frames, so the recursion limit is raised to let this guard fire
    # first.
    MAX_DEPTH = 900
    # VM: Tcl proc calls stay inside one dispatch loop, so only nested
    # *evaluations* (eval/catch/uplevel, command-form loop bodies)
    # consume Python stack — a much lower eval-depth budget fits under
    # CPython's default recursion limit with no setrecursionlimit bump.
    VM_MAX_DEPTH = 128
    # VM frame-depth limit: Tcl proc recursion depth before the VM
    # raises a catchable TclError (replaces RecursionError entirely).
    FRAME_LIMIT = 4000

    def __init__(self, register_core: bool = True, compile_enabled: bool = True):
        # compile_enabled selects the engine: the bytecode VM (default)
        # or the interpreted walk over parsed commands, kept as the
        # reference oracle the VM is tested against.
        self.compile_enabled = compile_enabled
        if compile_enabled:
            self.MAX_DEPTH = self.VM_MAX_DEPTH
        else:
            sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))
        self.global_ns = Namespace("")
        self.namespaces: dict[str, Namespace] = {"": self.global_ns}
        self.commands: dict[str, CommandFn] = {}
        gframe = Frame(self.global_ns, label="<global>")
        gframe.vars = self.global_ns.vars  # global frame sees global ns vars
        self.frames: list[Frame] = [gframe]
        self.current_ns: Namespace = self.global_ns
        self._depth = 0
        # Opaque host-object registry (blobs, pointers, interpreters).
        self._objects: dict[str, Any] = {}
        self._obj_seq = itertools.count(1)
        # Provided / loadable packages: name -> (version, loader)
        self.package_loaders: dict[str, tuple[str, Callable[["Interp"], None]]] = {}
        self.packages_provided: dict[str, str] = {}
        # Output sink for puts (tests capture this).
        self.stdout: list[str] = []
        self.echo = True  # also print to real stdout
        # cmd_epoch is bumped by register/unregister (and therefore by
        # proc redefinition and rename); every VM inline cache is tagged
        # with the epoch it was resolved under and re-resolves when
        # they differ.
        self.cmd_epoch = 0
        self.cache_stats = InterpCacheStats()
        self.vm_stats = VMStats()
        if compile_enabled:
            from . import vm as _vm
            from .compile import lower_script

            self._vm_run_script = _vm.run_script
            self._vm_call_lit = _vm.call_lit
            self._vm_call_proc = _vm.call_proc
            self._vm_proc_code = _vm.proc_code
            self._vm_lower = lower_script
            self._vm_code_cache: LRUCache[str, Any] = LRUCache(2048)
        if register_core:
            from .commands import register_all

            register_all(self)

    # -- object registry --------------------------------------------------

    def wrap_object(self, obj: Any, prefix: str = "obj") -> str:
        handle = "_%s#%d" % (prefix, next(self._obj_seq))
        self._objects[handle] = obj
        return handle

    def unwrap(self, handle: str) -> Any:
        try:
            return self._objects[handle]
        except KeyError:
            raise TclError("invalid object handle %r" % handle) from None

    def has_object(self, handle: str) -> bool:
        return handle in self._objects

    def release_object(self, handle: str) -> None:
        self._objects.pop(handle, None)

    # -- variables ---------------------------------------------------------

    def _resolve_ns(self, qualified: str) -> tuple[Namespace, str]:
        """Split a qualified variable name into (namespace, tail)."""
        name = qualified.lstrip(":")
        if "::" in name:
            ns_name, tail = name.rsplit("::", 1)
            ns = self.namespaces.get(ns_name)
            if ns is None:
                raise TclError(
                    'namespace "%s" does not exist (variable "%s")'
                    % (ns_name, qualified)
                )
            return ns, tail
        return self.global_ns, name

    def _var_cell(self, name: str, create: bool) -> Var | None:
        if "::" in name:
            ns, tail = self._resolve_ns(name)
            cell = ns.vars.get(tail)
            if cell is None and create:
                cell = Var()
                ns.vars[tail] = cell
            return cell
        frame = self.frames[-1]
        cell = frame.vars.get(name)
        if cell is None and create:
            cell = Var()
            frame.vars[name] = cell
        return cell

    def get_var(self, name: str) -> str:
        cell = self._var_cell(name, create=False)
        if cell is None:
            raise TclError('can\'t read "%s": no such variable' % name)
        return cell.value

    def set_var(self, name: str, value: Any) -> str:
        sval = value if isinstance(value, str) else to_string(value)
        cell = self._var_cell(name, create=True)
        assert cell is not None
        cell.value = sval
        return sval

    def unset_var(self, name: str) -> None:
        if "::" in name:
            ns, tail = self._resolve_ns(name)
            if tail not in ns.vars:
                raise TclError('can\'t unset "%s": no such variable' % name)
            del ns.vars[tail]
            return
        frame = self.frames[-1]
        if name not in frame.vars:
            raise TclError('can\'t unset "%s": no such variable' % name)
        del frame.vars[name]
        frame.version += 1  # invalidate VM slot-cell caches

    def var_exists(self, name: str) -> bool:
        return self._var_cell(name, create=False) is not None

    def link_var(self, local_name: str, target_frame: Frame, target_name: str) -> None:
        """Implement upvar/global: alias local_name to a cell elsewhere."""
        cell = target_frame.vars.get(target_name)
        if cell is None:
            cell = Var()
            target_frame.vars[target_name] = cell
        frame = self.frames[-1]
        frame.vars[local_name] = cell
        frame.version += 1  # the local name now aliases a foreign cell

    def link_ns_var(self, local_name: str, ns: Namespace, target_name: str) -> None:
        cell = ns.vars.get(target_name)
        if cell is None:
            cell = Var()
            ns.vars[target_name] = cell
        frame = self.frames[-1]
        frame.vars[local_name] = cell
        frame.version += 1

    # -- namespaces ---------------------------------------------------------

    def namespace(self, name: str, create: bool = False) -> Namespace:
        key = name.lstrip(":")
        ns = self.namespaces.get(key)
        if ns is None:
            if not create:
                raise TclError('unknown namespace "%s"' % name)
            ns = Namespace(key)
            self.namespaces[key] = ns
        return ns

    # -- commands ------------------------------------------------------------

    def register(self, name: str, fn: CommandFn) -> None:
        self.commands[name.lstrip(":")] = fn
        self.cmd_epoch += 1  # invalidate compiled command-pointer caches

    def unregister(self, name: str) -> None:
        self.commands.pop(name.lstrip(":"), None)
        self.cmd_epoch += 1

    def qualify(self, name: str) -> str:
        """Fully qualify a command name relative to the current namespace."""
        if name.startswith("::"):
            return name.lstrip(":")
        if self.current_ns.name and not name.startswith("::"):
            cand = self.current_ns.name + "::" + name
            if cand in self.commands:
                return cand
        return name

    def lookup_command(self, name: str) -> CommandFn | None:
        return self.commands.get(self.qualify(name))

    # -- evaluation -----------------------------------------------------------

    def eval(self, script: str) -> str:
        """Evaluate a script; returns the result of its last command."""
        if self._depth >= self.MAX_DEPTH:
            raise TclError("too many nested evaluations (infinite loop?)")
        self._depth += 1
        try:
            if self.compile_enabled:
                code = self.vm_compiled(script)
                if type(code) is list:
                    # One literal command (the shape of every dataflow
                    # rule action): an OP_CALL_LIT cache entry
                    # dispatched with no Code object and no root frame.
                    return self._vm_call_lit(self, code)
                return self._vm_run_script(self, code)
            # Interpreted walk: substitute per word per call.
            try:
                cmds = parse_cached(script)
            except TclParseError as e:
                raise TclError(str(e)) from None
            result = ""
            for cmd in cmds:
                result = self._run_command(cmd)
            return result
        finally:
            self._depth -= 1

    def vm_compiled(self, script: str):
        """Fetch (or lower) the VM form of a script, LRU-cached.

        Hit/miss totals feed both the ``tcl.compile.*`` counters and the
        VM's own ``tcl.vm.code_*``.
        """
        code = self._vm_code_cache.get(script)
        if code is None:
            code = self._vm_lower(self, script)
            self._vm_code_cache.put(script, code)
            self.vm_stats.code_misses += 1
            self.cache_stats.misses += 1
        else:
            self.vm_stats.code_hits += 1
            self.cache_stats.hits += 1
        return code

    def _invoke(self, fn: CommandFn, args: list[str], argv: list[str], line: int) -> str:
        """Call a resolved command; errors gain the ``argv`` call site."""
        try:
            result = fn(self, args)
        except (TclReturn, TclBreak, TclContinue):
            raise
        except TclError as e:
            e.add_info('"%s" (line %d)' % (_abbrev(argv), line))
            raise
        except RecursionError:
            raise
        except Exception as e:  # host (Python) error surfaces as Tcl error
            err = TclError("%s: %s" % (type(e).__name__, e))
            err.add_info('"%s" (line %d)' % (_abbrev(argv), line))
            err.__cause__ = e
            raise err from e
        if result is None:
            return ""
        return result if isinstance(result, str) else to_string(result)

    def _subst_word(self, word: Word) -> str:
        if word.literal is not None:
            return word.literal
        parts: list[str] = []
        for kind, text in word.segments:
            if kind == "lit":
                parts.append(text)
            elif kind == "var":
                parts.append(self.get_var(text))
            else:  # cmd
                parts.append(self.eval(text))
        return "".join(parts)

    def _run_command(self, cmd: Command) -> str:
        argv: list[str] = []
        for word in cmd.words:
            val = self._subst_word(word)
            if word.expand:
                argv.extend(expand_list(val))
            else:
                argv.append(val)
        if not argv:
            return ""
        fn = self.lookup_command(argv[0])
        if fn is None:
            fn = self.commands.get("unknown")
            if fn is None:
                raise TclError('invalid command name "%s"' % argv[0])
            argv = ["unknown"] + argv
        return self._invoke(fn, argv[1:], argv, cmd.line)

    # -- host conveniences ------------------------------------------------------

    def call(self, name: str, *args: Any) -> str:
        """Call a Tcl command from Python with automatic stringification."""
        fn = self.lookup_command(name)
        if fn is None:
            raise TclError('invalid command name "%s"' % name)
        argv = [a if isinstance(a, str) else to_string(a) for a in args]
        result = fn(self, argv)
        if result is None:
            return ""
        return result if isinstance(result, str) else to_string(result)

    def puts(self, line: str) -> None:
        self.stdout.append(line)
        if self.echo:
            print(line)


def expand_list(value: str) -> list[str]:
    """Split a list value for ``{*}`` or ``foreach``; a malformed list
    is a TclError wherever it occurs, as it is inside any command."""
    try:
        return parse_list(value)
    except ValueError as e:
        raise TclError("%s: %s" % (type(e).__name__, e)) from e


def _abbrev(argv: list[str]) -> str:
    s = " ".join(argv)
    return s if len(s) <= 60 else s[:57] + "..."
