"""Isolated unit costs of single layers, and the serial baseline.

Each function returns a per-operation cost in microseconds, measured on
a fixed small input that does not depend on the workload or seed.
"""

from __future__ import annotations

import threading
from time import perf_counter

PINGPONG_ROUNDS = 2000
STORE_RETRIEVE_OPS = 1000
RULE_CHAIN = 1000
PROC_CALLS = 20000


def pingpong_us() -> float:
    """One message of a 2-rank ``run_world`` ping-pong."""
    from repro.mpi import run_world

    elapsed = {}

    def main(comm):
        if comm.rank == 0:
            t0 = perf_counter()
            for i in range(PINGPONG_ROUNDS):
                comm.send(i, 1, 1)
                comm.recv(1, 2)
            elapsed["s"] = perf_counter() - t0
        else:
            for _ in range(PINGPONG_ROUNDS):
                obj, _ = comm.recv(0, 1)
                comm.send(obj, 0, 2)

    run_world(2, main)
    return elapsed["s"] / (2 * PINGPONG_ROUNDS) * 1e6


def store_retrieve_us() -> float:
    """One store plus one retrieve of a fresh integer TD, through an
    ``AdlbClient`` to a ``Server`` (1 engine, 1 worker, 1 server)."""
    from repro.adlb import AdlbClient, Layout, Server
    from repro.adlb.constants import CONTROL, WORK
    from repro.mpi import run_world

    layout = Layout(3, 1, 1)
    elapsed = {}
    lock = threading.Lock()

    def engine(client):
        client.incr_work()
        tds = [client.create("integer") for _ in range(STORE_RETRIEVE_OPS)]
        t0 = perf_counter()
        for i, td in enumerate(tds):
            client.store(td, i)
            if client.retrieve(td) != i:
                raise AssertionError("retrieve returned the wrong value")
        with lock:
            elapsed["s"] = perf_counter() - t0
        client.decr_work()
        client.park_async((CONTROL,))
        while client.recv_async()[0] != "shutdown":
            pass

    def main(comm):
        if layout.is_server(comm.rank):
            Server(comm, layout).run()
            return
        client = AdlbClient(comm, layout)
        if layout.is_engine(comm.rank):
            engine(client)
        else:
            while client.get((WORK,)) is not None:
                client.decr_work()

    run_world(3, main)
    return elapsed["s"] / STORE_RETRIEVE_OPS * 1e6


RULE_CHAIN_TCL = """
proc step { a n } {
    set v [ turbine::retrieve $a ]
    if { $v >= $n } {
        turbine::log_output "chain=$v"
        return
    }
    set b [ turbine::allocate integer ]
    turbine::rule [ list $b ] [ list step $b $n ] LOCAL
    turbine::store_integer $b [ expr { $v + 1 } ]
}
proc swift:main {} {
    set a [ turbine::allocate integer ]
    turbine::rule [ list $a ] [ list step $a %d ] LOCAL
    turbine::store_integer $a 0
}
"""


def rule_fire_us() -> float:
    """One link of a ``run_turbine_program`` rule chain: allocate a TD,
    create a rule on it, store it, fire the rule and retrieve the value.
    The cost of a 1-link chain (launch and teardown) is subtracted."""
    from repro.turbine import RuntimeConfig, run_turbine_program

    def run(n: int) -> float:
        t0 = perf_counter()
        res = run_turbine_program(RULE_CHAIN_TCL % n, RuntimeConfig.of(workers=2))
        dt = perf_counter() - t0
        if res.stdout_lines != ["chain=%d" % n]:
            raise AssertionError("rule chain printed %r" % res.stdout_lines)
        return dt

    return (run(RULE_CHAIN) - run(1)) / (RULE_CHAIN - 1) * 1e6


PROC_TCL = """
proc leaf { a b } { return [ expr { $a + $b } ] }
proc drive { n } {
    set t 0
    for { set i 0 } { $i < $n } { incr i } { set t [ leaf $t $i ] }
    return $t
}
"""


def proc_call_us() -> float:
    """One proc call (inside a compiled loop) on the VM ``Interp``."""
    from repro.tcl.interp import Interp

    interp = Interp()
    interp.echo = False
    interp.eval(PROC_TCL)
    interp.eval("drive 100")  # compile the proc bodies
    t0 = perf_counter()
    got = interp.eval("drive %d" % PROC_CALLS)
    dt = perf_counter() - t0
    if int(got) != PROC_CALLS * (PROC_CALLS - 1) // 2:
        raise AssertionError("drive returned %r" % got)
    return dt / PROC_CALLS * 1e6


def serial_baseline(inst) -> tuple[float, int]:
    """The workload's leaf work run serially in one VM ``Interp`` with
    embedded Python and R and no runtime: (seconds, failed units)."""
    from repro.interlang.tclcmds import register_python, register_r
    from repro.tcl.interp import Interp

    t0 = perf_counter()
    interp = Interp()
    interp.echo = False
    register_python(interp)
    register_r(interp)
    if inst.library:
        interp.eval(inst.library)
    lines = interp.eval(inst.serial_tcl).split("\n")
    dt = perf_counter() - t0
    return dt, inst.check(lines)


MICRO = {
    "mpi.pingpong_us": pingpong_us,
    "adlb.store_retrieve_us": store_retrieve_us,
    "turbine.rule_fire_us": rule_fire_us,
    "tcl.proc_call_us": proc_call_us,
}
