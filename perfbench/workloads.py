"""The benchmark's workloads: inputs from a seed, the Swift program that
consumes them, an independent Python reference, and a serial Tcl baseline.

Each workload is a function of ``(seed, scale)``.  The Swift program sees
only the generated inputs (as ``argv`` values or generated literals),
never the seed.  ``scale="tiny"`` shrinks every workload for the
self-test without changing its shape.

Why these three (also recorded in ``BENCHMARK.json``):

* ``fanout`` -- a ``foreach`` of tiny integer iterations.  Every
  iteration is a CONTROL task on the engine, so messaging, ADLB data ops
  and rule work are almost all of the wall time; workers and the
  embedded interpreters sit idle.  This is where a message diet shows.
* ``leaf_tasks`` -- the paper's interlanguage pattern: each unit calls a
  Tcl extension function (a proc-call loop installed through ``setup=``
  and ``package provide``), one ``python()`` and one ``r()`` evaluation,
  then a dataflow reduction.  Worker busy time dominates and messages
  per unit are fixed, so it bypasses message-count changes and exercises
  the Tcl VM and the embedded interpreters.
* ``fixpoint`` -- min-label propagation to a fixpoint over a generated
  chain graph, on 2 engines and 2 servers: the only workload with the
  hierarchical control layout.  Fired rules create new rules each
  round, so closes, notifications and cross-server routing dominate.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass
class Instance:
    """One generated workload instance."""

    name: str
    source: str
    args: dict
    #: rank layout passed to SwiftRuntime
    engines: int
    servers: int
    workers: int
    #: divisor of every ``*_per_unit`` metric
    units: int
    #: the independent reference: expected stdout lines (any order)
    expected: list[str]
    #: units checked per run (>= 1); a wrong or missing line fails one
    attempted: int
    #: Tcl script for the serial single-Interp baseline; its result is
    #: the expected stdout lines joined by newlines
    serial_tcl: str
    #: SwiftRuntime ``setup=`` hook, or None
    setup: Callable | None = None
    #: Tcl evaluated in every rank's interpreter by ``setup`` (and first
    #: in the serial baseline)
    library: str = ""

    def check(self, lines: list[str]) -> int:
        """Number of failed units: expected lines missing plus lines
        that should not be there, capped at ``attempted``."""
        want, got = Counter(self.expected), Counter(lines)
        wrong = sum((want - got).values()) + sum((got - want).values())
        return min(self.attempted, wrong)


# ------------------------------------------------------------------ fanout

FANOUT_PROGRAM = """
int n = argv_int("n");
int m = argv_int("m");
int d = argv_int("d");
int k = argv_int("iters");
foreach i in [0:k - 1] {
    int a = i * n + m;
    if (a %% d == 0) { printf("hit %%i", i); }
}
""".replace("%%", "%")


def fanout(seed: int, scale: str = "full") -> Instance:
    rng = random.Random(seed)
    iters = 1000 if scale == "full" else 40
    d = 7
    # n coprime with d: exactly every d-th iteration hits, so the amount
    # of output (and work) is the same for every seed.
    n = rng.choice([v for v in range(11, 98) if v % d])
    m = rng.randrange(0, 200)
    expected = ["hit %d" % i for i in range(iters) if (i * n + m) % d == 0]
    serial = (
        "set out {}\n"
        "for {set i 0} {$i < %d} {incr i} {\n"
        "    set a [expr {$i * %d + %d}]\n"
        "    if {$a %% %d == 0} { lappend out \"hit $i\" }\n"
        "}\n"
        'join $out "\\n"\n' % (iters, n, m, d)
    )
    return Instance(
        name="fanout",
        source=FANOUT_PROGRAM,
        args={"n": n, "m": m, "d": d, "iters": iters},
        engines=1,
        servers=1,
        workers=2,
        units=iters,
        expected=expected,
        attempted=iters,
        serial_tcl=serial,
    )


# -------------------------------------------------------------- leaf_tasks

LEAF_LIBRARY = """
package provide leafk 1.0
namespace eval leafk {}
proc leafk::step {h j} { return [expr {($h * 31 + $j) % 1000003}] }
proc leafk::mix {x n} {
    set h $x
    for {set j 0} {$j < $n} {incr j} { set h [leafk::step $h $j] }
    return $h
}
"""

LEAF_PROGRAM = """
(int o) mix(int x, int n) "leafk" "1.0" [ "set <<o>> [ leafk::mix <<x>> <<n>> ]" ];

int units = argv_int("units");
int loop = argv_int("loop");
int a = argv_int("a");
int b = argv_int("b");
int res[];
foreach i in [0:units - 1] {
    int h = mix(i * a + b, loop);
    string p = python(strcat("v = ", fromint(h), " % 97"), "v");
    string q = r(strcat("w <- ", fromint(h), " %% 89"), "w");
    res[i] = h + parseint(p) + parseint(q);
    printf("u%i=%i,%s,%s", i, h, p, q);
}
printf("total=%i", sum_integer(res));
"""


def _leaf_setup(interp, ctx, client) -> None:
    interp.eval(LEAF_LIBRARY)


def _mix(x: int, n: int) -> int:
    h = x
    for j in range(n):
        h = (h * 31 + j) % 1000003
    return h


def leaf_tasks(seed: int, scale: str = "full") -> Instance:
    rng = random.Random(seed)
    units, loop = (48, 3000) if scale == "full" else (4, 50)
    a = rng.randrange(3, 1000)
    b = rng.randrange(0, 100000)
    expected, total = [], 0
    for i in range(units):
        h = _mix(i * a + b, loop)
        p, q = h % 97, h % 89
        expected.append("u%d=%d,%d,%d" % (i, h, p, q))
        total += h + p + q
    expected.append("total=%d" % total)
    serial = (
        "set out {}\n"
        "set total 0\n"
        "for {set i 0} {$i < %d} {incr i} {\n"
        "    set h [leafk::mix [expr {$i * %d + %d}] %d]\n"
        '    set p [python::eval "v = $h %% 97" v]\n'
        '    set q [r::eval "w <- $h %%%% 89" w]\n'
        '    lappend out "u$i=$h,$p,$q"\n'
        "    set total [expr {$total + $h + $p + $q}]\n"
        "}\n"
        'lappend out "total=$total"\n'
        'join $out "\\n"\n' % (units, a, b, loop)
    )
    return Instance(
        name="leaf_tasks",
        source=LEAF_PROGRAM,
        args={"units": units, "loop": loop, "a": a, "b": b},
        engines=1,
        servers=1,
        workers=2,
        units=units,
        expected=expected,
        attempted=units + 1,
        serial_tcl=serial,
        setup=_leaf_setup,
        library=LEAF_LIBRARY,
    )


# ---------------------------------------------------------------- fixpoint

# Min-label propagation as in examples/fixpoint_labels.py, with the
# chain's edges generated from the seed.  Each round's rules block on the
# previous round's TDs, so rules are created by fired rules round after
# round; the per-node report ships one embedded-Python leaf task per node.
FIXPOINT_PROGRAM = """
int edge[];
%(edges)s

(int o) min2(int a, int b) {
    int t[];
    t[0] = a;
    t[1] = b;
    o = min_integer(t);
}

(int o) relax(int self_label, int nbr_label, int e) {
    if (e == 1) {
        o = min2(self_label, nbr_label);
    } else {
        o = self_label;
    }
}

int lab[];
foreach i in [0:%(last)d] {
    lab[i] = i;
}
foreach r in [1:%(rounds)d] {
    int base = (r - 1) * %(n)d;
    foreach i in [0:%(last)d] {
        if (i == 0) {
            lab[r * %(n)d + i] = relax(lab[base + i], lab[base + i + 1], edge[i]);
        } else {
            if (i == %(last)d) {
                lab[r * %(n)d + i] = relax(lab[base + i], lab[base + i - 1], edge[i - 1]);
            } else {
                int m = relax(lab[base + i], lab[base + i - 1], edge[i - 1]);
                lab[r * %(n)d + i] = relax(m, lab[base + i + 1], edge[i]);
            }
        }
    }
}

int roots[];
foreach i in [0:%(last)d] {
    if (lab[%(final)d + i] == i) {
        roots[i] = 1;
    } else {
        roots[i] = 0;
    }
}
printf("components: %%i", sum_integer(roots));

foreach i in [0:%(last)d] {
    string desc = python(
        strcat("d = 'node ", fromint(i), " -> root ",
               fromint(lab[%(final)d + i]), "'"),
        "d");
    printf("%%s", desc);
}
"""


def _segments(rng: random.Random, nodes: int, comps: int, cap: int) -> list[int]:
    """Random component sizes: ``comps`` parts of 1..cap summing to nodes."""
    while True:
        cuts = sorted(rng.sample(range(1, nodes), comps - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [nodes])]
        if max(sizes) <= cap:
            return sizes


def _components(nodes: int, edges: list[int]) -> list[int]:
    """Least member of each node's component, by union-find."""
    parent = list(range(nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, e in enumerate(edges):
        if e:
            a, b = find(i), find(i + 1)
            parent[max(a, b)] = min(a, b)
    return [find(i) for i in range(nodes)]


def fixpoint(seed: int, scale: str = "full") -> Instance:
    rng = random.Random(seed)
    nodes, rounds, comps = (16, 6, 4) if scale == "full" else (6, 3, 2)
    # A component of s nodes (a path) converges in s - 1 rounds; capping
    # s at rounds + 1 makes the propagated labels the true components.
    sizes = _segments(rng, nodes, comps, rounds + 1)
    edges, pos = [], 0
    for s in sizes:
        edges += [1] * (s - 1)
        pos += s
        if pos < nodes:
            edges.append(0)
    roots = _components(nodes, edges)
    expected = ["components: %d" % len(set(roots))]
    expected += ["node %d -> root %d" % (i, r) for i, r in enumerate(roots)]
    source = FIXPOINT_PROGRAM % {
        "edges": "\n".join("edge[%d] = %d;" % (i, e) for i, e in enumerate(edges)),
        "n": nodes,
        "last": nodes - 1,
        "rounds": rounds,
        "final": rounds * nodes,
    }
    serial = (
        "set lab {}\n"
        "for {set i 0} {$i < %(n)d} {incr i} { lappend lab $i }\n"
        "set edge {%(edges)s}\n"
        "for {set r 0} {$r < %(rounds)d} {incr r} {\n"
        "    set new {}\n"
        "    for {set i 0} {$i < %(n)d} {incr i} {\n"
        "        set v [lindex $lab $i]\n"
        "        if {$i > 0 && [lindex $edge [expr {$i - 1}]] == 1} {\n"
        "            set v [expr {min($v, [lindex $lab [expr {$i - 1}]])}]\n"
        "        }\n"
        "        if {$i < %(last)d && [lindex $edge $i] == 1} {\n"
        "            set v [expr {min($v, [lindex $lab [expr {$i + 1}]])}]\n"
        "        }\n"
        "        lappend new $v\n"
        "    }\n"
        "    set lab $new\n"
        "}\n"
        "set roots 0\n"
        "set out {}\n"
        "for {set i 0} {$i < %(n)d} {incr i} {\n"
        "    set l [lindex $lab $i]\n"
        "    if {$l == $i} { incr roots }\n"
        "    lappend out [python::eval \"d = 'node $i -> root $l'\" d]\n"
        "}\n"
        'lappend out "components: $roots"\n'
        'join $out "\\n"\n'
    ) % {
        "n": nodes,
        "last": nodes - 1,
        "rounds": rounds,
        "edges": " ".join(map(str, edges)),
    }
    return Instance(
        name="fixpoint",
        source=source,
        args={},
        engines=2,
        servers=2,
        workers=2,
        units=nodes * rounds,
        expected=expected,
        attempted=len(expected),
        serial_tcl=serial,
    )


WORKLOADS: dict[str, Callable[..., Instance]] = {
    "fanout": fanout,
    "leaf_tasks": leaf_tasks,
    "fixpoint": fixpoint,
}
