"""Count bookkeeping shared by ``run.py`` and ``probe.py``.

The metric names and units are read from ``BENCHMARK.json``; the
workload ``why`` strings there also say which end-to-end metric each
layer metric should move.
"""

from __future__ import annotations

#: checked workload runs in one ``--trace 1`` sample (``probe.layers``):
#: 2 untraced, 2 traced, 1 unpinned, 1 under the span recorder and the
#: serial baseline.  A sample process that dies fails all of them.
LAYER_RUNS = 7

#: Raw counts compared across the runs of one invocation (same inputs):
#: the keys of ``probe._stat_counts`` and these trace counters.  A count
#: listed in NONREPEATING for a workload depends on thread timing there
#: and may differ from run to run; only the others can back a count
#: claim.  Measured over 8 runs per workload: on fanout
#: every count repeated; on leaf_tasks a subscribe racing a close moves
#: one notification and one message now and then; on fixpoint the two
#: servers steal from each other, which moves every count that depends
#: on which server holds a task.
TRACED_COUNTS = (
    "mpi.sends",
    "mpi.bytes_sent",
    "tcl.compile.hits",
    "tcl.compile.misses",
    "tcl.vm.code_hits",
    "tcl.vm.code_misses",
    "tcl.vm.frames",
    "adlb.retrieve_cache.hits",
    "adlb.retrieve_cache.misses",
)
_TIMING = {
    "adlb.tasks_queued",
    "adlb.steal_requests",
    "adlb.tasks_stolen_in",
    "adlb.idle_polls",
    "adlb.max_queue",
}
NONREPEATING = {
    "fanout": _TIMING,
    "leaf_tasks": _TIMING | {"engine.notifications", "mpi.sends", "mpi.bytes_sent"},
    "fixpoint": _TIMING
    | {
        "engine.notifications",
        "adlb.data_ops",
        "mpi.sends",
        "mpi.bytes_sent",
        "tcl.compile.hits",
        "tcl.compile.misses",
        "tcl.vm.code_hits",
        "tcl.vm.code_misses",
        "adlb.retrieve_cache.hits",
        "adlb.retrieve_cache.misses",
    },
}
