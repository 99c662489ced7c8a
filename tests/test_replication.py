"""Server fault tolerance: replication, failover, checkpoint/restart.

Like :mod:`tests.test_faults`, every plan here is seeded from the
``FAULT_SEED`` environment variable (the CI matrix runs 0/1/2), so the
assertions must hold for *any* seed.  The CI job selects these tests
by class name (``-k ServerDeath``, ``-k "MessageFaults or ReplyCache
or Replay"``, ``-k Checkpoint``), so a failing step names the layer
that broke.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import DeadlineExceeded, FaultPlan, ServerLost, swift_run
from repro.adlb import constants as C
from repro.adlb.checkpoint import CheckpointError, read_checkpoint
from repro.adlb.layout import Layout, ServerMap
from repro.adlb.server import Server, _Lease
from repro.adlb.workqueue import Task
from repro.mpi.comm import World

SEED = int(os.environ.get("FAULT_SEED", "0"))

FANOUT = """
foreach i in [0:9] {
    string s = python(strcat("x=", fromint(i)), "x");
    trace(s);
}
"""
FANOUT_EXPECTED = sorted("trace: %d" % i for i in range(10))


def counters(res) -> dict:
    return res.trace.metrics["counters"]


# With workers=2, servers=2, engines=1 the world has size 5; servers
# occupy the top ranks [3, 4] and rank 3 is the master (termination
# counter + TD id blocks).
MASTER, OTHER = 3, 4


class TestServerDeath:
    def test_server_kill_recovery_replicate_on(self):
        # A non-master server dies mid-run; its buddy promotes the
        # replica shard and the run completes with the right answer.
        res = swift_run(
            FANOUT,
            workers=2,
            servers=2,
            trace=True,
            faults=FaultPlan(seed=SEED).kill_rank(OTHER, after_tasks=5),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.ok
        c = counters(res)
        assert c["fault.kills"] == 1
        assert c["adlb.repl.server_deaths"] == 1
        assert c["adlb.repl.promotions"] == 1
        # Only the survivor reports server stats.
        assert len(res.server_stats) == 1

    def test_master_kill_recovery_replicate_on(self):
        # The master dies: besides the shard, the heir must reconstruct
        # the termination counter and the TD id-block cursor, or the
        # run would never detect quiescence (or hand out stale ids).
        res = swift_run(
            FANOUT,
            workers=2,
            servers=2,
            trace=True,
            faults=FaultPlan(seed=SEED).kill_rank(MASTER, after_tasks=8),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.ok
        assert counters(res)["adlb.repl.promotions"] == 1

    def test_silent_server_kill_recovery_replicate_on(self):
        # A silent kill sends no dead-rank notification: the buddy must
        # notice the missing replication heartbeat on its own.
        res = swift_run(
            FANOUT,
            workers=2,
            servers=2,
            trace=True,
            lease_timeout=0.5,
            faults=FaultPlan(seed=SEED).kill_rank(
                OTHER, after_tasks=5, silent=True
            ),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        c = counters(res)
        assert c["adlb.repl.server_deaths"] == 1
        assert c["adlb.repl.promotions"] == 1

    def test_server_kill_replicate_off_raises_server_lost(self):
        # Replication explicitly off: the death is unrecoverable, and
        # it must surface as a prompt diagnostic naming the dead rank,
        # not as a hang or an opaque timeout.
        t0 = time.perf_counter()
        with pytest.raises(ServerLost, match="server rank %d lost" % OTHER):
            swift_run(
                FANOUT,
                workers=2,
                servers=2,
                replicate=False,
                faults=FaultPlan(seed=SEED).kill_rank(OTHER, after_tasks=5),
            )
        assert time.perf_counter() - t0 < 10.0

    def test_single_server_kill_replicate_off_raises_server_lost(self):
        # A lone server has no buddy, so replication cannot be on; its
        # death still produces the diagnostic rather than a hang.
        with pytest.raises(ServerLost, match="replication is disabled"):
            swift_run(
                FANOUT,
                workers=3,
                servers=1,
                faults=FaultPlan(seed=SEED).kill_rank(4, after_tasks=5),
            )

    def test_replicate_on_needs_two_servers(self):
        with pytest.raises(ValueError, match="n_servers >= 2"):
            swift_run(FANOUT, workers=3, servers=1, replicate=True)


class TestMessageFaults:
    """Satellite: the client<->server RPC path under drops and delays.

    The key invariant is *no duplicate work*: a re-sent request that
    already landed must hit the server's dedup slot, never enqueue a
    second copy of a task or double-apply a mutation — so every run
    executes exactly 10 leaf tasks and prints exactly 10 lines.
    """

    def test_request_drops_resend_replicate_off(self):
        # Single server (replication off); dropped client->server
        # requests are re-sent after the resend interval.
        res = swift_run(
            FANOUT,
            workers=2,
            servers=1,
            trace=True,
            faults=FaultPlan(seed=SEED).drop_messages(
                tag=C.TAG_REQUEST, times=3
            ),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.tasks_run == 10
        c = counters(res)
        assert c["fault.dropped_msgs"] == 3
        assert c["adlb.rpc.resends"] >= 3

    def test_response_drops_dedup_replicate_off(self):
        # Dropped server->client replies: the client re-sends, and the
        # server recognizes the duplicate sequence number and re-sends
        # the cached reply instead of reprocessing the operation.
        res = swift_run(
            FANOUT,
            workers=2,
            servers=1,
            trace=True,
            faults=FaultPlan(seed=SEED).drop_messages(
                tag=C.TAG_RESPONSE, times=3
            ),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.tasks_run == 10
        c = counters(res)
        assert c["adlb.rpc.resends"] >= 3
        assert c["adlb.repl.dedup_hits"] >= 1

    def test_request_drops_resend_replicate_on(self):
        # Same invariant with two replicating servers: re-sends and
        # replication must not double-queue work.
        res = swift_run(
            FANOUT,
            workers=2,
            servers=2,
            trace=True,
            faults=FaultPlan(seed=SEED).drop_messages(
                tag=C.TAG_REQUEST, times=3
            ),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.tasks_run == 10

    def test_probabilistic_delay_jitter_replicate_on(self):
        # Seeded random message delays reorder traffic without losing
        # it; the run must stay exactly-once from the outside.
        res = swift_run(
            FANOUT,
            workers=2,
            servers=2,
            trace=True,
            faults=FaultPlan(seed=SEED).delay_messages(
                probability=0.2, delay=0.002, times=None
            ),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.tasks_run == 10


class TestCheckpointRestart:
    def _program(self, tmp_path) -> str:
        # Each leaf task writes its own marker file, so completion is
        # observable across two separate runs (stdout dies with run 1).
        return (
            "foreach i in [0:9] {\n"
            '    string code = strcat("import time; time.sleep(0.12); '
            "open('%s/out_\", fromint(i), \"','w').write('\", fromint(i), "
            '"\'); x=", fromint(i));\n'
            '    string s = python(code, "x");\n'
            "    trace(s);\n"
            "}\n"
        ) % tmp_path

    def test_restore_resumes_killed_world(self, tmp_path):
        ckpt = str(tmp_path / "run.ckpt")
        program = self._program(tmp_path)
        with pytest.raises(DeadlineExceeded):
            swift_run(
                program,
                workers=1,
                servers=1,
                checkpoint_path=ckpt,
                checkpoint_interval=0.05,
                deadline=0.7,
            )
        assert os.path.exists(ckpt)
        done_before = {
            f for f in os.listdir(tmp_path) if f.startswith("out_")
        }
        assert len(done_before) < 10  # the run really was cut short
        res = swift_run(program, workers=1, servers=1, restore=ckpt)
        assert res.ok
        for i in range(10):
            path = tmp_path / ("out_%d" % i)
            assert path.read_text() == str(i)

    def test_restore_checkpoint_validated(self, tmp_path):
        ckpt = str(tmp_path / "run.ckpt")
        program = self._program(tmp_path)
        with pytest.raises(DeadlineExceeded):
            swift_run(
                program,
                workers=1,
                servers=1,
                checkpoint_path=ckpt,
                checkpoint_interval=0.05,
                deadline=0.7,
            )
        image = read_checkpoint(ckpt)
        assert image["version"] == 1
        # Restoring into a different world shape is refused up front.
        with pytest.raises(CheckpointError, match="identically-shaped"):
            swift_run(program, workers=3, servers=1, restore=ckpt)

    def test_restore_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            swift_run(
                FANOUT,
                workers=2,
                servers=1,
                restore=str(tmp_path / "nope.ckpt"),
            )


class TestHangDiagnostics:
    def test_server_diagnostic_reports_leases_and_repl_lag(self):
        # Satellite: recv-timeout hang reports must include the owning
        # server's lease table and replication lag, not just queue
        # depths.  Exercise the registered diagnostic directly.
        layout = Layout(size=5, n_servers=2, n_engines=1)
        world = World(5, recv_timeout=None)
        server = Server(
            world.comm(MASTER),
            layout,
            leases=True,
            server_map=ServerMap(layout),
            replicate=True,
        )
        server._leases[1] = _Lease(
            task=Task(payload="leaf-task-payload", type=C.WORK),
            client=1,
            deadline=time.monotonic() + 30.0,
        )
        server._repl_seq, server._repl_acked = 7, 4
        line = server._diagnostic()
        assert "leaf-task-payload" in line
        assert "repl lag=3" in line
        assert "buddy=%d" % OTHER in line
        # The diagnostic is registered with the comm layer, so hang
        # reports (DeadlockError) pick it up automatically.
        assert world.diagnostics[MASTER]() == line


# ---------------------------------------------------------------------------
# Deterministic server-level checks: one Server driven through _dispatch on
# a World with no rank threads; replies are read off the peers' mailboxes.

ENGINE, WORKER, WORKER2 = 0, 1, 2


def make_servers(*ranks: int) -> tuple[World, dict[int, Server]]:
    layout = Layout(size=5, n_servers=2, n_engines=1)
    world = World(5, recv_timeout=None)
    smap = ServerMap(layout)
    servers = {
        r: Server(
            world.comm(r), layout, server_map=smap, replicate=True, reliable=True
        )
        for r in ranks
    }
    return world, servers


def take(world: World, rank: int) -> list[tuple[int, object]]:
    """Pop every message queued for ``rank`` as (tag, payload) pairs."""
    mailbox = world.mailboxes[rank]
    msgs, mailbox.messages = mailbox.messages, []
    return [(tag, payload) for _, tag, payload, _ in msgs]


def request(server: Server, source: int, seq: int, op: str, **fields) -> None:
    server._dispatch(dict(fields, op=op, seq=seq), source, C.TAG_REQUEST)


class TestReplyCache:
    """The reliable-RPC reply cache, keyed by (client, channel)."""

    def test_new_seq_is_processed(self):
        world, s = make_servers(MASTER)
        srv = s[MASTER]
        request(srv, WORKER, 1, C.OP_CREATE, id=7, type=C.T_INTEGER)
        assert take(world, WORKER) == [(C.TAG_RESPONSE, ("ok", 7, 1))]
        assert 7 in srv.store.tds
        request(srv, WORKER, 2, C.OP_CREATE, id=8, type=C.T_INTEGER)
        assert take(world, WORKER) == [(C.TAG_RESPONSE, ("ok", 8, 2))]
        assert srv.repl_stats.dedup_hits == 0

    def test_lower_seq_is_dropped(self):
        world, s = make_servers(MASTER)
        srv = s[MASTER]
        request(srv, WORKER, 1, C.OP_INCR_WORK, amount=1)
        request(srv, WORKER, 2, C.OP_INCR_WORK, amount=1)
        take(world, WORKER)
        request(srv, WORKER, 1, C.OP_INCR_WORK, amount=1)
        assert take(world, WORKER) == []
        assert srv.work_count == 2
        assert srv.repl_stats.dedup_hits == 0

    def test_equal_seq_resends_cached_reply(self):
        # ID_BLOCK is not idempotent: re-running it would hand out a
        # second block, so an identical reply proves the cache answered.
        world, s = make_servers(MASTER)
        srv = s[MASTER]
        request(srv, WORKER, 4, C.OP_ID_BLOCK)
        first = take(world, WORKER)
        cursor = srv._next_id
        request(srv, WORKER, 4, C.OP_ID_BLOCK)
        assert take(world, WORKER) == first
        assert srv._next_id == cursor
        assert srv.repl_stats.dedup_hits == 1

    def test_equal_seq_on_parked_get_reparks(self):
        world, s = make_servers(MASTER)
        srv = s[MASTER]
        request(srv, WORKER, 3, C.OP_GET, types=[C.WORK])
        request(srv, WORKER, 3, C.OP_GET, types=[C.WORK])
        assert [p.rank for p in srv.parked] == [WORKER]
        assert srv.parked[0].seq == 3 and not srv.parked[0].is_async
        assert srv.repl_stats.dedup_hits == 1
        assert take(world, WORKER) == []
        # The one parked request is served once work arrives.
        request(srv, ENGINE, 1, C.OP_PUT, type=C.WORK, payload="leaf")
        assert take(world, WORKER) == [
            (C.TAG_RESPONSE, ("task", C.WORK, "leaf", 3))
        ]

    def test_async_duplicate_reacks_and_resends_grant(self):
        world, s = make_servers(MASTER)
        srv = s[MASTER]
        request(srv, WORKER, 1, C.OP_PUT, type=C.CONTROL, payload="ctl")
        request(srv, ENGINE, 5, C.OP_GET_ASYNC, types=[C.CONTROL])
        grant = (C.TAG_ASYNC, ("ctask", C.CONTROL, "ctl", 5))
        ack = (C.TAG_RESPONSE, ("parked", 5))
        assert take(world, ENGINE) == [ack, grant]
        request(srv, ENGINE, 5, C.OP_GET_ASYNC, types=[C.CONTROL])
        assert take(world, ENGINE) == [ack, grant]
        assert srv.repl_stats.dedup_hits == 1
        assert srv.queue.size == 0 and srv.parked == []

    def test_parked_engine_sync_rpc_keeps_async_entry(self):
        world, s = make_servers(MASTER)
        srv = s[MASTER]
        request(srv, ENGINE, 5, C.OP_GET_ASYNC, types=[C.CONTROL])
        request(srv, ENGINE, 6, C.OP_CREATE, id=9, type=C.T_INTEGER)
        request(srv, WORKER, 1, C.OP_PUT, type=C.CONTROL, payload="ctl")
        grant = (C.TAG_ASYNC, ("ctask", C.CONTROL, "ctl", 5))
        assert take(world, ENGINE) == [
            (C.TAG_RESPONSE, ("parked", 5)),
            (C.TAG_RESPONSE, ("ok", 9, 6)),
            grant,
        ]
        # The seq-6 RPC reply must not supersede the seq-5 park: its
        # re-send still gets the grant back.
        request(srv, ENGINE, 5, C.OP_GET_ASYNC, types=[C.CONTROL])
        assert take(world, ENGINE) == [(C.TAG_RESPONSE, ("parked", 5)), grant]
        request(srv, ENGINE, 6, C.OP_CREATE, id=9, type=C.T_INTEGER)
        assert take(world, ENGINE) == [(C.TAG_RESPONSE, ("ok", 9, 6))]

    def test_promote_keeps_newer_seq_per_client_and_channel(self):
        world, s = make_servers(MASTER, OTHER)
        heir, ward = s[MASTER], s[OTHER]
        # WORKER: the heir saw a newer rpc seq (11) than the ward (10).
        request(ward, WORKER, 10, C.OP_CREATE, id=10, type=C.T_INTEGER)
        request(heir, WORKER, 11, C.OP_CREATE, id=11, type=C.T_INTEGER)
        # WORKER2: the ward saw the newer one (20 over 19).
        request(heir, WORKER2, 19, C.OP_CREATE, id=19, type=C.T_INTEGER)
        request(ward, WORKER2, 20, C.OP_CREATE, id=20, type=C.T_INTEGER)
        # WORKER's get channel: a grant from the ward (seq 12).
        request(ward, ENGINE, 1, C.OP_PUT, type=C.WORK, payload="leaf")
        request(ward, WORKER, 12, C.OP_GET, types=[C.WORK])
        take(world, WORKER)
        take(world, WORKER2)
        for tag, payload in take(world, MASTER):  # ward's op-log batches
            if tag == C.TAG_SERVER:
                heir._dispatch(payload, OTHER, tag)
        heir._server_dead(OTHER)
        assert heir.repl_stats.promotions == 1
        request(heir, WORKER, 10, C.OP_CREATE, id=10, type=C.T_INTEGER)
        request(heir, WORKER2, 19, C.OP_CREATE, id=19, type=C.T_INTEGER)
        assert take(world, WORKER) == [] and take(world, WORKER2) == []
        request(heir, WORKER, 11, C.OP_CREATE, id=11, type=C.T_INTEGER)
        request(heir, WORKER2, 20, C.OP_CREATE, id=20, type=C.T_INTEGER)
        request(heir, WORKER, 12, C.OP_GET, types=[C.WORK])
        assert take(world, WORKER) == [
            (C.TAG_RESPONSE, ("ok", 11, 11)),
            (C.TAG_RESPONSE, ("task", C.WORK, "leaf", 12)),
        ]
        assert take(world, WORKER2) == [(C.TAG_RESPONSE, ("ok", 20, 20))]


def _own_id(rank: int, start: int) -> int:
    """The first TD id >= ``start`` whose home is server ``rank``."""
    layout = Layout(size=5, n_servers=2, n_engines=1)
    return next(i for i in range(start, start + 4) if layout.home_server(i) == rank)


A, B, REF = _own_id(MASTER, 10), _own_id(MASTER, 20), _own_id(MASTER, 30)
INT, CONT = C.T_INTEGER, C.T_CONTAINER


def _create(id: int, type: str = INT, **kw) -> dict:
    return dict(kw, op=C.OP_CREATE, id=id, type=type)


def _store(id: int, value, **kw) -> dict:
    return dict(kw, op=C.OP_STORE, id=id, value=value)


def _refcount(id: int, read=0, write=0) -> dict:
    return {"op": C.OP_REFCOUNT, "id": id, "read_delta": read, "write_delta": write}


def _batch(*items: tuple) -> dict:
    return {
        "op": C.OP_REFCOUNT_BATCH,
        "ops": [{"id": i, "read_delta": r, "write_delta": w} for i, r, w in items],
    }


#: case id -> (setup requests, request under test); every mutating op,
#: both logging branches of subscribe and container-ref, and ops that
#: fail part-way after changing the owner's store.
REPLAY_CASES = {
    "create": ([], _create(A, write_refcount=2, read_refcount=3)),
    "multicreate": (
        [],
        {"op": C.OP_MULTICREATE, "specs": [_create(A), _create(B, CONT)]},
    ),
    "store": ([_create(A)], _store(A, 42)),
    "store_member_fires_ref": (
        [
            _create(A, CONT),
            _create(REF),
            {"op": C.OP_CONTAINER_REF, "id": A, "subscript": "k", "ref_id": REF},
        ],
        _store(A, "v", subscript="k", decr_write=0),
    ),
    "subscribe_open": (
        [_create(A)],
        {"op": C.OP_SUBSCRIBE, "id": A, "rank": ENGINE},
    ),
    "subscribe_closed": (
        [_create(A), _store(A, 1)],
        {"op": C.OP_SUBSCRIBE, "id": A, "rank": ENGINE},
    ),
    "container_ref_pending": (
        [_create(A, CONT), _create(REF)],
        {"op": C.OP_CONTAINER_REF, "id": A, "subscript": "k", "ref_id": REF},
    ),
    "container_ref_existing": (
        [_create(A, CONT), _create(REF), _store(A, 5, subscript="k", decr_write=0)],
        {"op": C.OP_CONTAINER_REF, "id": A, "subscript": "k", "ref_id": REF},
    ),
    "refcount": ([_create(A, read_refcount=2)], _refcount(A, read=-1, write=-1)),
    "refcount_batch": (
        [_create(A), _create(B, read_refcount=1)],
        _batch((A, 0, -1), (B, -1, 0)),
    ),
    "partial_refcount_batch": (
        [_create(A), _create(B, write_refcount=3)],
        _batch((A, 0, -1), (B, 0, -1), (REF, 0, -1)),
    ),
    "partial_multicreate": (
        [],
        {"op": C.OP_MULTICREATE, "specs": [_create(A), _create(B, "no-such-type")]},
    ),
    "partial_store": ([_create(A)], _store(A, 7, decr_write=2)),
    "partial_refcount": ([_create(A, write_refcount=2)], _refcount(A, write=-3)),
}


class TestReplayEquivalence:
    """A buddy replaying a server's op-log holds the same store."""

    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    def test_replayed_store_matches_owner(self, case):
        from repro.adlb.server import Replica

        setup, op = REPLAY_CASES[case]
        world, s = make_servers(MASTER)
        srv = s[MASTER]
        for seq, msg in enumerate(setup + [op], start=1):
            srv._dispatch(dict(msg, seq=seq), ENGINE, C.TAG_REQUEST)
        replies = take(world, ENGINE)
        failed = case.startswith("partial_")
        assert (replies[-1][1][0] == "error") == failed, replies
        rep = Replica()
        for tag, payload in take(world, OTHER):
            assert tag == C.TAG_SERVER and payload["op"] == C.SOP_REPLICATE
            for entry in payload["entries"]:
                rep.apply(entry)
        assert rep.store.snapshot() == srv.store.snapshot()
