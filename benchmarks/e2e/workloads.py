"""The four workloads: what is sent, in which order, and what must come back.

A :class:`Workload` fixes the database family and sizes; :func:`build_plan`
turns ``(workload, seed)`` into a :class:`Plan` -- the warm-up requests,
the timed requests and the closing write tail of the one connection --
with the expected answer of every read already computed against the
harness's own :class:`Mirror` of the database.  Every pass of a run
replays the same plan against a fresh server.

Sizes are calibrated so that one pass measures about ``pass_seconds``
on the 2-core reference box; the run's ``--seconds`` budget buys
``round(seconds / pass_seconds)`` passes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

import numpy

from repro.algorithms.localjoin import evaluate_query_table
from repro.core.query import parse_query
from server import build_database

#: bench_serving.py's ten statement shapes (several are isomorphic
#: renamings of earlier ones: the plan cache must serve them).
CACHED_SHAPES = (
    "S1(x,y), S2(y,z)",
    "S2(a,b), S1(b,c)",
    "S2(x,y), S3(y,z)",
    "S1(x,y), S2(y,z), S3(z,x)",
    "S3(u,v), S1(v,w), S2(w,u)",
    "S1(x,y)",
    "S3(x,y), S1(y,z)",
    "S1(b,c), S2(c,d)",
    "S1(x,y), S3(y,x)",
    "S2(s,t), S3(t,u), S1(u,s)",
)
#: The five of them that return n rows of three columns (30 KB).  A
#: block of ``cached_mix`` reads each of these twice and the others (one
#: 21 KB reply, four of a few bytes) once: two thirds of the reads are
#: in the large class, so the median lies inside it.  With every shape
#: read equally often the median sat on the edge between two classes.
CACHED_PATHS = tuple(CACHED_SHAPES[i] for i in (0, 1, 2, 6, 7))

#: bench_ivm.py's nine pairwise non-isomorphic shapes (isomorphic
#: repeats would be result hits, not merges).
IVM_SHAPES = (
    "S1(x,y)",
    "S1(x,y), S2(y,z)",
    "S1(x,y), S2(x,z)",
    "S1(x,y), S3(y,x)",
    "S1(x,y), S2(x,y)",
    "S1(x,y), S2(y,z), S3(z,x)",
    "S1(x,y), S2(y,z), S3(z,w)",
    "S1(x,y), S2(y,z), S3(y,w)",
    "S1(x,y), S2(x,z), S3(x,w)",
)


def chain(first: int, length: int) -> str:
    """The path query over ``S<first> .. S<first+length-1>``."""
    variables = "abcdefghi"
    return ", ".join(
        f"S{first + i}({variables[i]},{variables[i + 1]})"
        for i in range(length)
    )


#: Two one-round HyperCube windows and a cyclic query over the same
#: relations (2 answers on a matching database: the sparse side of the
#: local-join density threshold), five multi-round windows, the full
#: chain.  The three latency classes hold 3, 5 and 1 statements so
#: that the median and the p75 both fall inside the middle class: with
#: more fast statements than slow ones the median would sit on the
#: edge between two classes and jump from run to run.
COLD_SHAPES = (
    chain(1, 2), chain(7, 2),
    "S1(x,y), S2(y,z), S3(z,x)",
    chain(1, 4), chain(2, 4), chain(3, 4), chain(4, 4), chain(5, 4),
    chain(1, 8),
)
STREAMED_SHAPES = (
    chain(1, 4), chain(2, 4), chain(3, 4), chain(4, 4), chain(5, 4),
    chain(1, 8),
)

#: Every pass closes with single-row writes to this many relations, so
#: write latency is defined on every workload: one insert of an absent
#: row each, then two deletes each (that row and a stored one).  Inserts
#: cost up to twice a delete and differ by relation; with two thirds of
#: the writes deletes, the median lies inside their class.
TAIL_RELATIONS = 3


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one database."""

    name: str
    why: str
    vocabulary: str
    n: int
    p: int
    #: the statements read, before any seeded reordering
    shapes: tuple[str, ...]
    #: cached_mix: blocks of fifteen reads;
    #: update_read: write+reads rounds; unused elsewhere.
    repeats: int
    pass_seconds: float
    chunk_rows: int | None = None
    #: rows per ``batch`` line; None = replies are not streamed.
    stream_batch: int | None = None


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="cached_mix",
            why=(
                "C3 n=2000 p=16, 10 warmed shapes read in blocks of 15 on 1 "
                "connection: every read is a plan+result hit of up to 30 KB, "
                "so rpc, cache and api do the work and the engine none"
            ),
            vocabulary="C3", n=2000, p=16, shapes=CACHED_SHAPES,
            repeats=130, pass_seconds=2.0,
        ),
        Workload(
            name="cold_exec",
            why=(
                "L8 n=20000 p=64, fresh server per pass, 9 first-time "
                "statements (2 L2 + cyclic, 5 L4, L8): profile, bids, "
                "compile, rounds, IVM capture, 0.5-2 MB encode"
            ),
            vocabulary="L8", n=20000, p=64, shapes=COLD_SHAPES,
            repeats=1, pass_seconds=2.0,
        ),
        Workload(
            name="update_read",
            why=(
                "C3 n=8000 p=16, 9 warmed shapes, rounds of 1 single-row "
                "write + 9 reads on 1 connection: each version bump makes "
                "planner and IVM merge carry the reads"
            ),
            vocabulary="C3", n=8000, p=16, shapes=IVM_SHAPES,
            repeats=12, pass_seconds=2.0,
        ),
        Workload(
            name="streamed_chain",
            why=(
                "L8 n=48000 p=64 chunk_rows=8192, fresh server per pass, "
                "L8 + five L4 windows streamed in 4096-row batches: block "
                "routing and batch writes; the memory workload"
            ),
            vocabulary="L8", n=48000, p=64, shapes=STREAMED_SHAPES,
            repeats=1, pass_seconds=2.67,
            chunk_rows=8192, stream_batch=4096,
        ),
    )
}


@dataclass(frozen=True)
class Expected:
    """What a correct reply to a read carries."""

    count: int
    #: sha1 of the sorted answer table as row-major int64 bytes.
    digest: str
    #: the ``"answers":[[..],..]`` bytes of a reply that inlines them as
    #: the RPC layer writes JSON; a reply that holds them needs no
    #: parsing of its answers (a reply that does not is parsed and
    #: compared by digest, so another layout is slower, not wrong).
    inlined: bytes


@dataclass
class Request:
    """One line to send and what the reply must say."""

    op: str
    #: the ``id`` the request carries and the reply must echo
    id: int
    line: bytes
    #: in the timed phase (False for warm-up)
    timed: bool
    #: database version the reply must report
    version: int | None = None
    #: canonical statement text (reads only): the trace matching key
    text: str | None = None
    expected: Expected | None = None
    stream_batch: int | None = None


@dataclass
class Plan:
    """Everything one pass sends."""

    warmup: list[Request] = field(default_factory=list)
    timed: list[Request] = field(default_factory=list)
    tail: list[Request] = field(default_factory=list)


def table_digest(table) -> str:
    """Digest of an answer table (any int sequence of rows)."""
    array = numpy.ascontiguousarray(table, dtype=numpy.int64)
    return hashlib.sha1(array.tobytes()).hexdigest()


class Mirror:
    """The harness's own copy of the database, and its oracle.

    Starts from the same generated relations the server builds, applies
    the same single-row deltas with its own code, and answers reads
    with the reference evaluator -- once per (statement, version).
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        database = build_database(workload.vocabulary, workload.n, seed)
        self.n = workload.n
        self.version = 0
        self.tables = {
            relation.name: numpy.column_stack(relation.columns)
            for relation in database
        }
        self._answers: dict[tuple[str, int], Expected] = {}

    def _present(self, relation: str, row: tuple[int, ...]):
        return (self.tables[relation] == row).all(axis=1)

    def absent_row(self, relation: str, rng: random.Random) -> tuple:
        """A row inside the domain (bit widths stay put) not yet stored."""
        arity = self.tables[relation].shape[1]
        while True:
            row = tuple(rng.randint(1, self.n) for _ in range(arity))
            if not self._present(relation, row).any():
                return row

    def stored_row(self, relation: str, rng: random.Random) -> tuple:
        table = self.tables[relation]
        return tuple(table[rng.randrange(len(table))].tolist())

    def insert(self, relation: str, row: tuple[int, ...]) -> None:
        assert not self._present(relation, row).any(), (relation, row)
        self.tables[relation] = numpy.vstack([self.tables[relation], [row]])
        self.version += 1

    def delete(self, relation: str, row: tuple[int, ...]) -> None:
        present = self._present(relation, row)
        assert present.any(), (relation, row)
        self.tables[relation] = self.tables[relation][~present]
        self.version += 1

    def expected(self, statement: str) -> tuple[str, Expected]:
        """(canonical text, expected reply) at the current version."""
        query = parse_query(statement)
        key = (str(query), self.version)
        if key not in self._answers:
            table = evaluate_query_table(
                query,
                {
                    name: list(table.T)
                    for name, table in self.tables.items()
                },
            )
            inlined = json.dumps(table.tolist(), separators=(",", ":"))
            self._answers[key] = Expected(
                len(table), table_digest(table),
                b'"answers":' + inlined.encode(),
            )
        return key[0], self._answers[key]


class _Builder:
    """Numbers the requests of one plan and keeps the mirror in step."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.mirror = Mirror(workload, seed)
        self.next_id = 1

    def _request(self, op: str, fields: dict, **checks) -> Request:
        request_id, self.next_id = self.next_id, self.next_id + 1
        line = json.dumps(
            {"id": request_id, "op": op, **fields}, separators=(",", ":")
        )
        return Request(op, request_id, line.encode() + b"\n", **checks)

    def ping(self) -> Request:
        return self._request("ping", {}, timed=False)

    def read(self, statement: str, timed: bool = True) -> Request:
        fields: dict = {"q": statement}
        batch = self.workload.stream_batch
        if batch is not None:
            fields.update(stream=True, batch=batch)
        text, expected = self.mirror.expected(statement)
        return self._request(
            "query", fields, timed=timed, version=self.mirror.version,
            text=text, expected=expected, stream_batch=batch,
        )

    def write(self, op: str, relation: str, row: tuple[int, ...]) -> Request:
        (self.mirror.insert if op == "update" else self.mirror.delete)(
            relation, row
        )
        return self._request(
            op, {"relation": relation, "rows": [list(row)]},
            timed=True, version=self.mirror.version,
        )


def build_plan(workload: Workload, seed: int) -> Plan:
    """The plan of ``workload`` for ``seed`` (same seed, same plan)."""
    rng = random.Random(f"{workload.name}/{seed}")
    builder = _Builder(workload, seed)
    relations = sorted(builder.mirror.tables)
    plan = Plan(warmup=[builder.ping()])

    if workload.name == "cached_mix":
        plan.warmup += [
            builder.read(shape, timed=False) for shape in workload.shapes
        ]
        # Every block is a fresh permutation: no shape always follows
        # the same shape.
        block = workload.shapes + CACHED_PATHS
        plan.timed = [
            builder.read(shape)
            for _ in range(workload.repeats)
            for shape in rng.sample(block, len(block))
        ]
    elif workload.name == "update_read":
        shapes = list(workload.shapes)
        rng.shuffle(shapes)
        plan.warmup += [builder.read(s, timed=False) for s in shapes]
        inserted: list[tuple[str, tuple]] = []
        for round_index in range(workload.repeats):
            # insert, insert, delete the row of two rounds earlier:
            # sorted insertion and removal both run on the merge path.
            if round_index % 3 == 2:
                relation, row = inserted[-2]
                plan.timed.append(builder.write("delete", relation, row))
            else:
                relation = relations[len(inserted) % len(relations)]
                row = builder.mirror.absent_row(relation, rng)
                inserted.append((relation, row))
                plan.timed.append(builder.write("update", relation, row))
            plan.timed += [builder.read(shape) for shape in shapes]
    else:
        *shapes, full_chain = workload.shapes
        rng.shuffle(shapes)
        # The full chain always goes last: where it falls decides the
        # peak RSS (by 10%), which must not depend on the seed.
        shapes.append(full_chain)
        # One single-atom read absorbs the process's one-time costs
        # (lazy imports, first numpy calls) without warming any timed
        # statement's plan, profile or result.
        plan.warmup.append(builder.read("S8(a,b)", timed=False))
        plan.timed = [builder.read(shape) for shape in shapes]

    touched = relations[:TAIL_RELATIONS]
    stored = [(r, builder.mirror.stored_row(r, rng)) for r in touched]
    absent = [(r, builder.mirror.absent_row(r, rng)) for r in touched]
    plan.tail = [builder.write("update", *entry) for entry in absent]
    plan.tail += [builder.write("delete", *entry) for entry in absent + stored]
    return plan
