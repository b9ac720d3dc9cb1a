"""The answer table from engine to socket: remap kernel, pins, bytes.

Answers stay one sorted, duplicate-free int64 ``(rows, arity)`` table
from the engine to the RPC encoder.  Row tuples exist only as the lazy
views Python callers ask for, and the encoder writes a reply's JSON
bytes straight from the table, byte for byte what ``json.dumps`` of
the re-listed rows was.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect
from repro.algorithms.registry import compile_with
from repro.core.query import parse_query
from repro.data.generators import matching_database
from repro.engine import execute_plan
from repro.serve.cache import CacheRebind
from repro.serve.service import _row_edges, encode_answers, splice_answers

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

values = st.one_of(
    st.integers(1, 4),  # ties on leading columns
    st.integers(-(2**62), 2**62),
)


@st.composite
def tables_and_permutations(draw):
    arity = draw(st.integers(1, 4))
    rows = draw(
        st.lists(st.tuples(*[values] * arity), min_size=0, max_size=30)
    )
    permutation = tuple(draw(st.permutations(range(arity))))
    table = numpy.array(sorted(set(rows)), dtype=numpy.int64).reshape(
        -1, arity
    )
    return table, permutation


@settings(max_examples=300, deadline=None)
@given(tables_and_permutations())
def test_table_remap_matches_the_tuple_sort(case):
    table, permutation = case
    rebind = CacheRebind(relation_map=(), head_permutation=permutation)
    remapped = rebind.remap_table(table)
    expected = sorted(
        tuple(row[i] for i in permutation) for row in table.tolist()
    )
    assert remapped.dtype == numpy.int64
    assert remapped.shape == (len(expected), len(permutation))
    assert list(map(tuple, remapped.tolist())) == expected


def _dumped(table) -> bytes:
    """The encoding the kernel replaced."""
    return json.dumps(table.tolist(), separators=(",", ":")).encode()


INT64 = numpy.iinfo(numpy.int64)
#: Both ends of int64, 0, and every ``10**k`` and ``10**k +- 1`` of
#: either sign: each width change of the decimal encoding.
BOUNDARIES = sorted(
    {INT64.min, INT64.min + 1, INT64.max - 1, INT64.max}
    | {
        sign * (10**k + delta)
        for k in range(19)
        for delta in (-1, 0, 1)
        for sign in (1, -1)
    }
)

cells = st.one_of(
    st.sampled_from(BOUNDARIES),
    st.integers(-200, 200),
    st.integers(INT64.min, INT64.max),
)


@st.composite
def int64_tables(draw):
    arity = draw(st.integers(1, 5))
    rows = draw(
        st.lists(st.tuples(*[cells] * arity), min_size=0, max_size=25)
    )
    return numpy.array(rows, dtype=numpy.int64).reshape(-1, arity)


@settings(max_examples=300, deadline=None)
@given(int64_tables())
def test_encoder_matches_json_dumps(table):
    """The whole table and every ``[i:i+b]`` batch slice a stream sends."""
    assert encode_answers(table) == _dumped(table)
    for batch in range(1, len(table) + 1):
        for index in range(0, len(table), batch):
            part = table[index:index + batch]
            assert encode_answers(part) == _dumped(part)


def test_encoder_boundaries_and_empty_tables():
    column = numpy.array(BOUNDARIES, dtype=numpy.int64)
    # Each boundary beside its mirror image: mixed signs and widths.
    mirrored = numpy.column_stack([column, column[::-1]])
    for table in (column.reshape(-1, 1), mirrored):
        assert encode_answers(table) == _dumped(table)
    for arity in (1, 3):
        empty = numpy.empty((0, arity), dtype=numpy.int64)
        assert encode_answers(empty) == b"[]"


@settings(max_examples=200, deadline=None)
@given(tables_and_permutations())
def test_encoder_matches_json_dumps_in_head_order(case):
    table, permutation = case
    rebind = CacheRebind(relation_map=(), head_permutation=permutation)
    remapped = rebind.remap_table(table)
    # Strided views too: reversed columns, every other row, and the
    # column-major copy.
    for view in (
        remapped,
        remapped[:, ::-1],
        remapped[::2],
        numpy.asfortranarray(remapped),
    ):
        assert encode_answers(view) == _dumped(view)


def _spliced(table, removed, inserted_at, rows):
    """The table a splice describes, as numpy spells it."""
    kept = numpy.delete(table, numpy.array(removed, dtype=numpy.intp), 0)
    return numpy.insert(
        kept, numpy.array(inserted_at, dtype=numpy.intp), rows, 0
    )


@st.composite
def splices(draw):
    """A table (not necessarily sorted), distinct positions to remove
    in any order (sometimes all of them), and rows to insert among the
    kept ones at non-decreasing points, several at one point included."""
    arity = draw(st.integers(0, 4))
    row = st.tuples(*[cells] * arity)
    before = draw(st.lists(row, max_size=12))
    table = numpy.array(before, dtype=numpy.int64).reshape(len(before), arity)
    if before and draw(st.booleans()):
        removed = list(range(len(before)))
    else:
        removed = draw(
            st.lists(
                st.integers(0, max(len(before) - 1, 0)),
                max_size=len(before),
                unique=True,
            )
        )
    kept = len(before) - len(removed)
    inserted_at = sorted(draw(st.lists(st.integers(0, kept), max_size=6)))
    added = draw(
        st.lists(row, min_size=len(inserted_at), max_size=len(inserted_at))
    )
    rows = numpy.array(added, dtype=numpy.int64).reshape(len(added), arity)
    return table, removed, inserted_at, rows


def _splice_twice(table, removed, inserted_at, rows):
    """Splice ``encode_answers(table)`` with its row edges found, and
    with them given: both yield one reply and its row edges."""
    encoded = encode_answers(table)
    found = splice_answers(encoded, None, removed, inserted_at, rows)
    given = splice_answers(
        encoded, _row_edges(encoded), removed, inserted_at, rows
    )
    assert found[0] == given[0]
    assert found[1].tolist() == given[1].tolist()
    # The shifted edges are the ones a scan of the new reply finds.
    assert found[1].tolist() == _row_edges(found[0]).tolist()
    return found[0]


@settings(max_examples=400, deadline=None)
@given(splices())
def test_splice_matches_encoding_the_spliced_table(case):
    table, removed, inserted_at, rows = case
    after = _spliced(table, removed, inserted_at, rows)
    spliced = _splice_twice(table, removed, inserted_at, rows)
    assert spliced == encode_answers(after) == _dumped(after)


def test_splice_edges():
    """Empty before and after, removing every row, inserting at 0, at
    the end and several rows at one point, and int64's extremes."""
    extremes = numpy.array(
        [[INT64.min, -1, 0], [-7, 12, INT64.max], [3, -(10**18), 10**18]],
        dtype=numpy.int64,
    )
    empty = extremes[:0]
    none = numpy.zeros(0, dtype=numpy.intp)
    cases = [
        (empty, none, [0, 0], extremes[:2]),  # empty before
        (extremes, [0, 1, 2], none, empty),  # every row removed
        (extremes, [2, 0, 1], [0], extremes[1:2]),  # ... and one back
        (extremes, none, [0], extremes[2:]),  # at the front
        (extremes, none, [3, 3, 3], extremes),  # at the end, three
        (extremes, [1], [0, 1, 1], extremes),  # several at one point
        (extremes, none, none, empty),  # nothing changes
    ]
    for table, removed, inserted_at, rows in cases:
        after = _spliced(table, removed, inserted_at, rows)
        assert _splice_twice(table, removed, inserted_at, rows) == (
            _dumped(after)
        )
    # Width 0: every row is the one empty row.
    table = numpy.empty((3, 0), dtype=numpy.int64)
    rows = numpy.empty((2, 0), dtype=numpy.int64)
    assert _splice_twice(table, [1], [0, 2], rows) == b"[[],[],[],[]]"


@pytest.mark.parametrize("dtype", [numpy.float64, numpy.int32])
def test_encoder_rejects_other_dtypes(dtype):
    with pytest.raises(TypeError):
        encode_answers(numpy.arange(6, dtype=dtype).reshape(3, 2))


#: The lazy views: the only places an answer table becomes tuples.
LAZY_VIEWS = {
    ("engine/executor.py", "PlanExecution.answers"),
    ("serve/service.py", "AnswerViews.rows"),
}


def _is_tuple_rebuild(node: ast.AST) -> bool:
    """``tuple(map(tuple, <anything>.tolist()))``."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "tuple"
        and len(node.args) == 1
    ):
        return False
    inner = node.args[0]
    return (
        isinstance(inner, ast.Call)
        and isinstance(inner.func, ast.Name)
        and inner.func.id == "map"
        and len(inner.args) == 2
        and isinstance(inner.args[0], ast.Name)
        and inner.args[0].id == "tuple"
        and isinstance(inner.args[1], ast.Call)
        and isinstance(inner.args[1].func, ast.Attribute)
        and inner.args[1].func.attr == "tolist"
    )


def _rebuild_sites(path: Path) -> set[tuple[str, str]]:
    sites = set()

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                visit(child, scope + [child.name])
                continue
            if _is_tuple_rebuild(child):
                sites.add(
                    (path.relative_to(SRC).as_posix(), ".".join(scope))
                )
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return sites


def test_row_tuples_are_rebuilt_only_in_the_lazy_views():
    sites = set()
    for package in ("engine", "serve"):
        for path in sorted((SRC / package).rglob("*.py")):
            sites |= _rebuild_sites(path)
    assert sites == LAZY_VIEWS


VOCAB = parse_query("S1(x,y), S2(y,z), S3(z,x)")

#: ``ivm.retained_bytes`` after capturing each statement when the
#: answer site also kept its rows as tuples (60 bytes a row plus 28 a
#: value on top of the tables).
TUPLE_ERA_RETAINED_BYTES = {
    ("hypercube", "S1(x,y), S2(y,z)"): 13440,
    ("multiround", "q(z,x,y,w) = S1(x,y), S2(y,z), S3(z,w)"): 21360,
}


def test_retained_state_holds_tables_only():
    for (algorithm, text), before in TUPLE_ERA_RETAINED_BYTES.items():
        session = connect(
            matching_database(VOCAB, n=60, rng=7), p=8, algorithm=algorithm
        )
        try:
            result = session.execute(text)
            (state,) = session.ivm.store._states.values()
            assert not state.patched
            arrays = [
                column
                for pool in state.pools.values()
                for column in pool.columns
            ]
            arrays += [site.merged for site in state.sites()]
            if state.projected is not None:
                arrays.append(state.projected)
                assert state.projected is result.table
            retained = session.ivm.retained_bytes
            assert retained == sum(int(array.nbytes) for array in arrays)
            assert retained < before
        finally:
            session.close()


def test_answers_are_lazy_views_of_the_table():
    database = matching_database(VOCAB, n=60, rng=7)
    query = parse_query("S1(x,y), S2(y,z)")
    execution = execute_plan(compile_with("hypercube", query, 8), database)
    assert execution.answers is execution.answers
    assert execution.answers == tuple(map(tuple, execution.table.tolist()))
    session = connect(database, p=8)
    try:
        result = session.execute(query)
        assert result.answers is result.answers
        assert result.answers == execution.answers
        assert len(result) == len(result.table) == 60
    finally:
        session.close()
