"""Exact in-memory conjunctive-query evaluation over int64 columns.

Workers in the MPC model have unlimited local compute (Section 2.1);
what they do locally after a communication round is evaluate the query
on whatever tuples they received.  This module is that local engine:
:func:`evaluate_query_table_segmented` takes relations as int64 column
arrays, runs every join step as one sort plus ``searchsorted`` probes
in key order, and with an optional segment (worker) id per row --
prepended as the highest-order component of every join key --
evaluates all the workers of a pooled delivery independently in a
single pass.  :func:`evaluate_query_table` is its one-segment call
(one worker's fragments, no segment ids).

The evaluator:

* orders atoms greedily (smallest relation first, then always an atom
  sharing a bound variable, to keep intermediate bindings selective);
* handles repeated variables within an atom (they act as equality
  selections), which arise from contracted queries;
* returns answers in the query's head-variable order.

For the matching databases of the paper every relation has ``n``
tuples and joins are key-key, so evaluation is near-linear; the
evaluator is nevertheless fully general, cross-checked in the tests
against brute-force enumeration and against the backtracking row join
of :mod:`repro.oracle`.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy

from repro.core.query import Atom, ConjunctiveQuery
from repro.data.columnar import sorted_unique_rows


def evaluate_query_table(
    query: ConjunctiveQuery,
    fragments: Mapping[str, Sequence[Any]],
    assume_unique: bool = False,
) -> Any:
    """All answers of ``query`` over columnar relation fragments.

    Relations arrive as parallel int64 column arrays and every join
    step is a sort + ``searchsorted`` hash join, so per-answer Python
    work is O(1) amortised.  The one-segment call of
    :func:`evaluate_query_table_segmented`.

    Args:
        query: a full conjunctive query.
        fragments: per relation name, a sequence of parallel value
            columns (numpy int64 arrays); atoms whose relation is
            missing or empty make the answer empty.
        assume_unique: skip input deduplication and output sorting.
            Safe when every fragment is duplicate-free (the HC
            executor's case: routing never delivers a row twice),
            where the full-query answer set is then duplicate-free by
            construction; the returned order is unspecified.

    Returns:
        One int64 array of shape ``(num_answers, len(head))``: the
        answer *set* of the query on those rows, duplicate-free and
        sorted unless ``assume_unique``.
    """
    answers, _ = evaluate_query_table_segmented(
        query, fragments, None, 1, assume_unique
    )
    return answers


def evaluate_query_table_segmented(
    query: ConjunctiveQuery,
    fragments: Mapping[str, Sequence[Any]],
    segments: Mapping[str, Any] | None,
    num_segments: int,
    assume_unique: bool = False,
    sorted_relations: frozenset[str] | set[str] = frozenset(),
) -> tuple[Any, Any]:
    """Evaluate ``query`` independently inside every segment, at once.

    The numpy join kernel.  Each atom arrives as one pooled column
    set spanning all ``p`` workers plus a parallel ``segments[atom]``
    array of worker (segment) ids, and the whole fleet's local
    evaluations run as *one* vectorized join by prepending the segment
    id as the highest-order component of every factorized join key --
    rows only match within their own segment, so the result equals
    evaluating every worker's fragments on their own, without a
    per-worker Python loop.

    Args:
        query: a full conjunctive query.
        fragments: per atom name, the pooled parallel value columns of
            every segment's fragment (missing/empty => no answers).
        segments: per atom name, the int64 segment id of each pooled
            row; ids must lie in ``[0, num_segments)``.  None means
            one segment: no segment ids are built or packed into the
            keys (:func:`evaluate_query_table`'s call).
        num_segments: number of segments (workers) pooled.
        assume_unique: skip per-segment input dedup and output
            sorting.  Safe when every segment's fragments are
            duplicate-free (routing never delivers a row twice to one
            worker): a full query's answers are then duplicate-free
            per segment by construction.
        sorted_relations: atom names whose pooled rows are known
            sorted by (segment, lexicographic row order) -- i.e. their
            delivery pool's ``source_sorted`` flag.  When such an
            atom's join key is a prefix of its column order, the join
            skips its sort (the sort-free fast path); the answer
            multiset is unaffected.

    Returns:
        ``(answers, answer_segments)`` -- an int64 table of shape
        ``(num_answers, len(head))`` holding every segment's local
        answers (sorted by (segment, row) unless ``assume_unique``),
        and the parallel segment id per answer row (None when
        ``segments`` is).  Every join step expands the bound rows in
        place, so ``answer_segments`` is non-decreasing whenever every
        atom's ``segments`` are: one segment's answers are one
        contiguous row slice.  Per-segment answer counts are one
        ``bincount(answer_segments)`` away; the fleet-wide
        deduplicated union is one
        :func:`~repro.data.columnar.sorted_unique_rows`, the row sort
        every dedup pass here also runs.
    """
    empty = (
        numpy.zeros((0, len(query.head)), dtype=numpy.int64),
        None if segments is None else numpy.zeros(0, dtype=numpy.int64),
    )
    # Fragments stay tuples of *contiguous* 1-D columns throughout:
    # at fleet scale the joins are memory-bound, and gathers/scans
    # over contiguous int64 arrays are several times faster than over
    # the strided views a stacked 2-D table would hand out.
    tables: dict[str, tuple] = {}
    table_segments: dict[str, Any] = {}
    for atom in query.atoms:
        columns = fragments.get(atom.name)
        if columns is None or len(columns) == 0 or len(columns[0]) == 0:
            return empty
        columns = tuple(
            numpy.ascontiguousarray(c, dtype=numpy.int64) for c in columns
        )
        segment = (
            None
            if segments is None
            else numpy.asarray(segments[atom.name], dtype=numpy.int64)
        )
        if not assume_unique:
            # Deliveries could in principle hold repeats.  Dedup
            # *within* each segment: unique over (segment, row).
            keyed = columns if segment is None else (segment,) + columns
            stacked = sorted_unique_rows(numpy.column_stack(keyed))
            columns = tuple(
                numpy.ascontiguousarray(stacked[:, position])
                for position in range(len(keyed))
            )
            if segment is not None:
                segment, columns = columns[0], columns[1:]
        # Intra-atom repeated variables act as equality selections.
        first_position = atom.first_positions
        mask = None
        for position, variable in enumerate(atom.variables):
            first = first_position[variable]
            if first != position:
                equal = columns[position] == columns[first]
                mask = equal if mask is None else (mask & equal)
        if mask is not None:
            columns = tuple(column[mask] for column in columns)
            if segment is not None:
                segment = segment[mask]
        if len(columns[0]) == 0:
            return empty
        tables[atom.name] = columns
        table_segments[atom.name] = segment

    sizes = {name: len(columns[0]) for name, columns in tables.items()}
    order = _atom_order_by_size(query, sizes)

    binding: dict[str, Any] = {}
    first_atom = order[0]
    for variable, position in first_atom.first_positions.items():
        binding[variable] = tables[first_atom.name][position]
    segment = table_segments[first_atom.name]

    for atom in order[1:]:
        columns = tables[atom.name]
        atom_segment = table_segments[atom.name]
        positions = atom.first_positions
        shared = [v for v in positions if v in binding]
        left_columns = [binding[v] for v in shared]
        right_columns = [columns[positions[v]] for v in shared]
        # The segment id is the highest-order key component: with no
        # shared variables the "join" degenerates to the per-segment
        # cartesian product (one constant key when unsegmented).
        if segment is not None:
            key_left, key_right, order_preserving = _pack_segmented_keys(
                segment,
                atom_segment,
                num_segments,
                left_columns,
                right_columns,
            )
        elif shared:
            key_left, key_right, order_preserving = _factorize_keys(
                left_columns, right_columns
            )
        else:
            key_left = numpy.zeros(
                len(next(iter(binding.values()))), dtype=numpy.int64
            )
            key_right = numpy.zeros(len(columns[0]), dtype=numpy.int64)
            order_preserving = True
        # Sort-free fast path: the pool is sorted by (segment, lex
        # row) and the key columns are a lexicographic prefix of the
        # atom's columns, so the packed key is already non-decreasing.
        assume_sorted = (
            order_preserving
            and atom.name in sorted_relations
            and [positions[v] for v in shared] == list(range(len(shared)))
        )
        left_index, right_index = _join_pairs_sparse(
            key_left, key_right, assume_sorted=assume_sorted
        )
        if left_index is not None:
            if len(left_index) == 0:
                return empty
            binding = {
                variable: column[left_index]
                for variable, column in binding.items()
            }
            if segment is not None:
                segment = segment[left_index]
        # left_index None: every bound row matched exactly once, so
        # the existing binding columns line up as-is (no gathers).
        for variable, position in positions.items():
            if variable not in binding:
                binding[variable] = columns[position][right_index]

    head = numpy.column_stack([binding[v] for v in query.head])
    if not assume_unique:
        if segment is None:
            head = sorted_unique_rows(head)
        else:
            stacked = sorted_unique_rows(numpy.column_stack([segment, head]))
            segment = numpy.ascontiguousarray(stacked[:, 0])
            head = stacked[:, 1:]
    return head, segment


def _atom_order_by_size(
    query: ConjunctiveQuery, sizes: Mapping[str, int]
) -> list[Atom]:
    """Greedy join order over abstract sizes."""
    remaining = list(query.atoms)
    remaining.sort(key=lambda atom: sizes[atom.name])
    order: list[Atom] = [remaining.pop(0)]
    bound: set[str] = set(order[0].variable_set)
    while remaining:
        connected = [
            atom for atom in remaining if atom.variable_set & bound
        ]
        pool = connected or remaining
        chosen = min(pool, key=lambda atom: sizes[atom.name])
        remaining.remove(chosen)
        order.append(chosen)
        bound |= chosen.variable_set
    return order


def _radices(
    left_columns: Sequence[Any],
    right_columns: Sequence[Any],
    span: int = 1,
) -> list[int] | None:
    """Per-column radices packing both sides' keys into one int64.

    ``span`` is the value span already taken by higher-order digits.
    None when a value is negative or the packed span would overflow.
    """
    radices = []
    for left, right in zip(left_columns, right_columns):
        low = high = 0
        for column in (left, right):
            if len(column):
                low = min(low, int(column.min()))
                high = max(high, int(column.max()))
        span *= high + 1
        if low < 0 or span >= (1 << 62):
            return None
        radices.append(high + 1)
    return radices


def _pack_segmented_keys(
    segment_left: Any,
    segment_right: Any,
    num_segments: int,
    left_columns: Sequence[Any],
    right_columns: Sequence[Any],
) -> tuple[Any, Any, bool]:
    """Pack (segment, columns...) join keys, segment highest-order.

    Like :func:`_factorize_keys` with the segment id prepended, but
    exploits the known segment bound: the (fleet-sized) segment
    columns are never scanned for their min/max, and a bare
    segment-only key ships without so much as a copy.  Falls back to
    the generic factorizer when the packed span would overflow.
    """
    radices = _radices(left_columns, right_columns, num_segments)
    if radices is None:
        return _factorize_keys(
            [segment_left] + list(left_columns),
            [segment_right] + list(right_columns),
        )
    key_left = segment_left
    key_right = segment_right
    for left, right, radix in zip(left_columns, right_columns, radices):
        key_left = key_left * radix + left
        key_right = key_right * radix + right
    return key_left, key_right, True


def _factorize_keys(
    left_columns: Sequence[Any],
    right_columns: Sequence[Any],
) -> tuple[Any, Any, bool]:
    """Map multi-column join keys on both sides to shared int keys.

    Single-column keys are used directly.  Wider keys are packed
    mixed-radix into one int64 when the combined value span fits
    (the common case: domain values are small positive ints);
    otherwise they are factorized through one ``numpy.unique`` over
    the stacked key rows of both sides, which never overflows.

    Returns:
        ``(key_left, key_right, order_preserving)`` -- the third flag
        is True when the keys are a monotone function of the key
        tuples' lexicographic order (direct and mixed-radix packing
        are; the ``unique`` fallback is not), which is what the
        sort-free join branch needs to trust pre-sorted inputs.
    """
    if len(left_columns) == 1:
        return left_columns[0], right_columns[0], True
    radices = _radices(left_columns, right_columns)
    if radices is not None:
        key_left = left_columns[0].copy()
        key_right = right_columns[0].copy()
        for left, right, radix in zip(
            left_columns[1:], right_columns[1:], radices[1:]
        ):
            key_left = key_left * radix + left
            key_right = key_right * radix + right
        return key_left, key_right, True
    num_left = len(left_columns[0])
    stacked = numpy.column_stack(
        [
            numpy.concatenate([left, right])
            for left, right in zip(left_columns, right_columns)
        ]
    )
    _, inverse = numpy.unique(stacked, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)  # pre-2.1 numpy returns shape (n, 1)
    return inverse[:num_left], inverse[num_left:], False


def _join_pairs_sparse(
    key_left: Any,
    key_right: Any,
    assume_sorted: bool = False,
) -> tuple[Any | None, Any]:
    """Index pairs ``(i, j)`` with ``key_left[i] == key_right[j]``.

    Sorts the right side once and locates each left key's run with two
    ``searchsorted`` calls.  The left keys are probed in ascending
    order (one ``argsort``, results scattered back through it), so
    consecutive probes land on neighbouring cache lines of the sorted
    right side instead of ``log(n)`` scattered reads each.  Runs are
    then expanded arithmetic-only.  The cost follows the rows, never
    the key span.

    Args:
        assume_sorted: skip the right-side ``argsort`` entirely; only
            valid when ``key_right`` is already non-decreasing (e.g. a
            pre-sorted delivery pool keyed by its sort prefix).  The
            returned pairs are identical either way.

    Returns:
        ``(left_index, right_index)`` in left row order (a left row's
        matches in right row order), where ``left_index`` is None
        when it would be exactly ``arange(len(key_left))`` -- the
        key-key join case where every left row matches exactly once,
        which lets the caller skip re-gathering every bound column
        through an identity permutation.
    """
    if assume_sorted:
        order = None
        sorted_keys = key_right
    else:
        order = numpy.argsort(key_right, kind="stable")
        sorted_keys = key_right[order]
    probe = numpy.argsort(key_left)
    needles = key_left[probe]
    found = numpy.searchsorted(sorted_keys, needles, side="left")
    starts = numpy.empty_like(found)
    starts[probe] = found
    counts = numpy.empty_like(found)
    counts[probe] = (
        numpy.searchsorted(sorted_keys, needles, side="right") - found
    )
    max_count = int(counts.max()) if len(counts) else 0
    if max_count <= 1:
        # Key-key join: no run expansion, and when nothing drops the
        # left side is the identity (signalled as None).
        if int(counts.sum()) == len(counts):
            left_index = None
            sorted_positions = starts
        else:
            left_index = numpy.nonzero(counts)[0]
            sorted_positions = starts[left_index]
        right_index = (
            sorted_positions
            if order is None
            else order[sorted_positions]
        )
        return left_index, right_index
    matched = numpy.nonzero(counts)[0]
    runs = counts[matched]
    left_index = numpy.repeat(matched, runs)
    # A left row's pairs are contiguous: its run begins where
    # left_index changes, and pair k of it reads sorted position
    # start + k.
    begins = numpy.nonzero(numpy.diff(left_index, prepend=-1))[0]
    sorted_positions = numpy.arange(len(left_index)) + numpy.repeat(
        starts[matched] - begins, runs
    )
    right_index = (
        sorted_positions if order is None else order[sorted_positions]
    )
    return left_index, right_index
