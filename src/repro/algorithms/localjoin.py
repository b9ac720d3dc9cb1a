"""Exact in-memory conjunctive-query evaluation.

Workers in the MPC model have unlimited local compute (Section 2.1);
what they do locally after a communication round is evaluate the query
on whatever tuples they received.  This module is that local engine,
in two bit-identical flavours:

* :func:`evaluate_query` -- the reference path: a straightforward
  index-backed backtracking join over row tuples;
* :func:`evaluate_query_table_segmented` -- the vectorized path
  (numpy backend): relations arrive as int64 column arrays, every
  join step is one sort or direct-address (bincount) lookup, and an
  optional segment (worker) id per row -- prepended as the
  highest-order component of every join key -- evaluates all the
  workers of a pooled delivery independently in a single pass.
  :func:`evaluate_query_table` and :func:`evaluate_query_columnar`
  are its one-segment calls (one worker's fragments, no segment ids).

Both evaluators:

* order atoms greedily (smallest relation first, then always an atom
  sharing a bound variable, to keep intermediate bindings selective);
* handle repeated variables within an atom (they act as equality
  selections), which arise from contracted queries;
* return answers in the query's head-variable order.

For the matching databases of the paper every relation has ``n``
tuples and joins are key-key, so evaluation is near-linear; the
evaluators are nevertheless fully general, cross-checked against
brute-force enumeration and against each other in the tests.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.backend import require_numpy
from repro.core.query import Atom, ConjunctiveQuery

Rows = Sequence[tuple[int, ...]]


def evaluate_query(
    query: ConjunctiveQuery,
    relations: Mapping[str, Iterable[Sequence[int]]],
) -> tuple[tuple[int, ...], ...]:
    """All answers of ``query`` over the given relation instances.

    Args:
        query: a full conjunctive query.
        relations: rows per relation name; every atom of the query
            must be present (missing relations are treated as empty).

    Returns:
        Sorted, duplicate-free answer tuples in head-variable order.
    """
    instances: dict[str, list[tuple[int, ...]]] = {}
    for atom in query.atoms:
        rows = relations.get(atom.name, ())
        instances[atom.name] = [tuple(row) for row in rows]
        if not instances[atom.name]:
            return ()

    order = _atom_order(query, instances)
    indexes = _build_indexes(query, order, instances)

    answers: set[tuple[int, ...]] = set()
    binding: dict[str, int] = {}

    def extend(depth: int) -> None:
        if depth == len(order):
            answers.add(tuple(binding[v] for v in query.head))
            return
        atom = order[depth]
        bound_positions, index = indexes[depth]
        key = tuple(binding[atom.variables[i]] for i in bound_positions)
        for row in index.get(key, ()):
            assigned: list[str] = []
            consistent = True
            for position, variable in enumerate(atom.variables):
                value = row[position]
                if variable in binding:
                    if binding[variable] != value:
                        consistent = False
                        break
                else:
                    binding[variable] = value
                    assigned.append(variable)
            if consistent:
                extend(depth + 1)
            for variable in assigned:
                del binding[variable]

    extend(0)
    return tuple(sorted(answers))


def evaluate_query_columnar(
    query: ConjunctiveQuery,
    fragments: Mapping[str, Sequence[Any]],
    assume_unique: bool = False,
) -> tuple[tuple[int, ...], ...]:
    """All answers of ``query`` over columnar relation fragments.

    The vectorized counterpart of :func:`evaluate_query`: relations
    arrive as parallel int64 column arrays and every join step is a
    sort + ``searchsorted`` hash join, so per-answer Python work is
    O(1) amortised.  Requires the numpy backend.

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
        Duplicate-free answer tuples in head-variable order, sorted
        unless ``assume_unique`` -- the same answer *set*
        :func:`evaluate_query` produces on the same rows.
    """
    table = evaluate_query_table(query, fragments, assume_unique)
    return tuple(map(tuple, table.tolist()))


def evaluate_query_table(
    query: ConjunctiveQuery,
    fragments: Mapping[str, Sequence[Any]],
    assume_unique: bool = False,
) -> Any:
    """Like :func:`evaluate_query_columnar` but stays columnar.

    Returns the answers as one int64 array of shape
    ``(num_answers, len(head))`` instead of materialising Python
    tuples: the one-segment call of
    :func:`evaluate_query_table_segmented`.
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
        deduplicated union is one ``unique``.
    """
    numpy = require_numpy()
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
            # Mailboxes could in principle hold repeats.  Dedup
            # *within* each segment: unique over (segment, row).
            keyed = columns if segment is None else (segment,) + columns
            stacked = numpy.unique(numpy.column_stack(keyed), axis=0)
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
                numpy,
                segment,
                atom_segment,
                num_segments,
                left_columns,
                right_columns,
            )
        elif shared:
            key_left, key_right, order_preserving = _factorize_keys(
                numpy, left_columns, right_columns
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
            numpy, key_left, key_right, assume_sorted=assume_sorted
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
            head = numpy.unique(head, axis=0)
        else:
            stacked = numpy.unique(
                numpy.column_stack([segment, head]), axis=0
            )
            segment = numpy.ascontiguousarray(stacked[:, 0])
            head = stacked[:, 1:]
    return head, segment


def _atom_order_by_size(
    query: ConjunctiveQuery, sizes: Mapping[str, int]
) -> list[Atom]:
    """Greedy join order over abstract sizes (shared with both paths)."""
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


def _pack_segmented_keys(
    numpy: Any,
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
    radices = []
    span = num_segments
    packable = True
    for left, right in zip(left_columns, right_columns):
        low = high = 0
        if len(left):
            low = min(low, int(left.min()))
            high = max(high, int(left.max()))
        if len(right):
            low = min(low, int(right.min()))
            high = max(high, int(right.max()))
        span *= high + 1
        if low < 0 or span >= (1 << 62):
            packable = False
            break
        radices.append(high + 1)
    if not packable:
        return _factorize_keys(
            numpy,
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
    numpy: Any,
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
    radices = []
    span = 1
    packable = True
    for left, right in zip(left_columns, right_columns):
        low = high = 0
        if len(left):
            low = min(low, int(left.min()))
            high = max(high, int(left.max()))
        if len(right):
            low = min(low, int(right.min()))
            high = max(high, int(right.max()))
        span *= high + 1
        if low < 0 or span >= (1 << 62):
            packable = False
            break
        radices.append(high + 1)
    if packable:
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
    numpy: Any,
    key_left: Any,
    key_right: Any,
    assume_sorted: bool = False,
) -> tuple[Any | None, Any]:
    """Index pairs ``(i, j)`` with ``key_left[i] == key_right[j]``.

    Sorts the right side once, locates each left key's run with two
    ``searchsorted`` calls, and expands the runs arithmetic-only.

    Args:
        assume_sorted: skip the right-side ``argsort`` entirely; only
            valid when ``key_right`` is already non-decreasing (e.g. a
            pre-sorted delivery pool keyed by its sort prefix).  The
            returned pair multiset is identical either way.

    A sorted right side additionally enables direct addressing: when
    the key span is within a small multiple of the data size, each
    key's (start, count) run is read from one ``bincount``/``cumsum``
    table in O(1) -- one cache line per probe instead of the
    ``log(n)`` scattered reads of a fleet-sized binary search.

    Returns:
        ``(left_index, right_index)`` where ``left_index`` is None
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
    # Direct addressing needs non-negative keys (bincount) with a
    # modest span; sorted_keys[0] >= 0 guards negatives (possible
    # under the documented "non-decreasing" precondition even though
    # no shipped caller produces them).
    span = (
        int(sorted_keys[-1]) + 1
        if assume_sorted and len(sorted_keys) and int(sorted_keys[0]) >= 0
        else -1
    )
    if 0 <= span <= max(
        1 << 22, 4 * (len(key_left) + len(key_right))
    ):
        run_counts = numpy.bincount(sorted_keys, minlength=span)
        run_starts_all = numpy.empty_like(run_counts)
        run_starts_all[0] = 0
        numpy.cumsum(run_counts[:-1], out=run_starts_all[1:])
        within = (key_left >= 0) & (key_left < span)
        if within.all():
            starts = run_starts_all[key_left]
            counts = run_counts[key_left]
        else:
            lookup = numpy.where(within, key_left, 0)
            starts = run_starts_all[lookup]
            counts = numpy.where(within, run_counts[lookup], 0)
    else:
        starts = numpy.searchsorted(sorted_keys, key_left, side="left")
        ends = numpy.searchsorted(sorted_keys, key_left, side="right")
        counts = ends - starts
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
    total = int(counts.sum())
    left_index = numpy.repeat(numpy.arange(len(key_left)), counts)
    run_starts = numpy.repeat(starts, counts)
    offsets = numpy.arange(total) - numpy.repeat(
        numpy.concatenate(
            ([0], numpy.cumsum(counts)[:-1])
        ) if len(counts) else numpy.zeros(0, dtype=numpy.int64),
        counts,
    )
    sorted_positions = run_starts + offsets
    right_index = (
        sorted_positions if order is None else order[sorted_positions]
    )
    return left_index, right_index


def count_answers(
    query: ConjunctiveQuery,
    relations: Mapping[str, Iterable[Sequence[int]]],
) -> int:
    """Convenience: the number of answers (|q(I)|)."""
    return len(evaluate_query(query, relations))


def _atom_order(
    query: ConjunctiveQuery,
    instances: Mapping[str, list[tuple[int, ...]]],
) -> list[Atom]:
    """Greedy join order: smallest first, then stay connected."""
    return _atom_order_by_size(
        query, {name: len(rows) for name, rows in instances.items()}
    )


def _build_indexes(
    query: ConjunctiveQuery,
    order: Sequence[Atom],
    instances: Mapping[str, list[tuple[int, ...]]],
) -> list[tuple[tuple[int, ...], dict[tuple[int, ...], list[tuple[int, ...]]]]]:
    """Per-atom hash index on the positions bound before the atom.

    For each atom in join order, determine which of its positions hold
    variables bound by earlier atoms; index its rows by the values at
    those positions.  Rows violating intra-atom repeated-variable
    equality are dropped at build time.
    """
    indexes = []
    bound: set[str] = set()
    for atom in order:
        first_position = atom.first_positions
        bound_positions = tuple(
            first_position[variable]
            for variable in dict.fromkeys(atom.variables)
            if variable in bound
        )
        index: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for row in instances[atom.name]:
            if any(
                row[position] != row[first_position[variable]]
                for position, variable in enumerate(atom.variables)
            ):
                continue
            key = tuple(row[i] for i in bound_positions)
            index.setdefault(key, []).append(row)
        indexes.append((bound_positions, index))
        bound |= atom.variable_set
    return indexes
