"""Input-data substrate: columnar relations, databases and generators.

The paper's input model (Section 2.5) is the *matching database*: every
relation of arity ``a`` is an ``a``-dimensional matching over domain
``[n]`` -- exactly ``n`` tuples, every column a permutation of
``1..n``.  Matching databases are the skew-free worst case on which
both the lower bounds and the HyperCube upper bound are exact.

This package provides:

* :mod:`repro.data.columnar` -- :class:`ColumnarRelation` /
  :class:`ColumnarDatabase`, the one data model: immutable int64
  columns with the paper's bit accounting (``N = O(n log n)`` bits),
* :mod:`repro.data.generators` -- uniform random matching databases,
  skewed relations, the JOIN-WITNESS instances of Proposition 3.12,
  and the layered / dense graphs of the CONNECTED-COMPONENTS
  experiment (Theorem 4.10),
* :mod:`repro.data.versioned` -- the serving layer's mutating
  database: immutable columnar snapshots behind a monotonically
  increasing version number (the cache-invalidation token).
"""

from repro.data.columnar import ColumnarDatabase, ColumnarRelation, DataError
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.data.generators import (
    dense_graph,
    layered_path_graph,
    matching_database,
    random_matching,
    skewed_database,
    witness_database,
)

__all__ = [
    "ColumnarDatabase",
    "ColumnarRelation",
    "DataError",
    "DatabaseDelta",
    "VersionedDatabase",
    "matching_database",
    "random_matching",
    "dense_graph",
    "layered_path_graph",
    "skewed_database",
    "witness_database",
]
