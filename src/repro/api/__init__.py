"""The public API: one front door, a planner behind it.

``repro.connect(database)`` opens a :class:`Session`;
``session.query(text)`` prepares a :class:`Statement` supporting
``.execute()``, ``.explain()`` and ``.stream()``.  A cost-based
planner (:mod:`repro.planner`) picks the algorithm -- one-round
HyperCube (binding heavy hitters), a multi-round plan, or (opt-in) the
below-threshold partial algorithm -- from the registry's declared
cost models, bit-identically to compiling the chosen algorithm with
:func:`~repro.algorithms.registry.compile_with` and running it with
:func:`~repro.engine.execute_plan` -- the one other way to run a
query, for pinned, cache-free runs.
"""

from repro.api.session import Result, Session, Statement, connect
from repro.planner import Explain

__all__ = ["Explain", "Result", "Session", "Statement", "connect"]
