"""Declared serving instruments and their two views.

Each serving counter is declared once, as an :class:`Instrument` next
to the value it counts: field metadata on the stats dataclasses
(``RpcStats``, ``AdmissionStats``, ``ServiceStats``,
``PlanCacheStats``, ``PlannerStats``), or a class-level declaration on
the attribute or property of a live gauge's owner (admission queue,
IVM manager, session, RPC server).  Increments stay
plain attribute arithmetic (``self.stats.errors += 1``): nothing is
looked up or locked on the hot path.

:func:`snapshot` copies the declared values of some owners into one
:data:`Snapshot`.  Two walkers render a snapshot, so every instrument
appears in both and no view names one: :func:`stats_dict` (the RPC
``stats`` op, ``Session.stats_report()``, the REPL ``stats`` table)
and :func:`exposition`, the Prometheus text format 0.0.4 that the
RPC server answers ``GET /metrics`` with on its own port
(:mod:`repro.serve.rpc`) -- no client library.

The module imports nothing from the rest of the package: the stats
classes import their declarations from here.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Any, Callable, Iterable, Mapping

#: Prometheus text exposition format version served as Content-Type.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default latency buckets (seconds): sub-millisecond service hits up
#: to multi-second heavy plans, roughly x2.5 per step.
DEFAULT_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

COUNTER, GAUGE, HISTOGRAM = "counter", "gauge", "histogram"


class Histogram:
    """A fixed-bucket cumulative histogram (Prometheus semantics).

    ``observe`` is O(buckets); rendering emits the cumulative
    ``_bucket`` series (each ``le`` bound counts observations at or
    below it), plus ``_sum`` and ``_count``.  A snapshot reads each
    histogram through :meth:`copy`.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(
        self, bounds: Iterable[float] = DEFAULT_BUCKETS
    ) -> None:
        self.bounds = tuple(sorted(float(bound) for bound in bounds))
        if not self.bounds:
            raise ValueError("need at least one bucket bound")
        #: per-bound non-cumulative counts plus the +Inf overflow slot.
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation (seconds, bytes -- any unit)."""
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1

    def copy(self) -> "Histogram":
        """An independent copy: observing either leaves the other as
        it was."""
        clone = Histogram(self.bounds)
        clone.counts = list(self.counts)
        clone.total = self.total
        clone.count = self.count
        return clone


@dataclasses.dataclass(frozen=True)
class Instrument:
    """One declared instrument: a Prometheus family and a ``stats`` key.

    On a stats dataclass, :meth:`field` declares a field.  On another
    owner it is a class attribute that the instance attribute of the
    same name shadows or, used as a decorator, a read-only property.
    The owner class may set ``stats_section`` (None = top level) and
    ``stats_prefix`` (prepended to its keys); ``section`` overrides
    the former.  ``label`` names the label a dict value's keys fill,
    ``fixed`` labels let several instruments share one family, and
    ``zero`` is what an absent owner reads.
    """

    family: str
    help: str
    kind: str = COUNTER
    label: str | None = None
    fixed: tuple[tuple[str, str], ...] = ()
    section: str | None = None
    zero: Any = 0
    getter: Callable[[Any], Any] | None = None

    def __get__(self, instance: Any, owner: type | None = None) -> Any:
        if instance is None or self.getter is None:
            return self
        return self.getter(instance)

    def __call__(self, getter: Callable[[Any], Any]) -> "Instrument":
        return dataclasses.replace(self, getter=getter)

    def field(self, factory: Callable[[], Any] = int, **fixed: str) -> Any:
        """A dataclass field holding this instrument's value."""
        instrument = dataclasses.replace(self, fixed=tuple(fixed.items()))
        return dataclasses.field(
            default_factory=factory, metadata={Instrument: instrument}
        )


counter = functools.partial(Instrument, kind=COUNTER)
gauge = functools.partial(Instrument, kind=GAUGE)
histogram = functools.partial(Instrument, kind=HISTOGRAM)

#: ``(section, key) -> (instrument, value)``; section None is the top
#: level of the ``stats`` dict.
Snapshot = dict


def declared(owner: type) -> list[tuple[str, Instrument]]:
    """``(attribute, instrument)`` for each instrument ``owner`` declares."""
    fields = (
        dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
    )
    return [
        (field.name, field.metadata[Instrument])
        for field in fields
        if Instrument in field.metadata
    ] + [
        (name, value)
        for name, value in vars(owner).items()
        if isinstance(value, Instrument)
    ]


def _map(value: Any, leaf: Callable[[Histogram], Any]) -> Any:
    """``value`` with ``leaf`` applied to every histogram in it."""
    if isinstance(value, Mapping):
        # dict() copies in one step: the event loop may add a key to
        # a count (``by_op``) while another thread snapshots it.
        items = dict(value).items()
        return {label: _map(item, leaf) for label, item in items}
    return leaf(value) if isinstance(value, Histogram) else value


def snapshot(*owners: Any) -> Snapshot:
    """Copy the value of every instrument ``owners`` declare.

    An owner passed as its class (admission off, IVM off) reads as
    zeros, so every key and family is always present.
    """
    readings: Snapshot = {}
    for owner in owners:
        cls = owner if isinstance(owner, type) else type(owner)
        section = getattr(cls, "stats_section", None)
        prefix = getattr(cls, "stats_prefix", "")
        for name, instrument in declared(cls):
            if owner is cls:
                value = {} if instrument.label else instrument.zero
            else:
                value = _map(getattr(owner, name), Histogram.copy)
            key = (instrument.section or section, prefix + name)
            readings[key] = (instrument, value)
    return readings


def stats_dict(readings: Snapshot) -> dict:
    """The JSON-ready ``stats`` view: ``{section: {key: value}}`` plus
    top-level keys; a histogram reads as its count and sum."""
    report: dict = {}
    for (section, key), (_, value) in readings.items():
        target = report.setdefault(section, {}) if section else report
        target[key] = _map(
            value, lambda h: {"count": h.count, "sum": h.total}
        )
    return report


def _format_value(value: Any) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if value == float("inf"):
            return "+Inf"
        return repr(value)
    return str(value)


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _labels(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _samples(name: str, kind: str, labels: dict, value: Any) -> list[str]:
    if kind != HISTOGRAM:
        return [f"{name}{_labels(labels)} {_format_value(value)}"]
    bounds = [_format_value(bound) for bound in value.bounds] + ["+Inf"]
    return [
        f"{name}_bucket{_labels({**labels, 'le': le})} {count}"
        for le, count in zip(bounds, itertools.accumulate(value.counts))
    ] + [
        f"{name}_sum{_labels(labels)} {_format_value(value.total)}",
        f"{name}_count{_labels(labels)} {value.count}",
    ]


def exposition(readings: Snapshot) -> str:
    """The Prometheus text view: one ``# HELP`` / ``# TYPE`` block per
    family.  A dict value yields one sample per key (an empty one a
    single unlabelled 0); None reads as NaN, booleans as 1/0."""
    families: dict[str, list[tuple[Instrument, Any]]] = {}
    for instrument, value in readings.values():
        families.setdefault(instrument.family, []).append(
            (instrument, value)
        )
    lines = []
    for family, members in families.items():
        name, first = f"repro_{family}", members[0][0]
        lines.append(f"# HELP {name} {first.help}")
        lines.append(f"# TYPE {name} {first.kind}")
        for instrument, value in members:
            fixed = dict(instrument.fixed)
            series = [(fixed, value)]
            if instrument.label is not None:
                series = [
                    ({**fixed, instrument.label: label}, item)
                    for label, item in sorted(value.items())
                ] or [(fixed, 0)]
            for labels, item in series:
                lines += _samples(name, first.kind, labels, item)
    return "\n".join(lines) + "\n"


def render_metrics(server: Any) -> str:
    """The ``/metrics`` page of an :class:`~repro.serve.rpc.RpcServer`
    (call it on the server's dispatch thread, as the server does)."""
    return exposition(server.stats_snapshot())
