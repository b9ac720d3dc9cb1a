"""Full conjunctive queries without self-joins (Section 2.3).

A query is written, as in equation (1) of the paper, as::

    q(x1, ..., xk) = S1(xbar_1), ..., Sl(xbar_l)

It is *full* -- every variable in the body appears in the head -- and
has *no self-joins* -- each relation name appears exactly once.  Both
restrictions are inherited from the paper and validated at construction
time.

The module offers three ways to build queries:

* directly, from :class:`Atom` objects::

      ConjunctiveQuery([Atom("S1", ("x", "y")), Atom("S2", ("y", "z"))])

* by parsing the paper's notation::

      parse_query("S1(x,y), S2(y,z)")
      parse_query("q(x,y,z) = S1(x,y), S2(y,z)")

* from the family constructors in :mod:`repro.core.families`
  (``line_query``, ``cycle_query``, ...).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence


class QueryError(Exception):
    """Raised for malformed queries (self-joins, empty bodies, ...)."""


@dataclass(frozen=True)
class Atom:
    """A single relational atom ``S(x1, ..., xa)``.

    Attributes:
        name: relation symbol; must be unique within a query.
        variables: variable names in positional order.  Repeated
            variables are allowed (they arise from contraction,
            Section 2.3) and act as equality constraints.
    """

    name: str
    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise QueryError("atom needs a non-empty relation name")
        if not self.variables:
            raise QueryError(f"atom {self.name!r} needs at least one variable")
        object.__setattr__(self, "variables", tuple(self.variables))

    @property
    def arity(self) -> int:
        """Number of attribute positions (counting repeats)."""
        return len(self.variables)

    @cached_property
    def first_positions(self) -> dict[str, int]:
        """First column position of each distinct variable.

        Repeated variables act as equality selections: a row satisfies
        the atom iff every position agrees with its variable's first
        position.  Both execution engines share this mapping.
        """
        positions: dict[str, int] = {}
        for position, variable in enumerate(self.variables):
            positions.setdefault(variable, position)
        return positions

    @property
    def variable_set(self) -> frozenset[str]:
        """Distinct variables of the atom."""
        return frozenset(self.variables)

    def rename(self, mapping: Mapping[str, str]) -> "Atom":
        """Return a copy with variables substituted through ``mapping``."""
        return Atom(
            self.name,
            tuple(mapping.get(v, v) for v in self.variables),
        )

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.variables)})"


class ConjunctiveQuery:
    """A full conjunctive query without self-joins.

    Args:
        atoms: the body atoms; relation names must be distinct.
        head: optional explicit head-variable order.  Must contain
            exactly the body variables (the query is full).  Defaults
            to body variables in order of first appearance.
        name: optional display name (``q`` by default).
    """

    def __init__(
        self,
        atoms: Iterable[Atom],
        head: Sequence[str] | None = None,
        name: str = "q",
    ) -> None:
        self._atoms = tuple(atoms)
        if not self._atoms:
            raise QueryError("query needs at least one atom")
        names = [atom.name for atom in self._atoms]
        if len(set(names)) != len(names):
            duplicates = sorted(
                {n for n in names if names.count(n) > 1}
            )
            raise QueryError(f"self-joins are not allowed: {duplicates}")

        seen: dict[str, None] = {}
        for atom in self._atoms:
            for variable in atom.variables:
                seen.setdefault(variable, None)
        body_variables = tuple(seen)

        if head is None:
            head = body_variables
        if set(head) != set(body_variables) or len(set(head)) != len(head):
            raise QueryError(
                "query must be full: head variables "
                f"{tuple(head)} != body variables {body_variables}"
            )
        self._head = tuple(head)
        self._name = name

    # -- basic accessors ---------------------------------------------------

    @property
    def name(self) -> str:
        """Display name of the query."""
        return self._name

    @property
    def atoms(self) -> tuple[Atom, ...]:
        """Body atoms in declaration order."""
        return self._atoms

    @property
    def head(self) -> tuple[str, ...]:
        """Head variables (all body variables, in head order)."""
        return self._head

    @property
    def variables(self) -> tuple[str, ...]:
        """Alias of :attr:`head`: the query is full."""
        return self._head

    @property
    def num_variables(self) -> int:
        """``k`` in the paper's notation."""
        return len(self._head)

    @property
    def num_atoms(self) -> int:
        """``l`` (ell) in the paper's notation."""
        return len(self._atoms)

    @property
    def total_arity(self) -> int:
        """``a = sum_j a_j`` in the paper's notation."""
        return sum(atom.arity for atom in self._atoms)

    def atom(self, name: str) -> Atom:
        """Look up an atom by relation name."""
        for candidate in self._atoms:
            if candidate.name == name:
                return candidate
        raise KeyError(name)

    def atoms_of(self, variable: str) -> tuple[Atom, ...]:
        """``atoms(x)``: the atoms in which ``variable`` occurs."""
        return tuple(
            atom for atom in self._atoms if variable in atom.variable_set
        )

    # -- structure ----------------------------------------------------------

    @cached_property
    def hypergraph(self) -> "Hypergraph":
        """The query hypergraph (one node per variable, one edge per atom)."""
        from repro.core.hypergraph import Hypergraph

        return Hypergraph(
            nodes=self._head,
            edges=tuple(atom.variable_set for atom in self._atoms),
            edge_names=tuple(atom.name for atom in self._atoms),
        )

    @property
    def is_connected(self) -> bool:
        """True when the query hypergraph is connected."""
        return self.hypergraph.is_connected

    @cached_property
    def connected_components(self) -> tuple["ConjunctiveQuery", ...]:
        """Maximal connected subqueries, as queries."""
        components = self.hypergraph.connected_components
        result = []
        for index, component in enumerate(components):
            atoms = tuple(
                atom
                for atom in self._atoms
                if atom.variable_set <= component
            )
            result.append(
                ConjunctiveQuery(atoms, name=f"{self._name}[{index}]")
            )
        return tuple(result)

    def subquery(self, atom_names: Iterable[str], name: str | None = None) -> "ConjunctiveQuery":
        """The subquery induced by a subset of atoms.

        The result keeps only the variables occurring in the selected
        atoms; it is full by construction.
        """
        wanted = set(atom_names)
        unknown = wanted - {atom.name for atom in self._atoms}
        if unknown:
            raise QueryError(f"unknown atoms: {sorted(unknown)}")
        atoms = tuple(atom for atom in self._atoms if atom.name in wanted)
        return ConjunctiveQuery(
            atoms, name=name or f"{self._name}|{len(atoms)}"
        )

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self._atoms == other._atoms and self._head == other._head

    def __hash__(self) -> int:
        return hash((self._atoms, self._head))

    def __str__(self) -> str:
        body = ", ".join(str(atom) for atom in self._atoms)
        return f"{self._name}({', '.join(self._head)}) = {body}"

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({str(self)!r})"


_ATOM_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_']*)\s*\(([^)]*)\)\s*")


def parse_query(text: str, name: str | None = None) -> ConjunctiveQuery:
    """Parse the paper's query notation.

    Accepts either a bare body, ``"S1(x,y), S2(y,z)"``, or a rule with
    an explicit head, ``"q(x,y,z) = S1(x,y), S2(y,z)"``.  Variable and
    relation names are identifiers (primes allowed, e.g. ``x'``).

    Raises:
        QueryError: on syntax errors, or if the parsed query violates
            fullness / no-self-join validation.
    """
    head: tuple[str, ...] | None = None
    body = text
    if "=" in text:
        head_text, body = text.split("=", 1)
        match = _ATOM_RE.fullmatch(head_text)
        if match is None:
            raise QueryError(f"malformed head: {head_text.strip()!r}")
        parsed_name, arguments = match.groups()
        head = _split_arguments(arguments, context=head_text)
        name = name or parsed_name

    atoms: list[Atom] = []
    position = 0
    body = body.strip()
    while position < len(body):
        match = _ATOM_RE.match(body, position)
        if match is None:
            raise QueryError(f"malformed body near: {body[position:]!r}")
        atom_name, arguments = match.groups()
        atoms.append(Atom(atom_name, _split_arguments(arguments, body)))
        position = match.end()
        if position < len(body):
            if body[position] != ",":
                raise QueryError(
                    f"expected ',' between atoms near: {body[position:]!r}"
                )
            position += 1
    if not atoms:
        raise QueryError(f"no atoms found in {text!r}")
    return ConjunctiveQuery(atoms, head=head, name=name or "q")


def _split_arguments(arguments: str, context: str) -> tuple[str, ...]:
    parts = [part.strip() for part in arguments.split(",")]
    if any(not part for part in parts):
        raise QueryError(f"empty argument in {context.strip()!r}")
    return tuple(parts)
