"""Unit tests for Atom / ConjunctiveQuery / parsing."""

from __future__ import annotations

import pytest

from repro.core.query import Atom, ConjunctiveQuery, QueryError, parse_query


class TestAtom:
    def test_basic_properties(self):
        atom = Atom("S", ("x", "y", "x"))
        assert atom.arity == 3
        assert atom.variable_set == {"x", "y"}
        assert str(atom) == "S(x, y, x)"

    def test_rename(self):
        atom = Atom("S", ("x", "y"))
        renamed = atom.rename({"x": "u"})
        assert renamed.variables == ("u", "y")
        assert renamed.name == "S"

    def test_empty_name_rejected(self):
        with pytest.raises(QueryError):
            Atom("", ("x",))

    def test_no_variables_rejected(self):
        with pytest.raises(QueryError):
            Atom("S", ())


class TestConjunctiveQuery:
    def test_counts(self, triangle):
        assert triangle.num_variables == 3
        assert triangle.num_atoms == 3
        assert triangle.total_arity == 6

    def test_head_defaults_to_first_appearance_order(self):
        query = ConjunctiveQuery(
            [Atom("S1", ("b", "a")), Atom("S2", ("a", "c"))]
        )
        assert query.head == ("b", "a", "c")

    def test_explicit_head_order_respected(self):
        query = ConjunctiveQuery(
            [Atom("S1", ("x", "y"))], head=("y", "x")
        )
        assert query.head == ("y", "x")

    def test_self_join_rejected(self):
        with pytest.raises(QueryError, match="self-join"):
            ConjunctiveQuery(
                [Atom("S", ("x", "y")), Atom("S", ("y", "z"))]
            )

    def test_non_full_head_rejected(self):
        with pytest.raises(QueryError, match="full"):
            ConjunctiveQuery([Atom("S", ("x", "y"))], head=("x",))

    def test_head_with_extra_variable_rejected(self):
        with pytest.raises(QueryError, match="full"):
            ConjunctiveQuery([Atom("S", ("x",))], head=("x", "y"))

    def test_empty_body_rejected(self):
        with pytest.raises(QueryError, match="at least one atom"):
            ConjunctiveQuery([])

    def test_atom_lookup(self, triangle):
        assert triangle.atom("S1").variables == ("x1", "x2")
        with pytest.raises(KeyError):
            triangle.atom("missing")

    def test_atoms_of_variable(self, triangle):
        names = {atom.name for atom in triangle.atoms_of("x1")}
        assert names == {"S1", "S3"}

    def test_connectivity(self, triangle):
        assert triangle.is_connected
        disconnected = ConjunctiveQuery(
            [Atom("R", ("x",)), Atom("S", ("y",))]
        )
        assert not disconnected.is_connected
        assert len(disconnected.connected_components) == 2

    def test_connected_components_are_full_queries(self):
        query = ConjunctiveQuery(
            [Atom("R", ("x", "y")), Atom("S", ("u", "v"))]
        )
        components = query.connected_components
        assert {c.num_atoms for c in components} == {1}
        assert {v for c in components for v in c.head} == {"x", "y", "u", "v"}

    def test_subquery(self, chain4):
        sub = chain4.subquery(["S2", "S3"])
        assert sub.num_atoms == 2
        assert set(sub.head) == {"x1", "x2", "x3"}

    def test_subquery_unknown_atom_rejected(self, chain4):
        with pytest.raises(QueryError, match="unknown atoms"):
            chain4.subquery(["S9"])

    def test_equality_and_hash(self, two_hop):
        clone = parse_query("q(x,y,z) = S1(x,y), S2(y,z)")
        assert clone == two_hop
        assert hash(clone) == hash(two_hop)
        assert clone != parse_query("q(x,y,z) = S1(x,y), S2(x,z)")

    def test_str_round_trips_through_parser(self, triangle):
        assert parse_query(str(triangle)) == triangle


class TestParsing:
    def test_bare_body(self):
        query = parse_query("S1(x,y), S2(y,z)")
        assert query.num_atoms == 2
        assert query.head == ("x", "y", "z")

    def test_head_and_body(self):
        query = parse_query("q(z,y,x) = S1(x,y), S2(y,z)")
        assert query.head == ("z", "y", "x")
        assert query.name == "q"

    def test_whitespace_tolerated(self):
        query = parse_query("  S1( x , y ) ,S2(y,z)  ")
        assert query.num_atoms == 2

    def test_primed_variables(self):
        query = parse_query("S1(x,x'), S2(x',y)")
        assert "x'" in query.head

    def test_malformed_head_rejected(self):
        with pytest.raises(QueryError, match="malformed head"):
            parse_query("q(x = S(x)")

    def test_malformed_body_rejected(self):
        with pytest.raises(QueryError, match="malformed body"):
            parse_query("S1(x,y), garbage")

    def test_missing_comma_rejected(self):
        with pytest.raises(QueryError, match="expected ','"):
            parse_query("S1(x,y) S2(y,z)")

    def test_empty_argument_rejected(self):
        with pytest.raises(QueryError, match="empty argument"):
            parse_query("S1(x,)")

    def test_empty_body_rejected(self):
        with pytest.raises(QueryError):
            parse_query("   ")
