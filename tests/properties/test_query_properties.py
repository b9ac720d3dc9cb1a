"""Property-based tests for query theory invariants (hypothesis)."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from repro.core.characteristic import characteristic, contract
from repro.core.covers import (
    _shape_key,
    covering_number,
    edge_packing_program,
    fractional_edge_packing,
    fractional_vertex_cover,
    is_fractional_edge_packing,
    is_fractional_vertex_cover,
    vertex_cover_program,
)
from repro.core.query import Atom, ConjunctiveQuery
from repro.core.shares import share_exponents


@st.composite
def connected_queries(draw):
    """Random connected binary queries grown atom by atom."""
    num_atoms = draw(st.integers(min_value=1, max_value=7))
    atoms = [Atom("S1", ("v0", "v1"))]
    variables = ["v0", "v1"]
    for index in range(2, num_atoms + 1):
        anchor = draw(st.sampled_from(variables))
        if draw(st.booleans()):
            other = f"v{len(variables)}"
            variables.append(other)
        else:
            other = draw(st.sampled_from(variables))
        atoms.append(Atom(f"S{index}", (anchor, other)))
    return ConjunctiveQuery(atoms)


class TestCoveringInvariants:
    @given(connected_queries())
    @settings(max_examples=50, deadline=None)
    def test_tau_star_at_least_one(self, query):
        assert covering_number(query) >= 1

    @given(connected_queries())
    @settings(max_examples=50, deadline=None)
    def test_space_exponent_in_unit_interval(self, query):
        eps = 1 - 1 / covering_number(query)
        assert 0 <= eps < 1

    @given(connected_queries())
    @settings(max_examples=40, deadline=None)
    def test_optimal_solutions_feasible(self, query):
        cover = fractional_vertex_cover(query)
        packing = fractional_edge_packing(query)
        assert is_fractional_vertex_cover(query, cover)
        assert is_fractional_edge_packing(query, packing)
        assert sum(cover.values()) == sum(packing.values())

    @given(connected_queries())
    @settings(max_examples=40, deadline=None)
    def test_tau_monotone_under_subqueries(self, query):
        assume(query.num_atoms >= 2)
        names = [atom.name for atom in query.atoms]
        sub = query.subquery(names[:-1])
        assume(sub.is_connected)
        assert covering_number(sub) <= covering_number(query)

    @given(connected_queries())
    @settings(max_examples=40, deadline=None)
    def test_share_exponents_sum_to_one(self, query):
        exponents = share_exponents(query)
        assert sum(exponents.values()) == Fraction(1)
        assert all(value >= 0 for value in exponents.values())


def _distinct_names(draw, prefix, count):
    numbers = draw(
        st.lists(
            st.integers(min_value=0, max_value=10**6),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    return [f"{prefix}{number}" for number in numbers]


def _assert_equals_fresh_solve(query):
    cover = vertex_cover_program(query).solve()
    packing = edge_packing_program(query).solve()
    assert covering_number(query) == cover.objective
    assert fractional_vertex_cover(query) == cover.values
    assert list(fractional_vertex_cover(query)) == list(query.variables)
    assert fractional_edge_packing(query) == packing.values


class TestCoverMemo:
    """The shape memo answers exactly what a fresh solve would."""

    @given(connected_queries(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_renamed_and_permuted_queries_match_fresh_solves(
        self, query, data
    ):
        relations = dict(
            zip(
                (atom.name for atom in query.atoms),
                _distinct_names(data.draw, "R", query.num_atoms),
            )
        )
        variables = dict(
            zip(
                query.variables,
                _distinct_names(data.draw, "x", query.num_variables),
            )
        )
        atoms = tuple(
            Atom(
                relations[atom.name],
                tuple(variables[v] for v in atom.variables),
            )
            for atom in query.atoms
        )
        renamed = ConjunctiveQuery(
            atoms, head=tuple(variables[v] for v in query.variables)
        )
        permuted = ConjunctiveQuery(
            atoms, head=data.draw(st.permutations(renamed.variables))
        )
        # Fill the entry from the original names first, so the renamed
        # query (same shape key) is served by the memo.
        _assert_equals_fresh_solve(query)
        assert _shape_key(renamed) == _shape_key(query)
        _assert_equals_fresh_solve(renamed)
        _assert_equals_fresh_solve(permuted)


class TestCharacteristicInvariants:
    @given(connected_queries())
    @settings(max_examples=60, deadline=None)
    def test_chi_nonpositive(self, query):
        """Lemma 2.1(c)."""
        assert characteristic(query) <= 0

    @given(connected_queries(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_lemma_21_b_contraction(self, query, data):
        """chi(q/M) = chi(q) - chi(M) for random proper M."""
        assume(query.num_atoms >= 2)
        names = [atom.name for atom in query.atoms]
        m = data.draw(
            st.sets(
                st.sampled_from(names),
                min_size=1,
                max_size=len(names) - 1,
            )
        )
        m_chi = characteristic(query.subquery(m))
        contracted = contract(query, m)
        assert characteristic(contracted) == characteristic(query) - m_chi

    @given(connected_queries(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_lemma_21_d_contraction_monotone(self, query, data):
        """chi(q) <= chi(q/M) for any proper M (Lemma 2.1(d))."""
        assume(query.num_atoms >= 2)
        names = [atom.name for atom in query.atoms]
        m = data.draw(
            st.sets(
                st.sampled_from(names),
                min_size=1,
                max_size=len(names) - 1,
            )
        )
        assert characteristic(query) <= characteristic(contract(query, m))

    @given(connected_queries())
    @settings(max_examples=50, deadline=None)
    def test_expected_size_exponent_bounded(self, query):
        """1 + chi <= 1: a connected query has at most n expected
        answers on matching databases (its output columns are keys)."""
        assert 1 + characteristic(query) <= 1
