"""Unit tests for the local CQ evaluator, incl. brute-force cross-check."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.families import cycle_query, line_query, star_query
from repro.core.query import parse_query
from repro.oracle import evaluate_query
from tests.conftest import exact_answers


def brute_force(query, relations):
    """Reference implementation: enumerate all variable assignments."""
    domain = set()
    for rows in relations.values():
        for row in rows:
            domain.update(row)
    answers = set()
    variables = query.head
    for assignment in itertools.product(sorted(domain), repeat=len(variables)):
        binding = dict(zip(variables, assignment))
        if all(
            tuple(binding[v] for v in atom.variables)
            in {tuple(r) for r in relations.get(atom.name, ())}
            for atom in query.atoms
        ):
            answers.add(assignment)
    return tuple(sorted(answers))


class TestBasicJoins:
    def test_two_hop(self, two_hop):
        relations = {
            "S1": [(1, 2), (2, 3)],
            "S2": [(2, 5), (3, 6)],
        }
        assert evaluate_query(two_hop, relations) == (
            (1, 2, 5),
            (2, 3, 6),
        )

    def test_triangle(self, triangle):
        relations = {
            "S1": [(1, 2), (1, 3)],
            "S2": [(2, 3)],
            "S3": [(3, 1)],
        }
        assert evaluate_query(triangle, relations) == ((1, 2, 3),)

    def test_empty_relation_gives_no_answers(self, triangle):
        relations = {"S1": [(1, 2)], "S2": [], "S3": [(3, 1)]}
        assert evaluate_query(triangle, relations) == ()

    def test_missing_relation_treated_as_empty(self, triangle):
        assert evaluate_query(triangle, {"S1": [(1, 2)]}) == ()

    def test_head_order_respected(self):
        query = parse_query("q(z,x) = S(x,z)")
        assert evaluate_query(query, {"S": [(1, 2)]}) == ((2, 1),)


class TestRepeatedVariables:
    def test_repeated_variable_acts_as_selection(self):
        query = parse_query("q(x,y) = S(x,x,y)")
        relations = {"S": [(1, 1, 5), (1, 2, 6), (3, 3, 7)]}
        assert evaluate_query(query, relations) == ((1, 5), (3, 7))

    def test_contracted_query_evaluates(self):
        from repro.core.characteristic import contract

        contracted = contract(cycle_query(3), ["S1"])
        # S2(x2,x3), S3(x3,x1) with x1 == x2 (merged): answers are
        # pairs forming a 2-cycle through the merged variable.
        relations = {
            "S2": [(1, 2), (2, 1)],
            "S3": [(2, 1), (1, 2)],
        }
        answers = evaluate_query(contracted, relations)
        assert answers  # (1,2) -> S2(1,2), S3(2,1): merged var 1


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "query",
        [
            line_query(2),
            line_query(3),
            cycle_query(3),
            star_query(2),
            parse_query("R(x,y), S(y,z), T(y,w)"),
        ],
        ids=["L2", "L3", "C3", "T2", "branch"],
    )
    def test_random_small_instances(self, query):
        rng = random.Random(17)
        for trial in range(5):
            relations = {
                atom.name: [
                    tuple(rng.randint(1, 4) for _ in range(atom.arity))
                    for _ in range(6)
                ]
                for atom in query.atoms
            }
            assert evaluate_query(query, relations) == brute_force(
                query, relations
            )

    def test_ternary_atoms(self):
        query = parse_query("R(x,y,z), S(z,w)")
        rng = random.Random(23)
        relations = {
            "R": [
                (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
                for _ in range(8)
            ],
            "S": [
                (rng.randint(1, 3), rng.randint(1, 3)) for _ in range(8)
            ],
        }
        assert evaluate_query(query, relations) == brute_force(
            query, relations
        )


class TestMatchingSemantics:
    def test_line_query_on_matchings_has_n_answers(self, chain4, chain4_db):
        answers = exact_answers(chain4, chain4_db)
        assert len(answers) == chain4_db.domain_size

    def test_answers_are_keys(self, chain4, chain4_db):
        """On matching inputs every attribute of the output is a key."""
        answers = exact_answers(chain4, chain4_db)
        for position in range(len(chain4.head)):
            column = [row[position] for row in answers]
            assert len(set(column)) == len(column)
