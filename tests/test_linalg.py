"""Sparse exact elimination: solutions, inconsistency certificates, ranks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from neron.dgal import PUNCTURED, Connection, LaurentPoly, triviality_mod
from neron.linalg import independent_rows, solve, solve_tracked
from neron.ring import Scalar
from oracles import solve_q

# mostly zeros, as in the gauge systems
ENTRIES = st.sampled_from([Fraction(v) for v in
                           (0, 0, 0, 0, 0, 1, -1, 2, -3, Fraction(1, 2))])


@st.composite
def systems(draw):
    """A small sparse system, often with a row repeating a combination of
    two others under a fresh right-hand side, so both outcomes occur."""
    m = draw(st.integers(0, 6))
    w = draw(st.integers(1, 6))
    matrix = [[draw(ENTRIES) for _ in range(w)] for _ in range(m)]
    rhs = [draw(ENTRIES) for _ in range(m)]
    if m and draw(st.booleans()):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        matrix.append([a + 2 * b for a, b in zip(matrix[i], matrix[j])])
        rhs.append(draw(ENTRIES))
    return matrix, rhs


def satisfies(matrix, rhs, x):
    return all(sum((a * v for a, v in zip(row, x)), Fraction(0)) == b
               for row, b in zip(matrix, rhs))


class TestProperties:
    @given(system=systems())
    @settings(max_examples=300, derandomize=True)
    def test_solution_or_certificate(self, system):
        matrix, rhs = system
        status, payload = solve_tracked(matrix, rhs, list(range(len(matrix))))
        assert (status == "ok") == (solve_q(matrix, rhs) is not None)
        if status == "ok":
            assert satisfies(matrix, rhs, payload)
            assert solve(matrix, rhs) == payload
        else:
            assert payload == sorted(set(payload))
            assert solve_q([matrix[i] for i in payload],
                           [rhs[i] for i in payload]) is None
            assert solve(matrix, rhs) is None

    @given(system=systems())
    @settings(max_examples=200, derandomize=True)
    def test_independent_rows_is_the_greedy_choice(self, system):
        matrix, _ = system
        width = len(matrix[0]) if matrix else 0
        kept = independent_rows(matrix, width)
        for i, row in enumerate(matrix):
            earlier = [matrix[k] for k in kept if k < i]
            span = [[r[c] for r in earlier] for c in range(width)]
            assert (i in kept) == (solve_q(span, row) is None)


class TestEdgeCases:
    def test_empty_matrix(self):
        assert solve([], []) == []
        assert solve([], [1]) is None
        assert solve_tracked([], [], []) == ("ok", [])
        assert independent_rows([], 3) == []

    def test_all_zero_rows(self):
        assert solve([[0, 0], [0, 0]], [0, 0]) == [0, 0]
        assert solve([[0, 0], [0, 0]], [0, 1]) is None
        assert solve_tracked([[0, 0], [1, 0], [0, 0]], [0, 2, 5],
                             ["a", "b", "c"]) == ("inconsistent", ["c"])
        assert independent_rows([[0, 0], [1, 1], [0, 0]], 2) == [1]

    def test_zero_rhs(self):
        x = solve([[1, 2], [3, 4]], [0, 0])
        assert x == [0, 0] and all(isinstance(v, Fraction) for v in x)
        assert solve_tracked([[0, 1, 1]], [0], ["a"]) == ("ok", [0, 0, 0])

    def test_rank_deficient(self):
        assert solve([[1, 2], [2, 4]], [3, 6]) == [3, 0]
        assert solve([[0, 1, 1]], [2]) == [0, 2, 0]
        assert solve([[2, 4], [1, 2]], [Fraction(1, 3), Fraction(1, 6)]) == [
            Fraction(1, 6), 0]
        assert solve_tracked([[1, 2], [2, 4]], [3, 7],
                             ["p", "q"]) == ("inconsistent", ["p", "q"])
        assert solve_tracked([[0, 1], [1, 0], [1, 0]], [1, 1, 2],
                             ["a", "b", "c"]) == ("inconsistent", ["b", "c"])
        assert independent_rows([[1, 2], [2, 4], [0, 1], [1, 0]], 2) == [0, 2]


def lp(terms) -> LaurentPoly:
    """{x exponent: (pi exponent, rational)} as a Laurent polynomial."""
    return LaurentPoly({e: Scalar({p: Fraction(q)}) for e, (p, q) in terms.items()})


ZERO = LaurentPoly()
CONNECTIONS = {
    "pi^2/x+pi*x": [[lp({-1: (2, 1), 1: (1, 1)})]],
    "antidiagonal": [[ZERO, lp({-1: (1, 1)})], [lp({-1: (1, 1)}), ZERO]],
    # a fewest-nonzeros pivot rule reaches a different combination here
    "fewest-differs": [[lp({1: (2, 2)}), lp({-2: (1, 2), 0: (2, -1)})],
                       [lp({-2: (2, 1), 0: (1, -1)}), lp({0: (2, 1)})]],
    # and a last-row pivot rule here
    "last-differs": [[lp({-2: (2, 1), 1: (1, 2)}), lp({-1: (2, 2), 1: (2, -1)})],
                     [lp({-2: (2, 2), -1: (1, 1)}), lp({-2: (2, 3)})]],
}


def coeff(i, j, d, p):
    return f"entry ({i},{j}), coefficient of x^{d}*pi^{p}"


# Recorded with the dense elimination this module replaced; the label list
# is the row combination the pivot rule reaches, so it pins that rule.
@pytest.mark.parametrize("name,level,obstruction", [
    ("pi^2/x+pi*x", 2, [coeff(1, 1, -3, 1), coeff(1, 1, -1, 2)]),
    ("antidiagonal", 1, [coeff(1, 2, -1, 1)]),
    ("antidiagonal", 2, [coeff(2, 1, -1, 1)]),
    ("fewest-differs", 2, [coeff(1, 1, -1, 2), coeff(1, 2, -2, 1)]),
    ("last-differs", 2, [coeff(2, 1, -1, 1)]),
])
def test_pinned_obstructions(name, level, obstruction):
    entry = triviality_mod(Connection(PUNCTURED, CONNECTIONS[name]), level)
    assert not entry.trivial
    assert entry.obstruction == obstruction
