"""Sparse exact elimination: solutions, inconsistency certificates, ranks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from neron.dgal import LINE, PUNCTURED, Connection, triviality_mod
from neron.linalg import canonical_point, independent_rows, solve_tracked
from neron.ring import Poly
from oracles import solve_q

# mostly zeros, as in the gauge systems
ENTRIES = st.sampled_from([Fraction(v) for v in
                           (0, 0, 0, 0, 0, 1, -1, 2, -3, Fraction(1, 2))])


# unknowns past the last column a row may mention, which no row mentions
UNMENTIONED = st.integers(0, 2)


@st.composite
def systems(draw):
    """A small sparse system, often with a row repeating a combination of
    two others under a fresh right-hand side, so both outcomes occur."""
    m = draw(st.integers(0, 6))
    w = draw(st.integers(1, 6))
    pad = [0] * draw(UNMENTIONED)
    matrix = [[draw(ENTRIES) for _ in range(w)] + pad for _ in range(m)]
    rhs = [draw(ENTRIES) for _ in range(m)]
    if m and draw(st.booleans()):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        matrix.append([a + 2 * b for a, b in zip(matrix[i], matrix[j])])
        rhs.append(draw(ENTRIES))
    return matrix, rhs


BIG = 10 ** 15
WIDE_ENTRIES = st.sampled_from(
    [0] * 8 + [1, -1, 2, Fraction(1, 2), Fraction(2, 3), Fraction(-5, 7),
               BIG + 1, -BIG + 7, Fraction(BIG - 3, 7), Fraction(1, BIG)])
SCALES = st.sampled_from([1, -1, 3, Fraction(2, 3), Fraction(-5, 7), BIG])


@st.composite
def wide_systems(draw):
    """Systems with denominators, entries near 10^15 and rows that repeat
    combinations of others, anywhere in the row order, with either the
    combined or a fresh right-hand side."""
    m = draw(st.integers(0, 7))
    w = draw(st.integers(1, 7))
    pad = [0] * draw(UNMENTIONED)
    matrix = [[draw(WIDE_ENTRIES) for _ in range(w)] + pad for _ in range(m)]
    rhs = [draw(WIDE_ENTRIES) for _ in range(m)]
    for _ in range(draw(st.integers(0, 3)) if m else 0):
        i, j = (draw(st.integers(0, len(matrix) - 1)) for _ in range(2))
        s, t = draw(SCALES), draw(SCALES)
        at = draw(st.integers(0, len(matrix)))
        matrix.insert(at, [s * a + t * b for a, b in zip(matrix[i], matrix[j])])
        rhs.insert(at, s * rhs[i] + t * rhs[j] if draw(st.booleans())
                   else draw(WIDE_ENTRIES))
    return matrix, rhs


# -- reference: rational Gauss-Jordan, rows normalised over Q --------------

def ref_reduce(matrix, rhs, tracked):
    """(solution, []) or (None, the input rows combining to 0 = nonzero).
    Pivot of column c: the first remaining row, in current order."""
    width = len(matrix[0])
    rows = [[Fraction(x) for x in row] + [Fraction(b)]
            + ([Fraction(int(k == i)) for k in range(len(matrix))] if tracked else [])
            for i, (row, b) in enumerate(zip(matrix, rhs))]
    pivots = []
    for c in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    for row in rows[len(pivots):]:
        if row[width]:
            return None, [k for k, x in enumerate(row[width + 1:]) if x]
    x = [Fraction(0)] * width
    for row, c in zip(rows, pivots):
        x[c] = row[width]
    return x, []


def ref_solve_tracked(matrix, rhs):
    """(solution, None) or (None, the rows combining to 0 = nonzero)."""
    if not matrix:
        return [], None
    x, bad = ref_reduce(matrix, rhs, True)
    return (None, bad) if x is None else (x, None)


def ref_independent_rows(matrix, width):
    """Greedy: a row is kept when it is not in the span of the kept rows."""
    kept = []
    for i, row in enumerate(matrix):
        span = [[matrix[k][c] for k in kept] for c in range(width)]
        if ref_reduce(span, row[:width], False)[0] is None:
            kept.append(i)
    return kept


def sparse(matrix):
    """The rows of a dense matrix as the {column: value} dicts of their
    nonzero entries that the solver takes."""
    return [{c: x for c, x in enumerate(row) if x} for row in matrix]


def canonical_solution(rows, rhs, width):
    """`canonical_point` on A x = b written as base plus directions: the
    coordinates below width carry x, and coordinate width + r the residual
    of equation r, which the point must make zero.  So the point is
    Gauss-Jordan's solution with free unknowns zero, densely, or None."""
    base = {width + r: -b for r, b in enumerate(rhs)}
    directions = [{c: 1, **{width + r: row[c] for r, row in enumerate(rows)
                            if c in row}} for c in range(width)]
    point = canonical_point(base, directions, width)
    return None if point is None else [point.get(c, 0) for c in range(width)]


def satisfies(matrix, rhs, x):
    return all(sum((a * v for a, v in zip(row, x)), Fraction(0)) == b
               for row, b in zip(matrix, rhs))


class TestProperties:
    @given(system=systems())
    @settings(max_examples=300, derandomize=True)
    def test_solution_or_certificate(self, system):
        matrix, rhs = system
        width = len(matrix[0]) if matrix else 0
        bad = solve_tracked(sparse(matrix), rhs, list(range(len(matrix))), width)
        x = canonical_solution(sparse(matrix), rhs, width)
        assert (bad is None) == (solve_q(matrix, rhs, width) is not None)
        assert (bad is None) == (x is not None)
        if bad is None:
            assert satisfies(matrix, rhs, x)
        else:
            assert bad == sorted(set(bad))
            assert solve_q([matrix[i] for i in bad],
                           [rhs[i] for i in bad], width) is None

    @given(system=systems())
    @settings(max_examples=200, derandomize=True)
    def test_independent_rows_is_the_greedy_choice(self, system):
        matrix, _ = system
        width = len(matrix[0]) if matrix else 0
        kept = independent_rows(sparse(matrix))
        for i, row in enumerate(matrix):
            earlier = [matrix[k] for k in kept if k < i]
            span = [[r[c] for r in earlier] for c in range(width)]
            assert (i in kept) == (solve_q(span, row, len(earlier)) is None)


@st.composite
def affine_spans(draw):
    """(base, directions, width): a point and spanning vectors in width
    columns plus up to three coordinates beyond, often with a direction
    repeating a combination of two others."""
    width = draw(st.integers(1, 5))
    dims = width + draw(st.integers(0, 3))
    vector = st.lists(ENTRIES, min_size=dims, max_size=dims)
    directions = draw(st.lists(vector, max_size=4))
    if len(directions) > 1 and draw(st.booleans()):
        directions.append([a - 2 * b for a, b in zip(*directions[:2])])
    return draw(vector), directions, width


def spanned(directions, target):
    """Whether target is a combination of the directions (solve_q on the
    coefficients of the combination)."""
    rows = [[v[k] for v in directions] for k in range(len(target))]
    return solve_q(rows, target, len(directions)) is not None


class TestCanonicalPoint:
    @given(problem=affine_spans())
    @settings(max_examples=300, derandomize=True)
    def test_the_point_the_definition_names(self, problem):
        base, directions, width = problem
        dims = len(base)
        point = canonical_point(sparse([base])[0], sparse(directions), width)
        # some point of base + span is zero beyond width
        beyond = [[v[k] for v in directions] for k in range(width, dims)]
        reachable = spanned([v[width:] for v in directions],
                            [-x for x in base[width:]]) if beyond else True
        assert (point is not None) == reachable
        if point is None:
            return
        assert all(k < width and x for k, x in point.items())
        y = [point.get(k, 0) for k in range(dims)]
        assert spanned(directions, [a - b for a, b in zip(y, base)])
        # zero wherever a vector of the span has its last nonzero entry
        for f in range(dims):
            tail = [v[f:] for v in directions]
            if spanned(tail, [1] + [0] * (dims - f - 1)):
                assert y[f] == 0

    def test_matches_gauss_jordan_on_a_parametrized_system(self):
        # x0 + x1 + x2 = 1 and x1 - x2 = 0: the points (1 - 2t, t, t) read
        # as x0 = 1 plus a direction; Gauss-Jordan leaves x2 free
        assert ref_reduce([[1, 1, 1], [0, 1, -1]], [1, 0], False)[0] == [1, 0, 0]
        assert canonical_solution(sparse([[1, 1, 1], [0, 1, -1]]), [1, 0],
                                  3) == [1, 0, 0]
        assert canonical_point({0: 1}, [{0: -2, 1: 1, 2: 1}], 3) == {0: 1}
        assert canonical_point({0: -1, 1: 1, 2: 1}, [{0: -2, 1: 1, 2: 1}],
                               3) == {0: 1}
        # a coordinate beyond width that no direction reaches
        assert canonical_point({3: 1}, [{0: 1}], 3) is None
        assert canonical_point({0: 1, 3: 2}, [{1: 1, 3: 4}], 3) == {
            0: 1, 1: Fraction(-1, 2)}


class TestAgainstRationalReference:
    @given(system=wide_systems())
    @settings(max_examples=400, derandomize=True)
    def test_same_results_as_rational_elimination(self, system):
        matrix, rhs = system
        x, bad = ref_solve_tracked(matrix, rhs)
        width = len(matrix[0]) if matrix else 0
        assert solve_tracked(sparse(matrix), rhs, list(range(len(matrix))),
                             width) == bad
        assert canonical_solution(sparse(matrix), rhs, width) == x
        assert independent_rows(sparse(matrix)) == ref_independent_rows(
            matrix, width)


class TestEdgeCases:
    def test_empty_matrix(self):
        assert canonical_solution([], [], 0) == []
        assert canonical_solution([], [1], 0) is None
        assert canonical_point({}, [], 0) == {}
        assert solve_tracked([], [], [], 0) is None
        assert independent_rows([]) == []

    def test_all_zero_rows(self):
        assert canonical_solution(sparse([[0, 0], [0, 0]]), [0, 0], 2) == [0, 0]
        assert canonical_solution(sparse([[0, 0], [0, 0]]), [0, 1], 2) is None
        assert solve_tracked(sparse([[0, 0], [0, 0]]), [0, 0], ["a", "b"], 2) is None
        assert solve_tracked(sparse([[0, 0], [1, 0], [0, 0]]), [0, 2, 5],
                             ["a", "b", "c"], 2) == ["c"]
        assert independent_rows(sparse([[0, 0], [1, 1], [0, 0]])) == [1]

    def test_zero_rhs(self):
        x = canonical_solution(sparse([[1, 2], [3, 4]]), [0, 0], 2)
        assert x == ref_reduce([[1, 2], [3, 4]], [0, 0], False)[0]
        assert all(type(v) in (int, Fraction) for v in x)
        assert canonical_solution(sparse([[0, 1, 1]]), [0], 3) == [0, 0, 0]
        assert solve_tracked(sparse([[0, 1, 1]]), [0], ["a"], 3) is None

    def test_rank_deficient(self):
        assert canonical_solution(sparse([[1, 2], [2, 4]]), [3, 6], 2) == [3, 0]
        assert canonical_solution(sparse([[0, 1, 1]]), [2], 3) == [0, 2, 0]
        assert canonical_solution(sparse([[2, 4], [1, 2]]),
                                  [Fraction(1, 3), Fraction(1, 6)],
                                  2) == [Fraction(1, 6), 0]
        assert solve_tracked(sparse([[1, 2], [2, 4]]), [3, 6], ["p", "q"], 2) is None
        assert solve_tracked(sparse([[1, 2], [2, 4]]), [3, 7],
                             ["p", "q"], 2) == ["p", "q"]
        assert solve_tracked(sparse([[0, 1], [1, 0], [1, 0]]), [1, 1, 2],
                             ["a", "b", "c"], 2) == ["b", "c"]
        assert independent_rows(sparse([[1, 2], [2, 4], [0, 1], [1, 0]])) == [0, 2]


def lp(terms) -> Poly:
    """{x exponent: (pi exponent, rational)} as a Poly over LINE."""
    return Poly(LINE, {(e, p): q for e, (p, q) in terms.items()})


ZERO = LINE.zero()
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
