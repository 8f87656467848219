"""Connections on the line: formal solutions and triviality levels."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from neron import dgal
from neron.dgal import (AFFINE, LINE, PUNCTURED, Connection, TrivialityEntry,
                        check_gauge, default_degree_bound, formal_solution,
                        format_laurent, galois_diagnostic, triviality_mod)
from neron.errors import ShapeMismatch
from neron.parser import parse
from neron.ring import SCALARS, Poly
from oracles import solve_q

PI = SCALARS.pi()
RESIDUE = "entry ({},{}), coefficient of x^-1*pi^0"


def lp(pairs) -> Poly:
    """{x exponent: (pi exponent, rational)} as a Poly over LINE."""
    return Poly(LINE, {(e, p): q for e, (p, q) in pairs.items()})


def const(q, p=0) -> Poly:
    return lp({0: (p, q)})


def xp(e: int, c=1) -> Poly:
    """c*x^e over LINE; e may be negative."""
    return lp({e: (0, c)})


def derivative(f: Poly) -> Poly:
    return Poly(LINE, {(e - 1, p): c * e for (e, p), c in f.terms.items() if e})


def coeff(f: Poly, e: int) -> Poly:
    """The coefficient of x^e, in R."""
    return Poly(SCALARS, {(p,): c for (d, p), c in f.terms.items() if d == e})


def exp_conn(power=1) -> Connection:
    return Connection(AFFINE, [[SCALARS.pi(power)]])


def log_conn() -> Connection:
    return Connection(PUNCTURED, [[lp({-1: (1, 1)})]])


class TestLaurent:
    def test_arithmetic(self):
        x = xp(1)
        f = x * x + x * 2 + const(1)
        assert coeff(f, 2) == SCALARS.scalar(1)
        assert coeff(f, 1) == SCALARS.scalar(2)
        assert (f - f).is_zero()
        assert derivative(f) == x * 2 + const(2)

    def test_negative_exponents(self):
        inv = xp(-1)
        assert (inv * xp(1)) == const(1)
        assert derivative(inv) == xp(-2, -1)

    def test_format(self):
        assert format_laurent(const(1)) == "1"
        assert format_laurent(xp(1, -1)) == "-x"
        assert format_laurent(xp(2) + const(1, 1)) == "pi + x^2"
        assert format_laurent(xp(-1, 3)) == "3*x^-1"
        assert format_laurent(LINE.zero()) == "0"

    @given(st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=30, derandomize=True)
    def test_product_rule(self, a, b):
        f = xp(2, a) + const(1)
        g = xp(-1, b) + xp(1)
        lhs = derivative(f * g)
        rhs = derivative(f) * g + f * derivative(g)
        assert lhs == rhs


class TestConnection:
    def test_validation(self):
        with pytest.raises(ShapeMismatch):
            Connection("projective-line", [[0]])
        with pytest.raises(ShapeMismatch):
            Connection(AFFINE, [[0, 0]])
        with pytest.raises(ShapeMismatch):
            Connection(AFFINE, [[xp(-1)]])
        with pytest.raises(ShapeMismatch):
            Connection(AFFINE, [])
        ok = log_conn()
        assert ok.rank == 1
        assert not ok.is_zero()
        assert Connection(AFFINE, [[0]]).is_zero()

    def test_entry_coercion(self):
        c = Connection(AFFINE, [[0, 1], [PI, 0]])
        assert c.matrix[0][1] == const(1)
        assert c.matrix[1][0] == const(1, 1)

    def test_degree(self):
        c = Connection(AFFINE, [[xp(2) + const(1)]])
        assert c.x_degree() == 2
        assert log_conn().x_degree() == 1


class TestFormalSolution:
    def test_exponential_series(self):
        y = formal_solution(exp_conn(), 3)
        assert [[format_laurent(e) for e in row] for row in y] == [
            ["1 - pi*x + 1/2*pi^2*x^2 - 1/6*pi^3*x^3"]]

    def test_zero_connection(self):
        c = Connection(AFFINE, [[0, 0], [0, 0]])
        y = formal_solution(c, 4)
        assert [[format_laurent(e) for e in row] for row in y] == [
            ["1", "0"], ["0", "1"]]

    def test_nilpotent(self):
        c = Connection(AFFINE, [[0, 1], [0, 0]])
        y = formal_solution(c, 2)
        assert [[format_laurent(e) for e in row] for row in y] == [
            ["1", "-x"], ["0", "1"]]

    def test_punctured_rejected(self):
        with pytest.raises(ValueError):
            formal_solution(log_conn(), 2)

    def test_solution_satisfies_equation(self):
        # dY = -A Y holds through the truncation order, checked directly
        c = exp_conn()
        order = 4
        y = formal_solution(c, order)
        lhs = derivative(y[0][0])
        rhs = -(c.matrix[0][0] * y[0][0])
        assert ([coeff(lhs, e) for e in range(order)]
                == [coeff(rhs, e) for e in range(order)])
        assert min(e for e, _ in [*lhs.terms, *rhs.terms]) >= 0


class TestTriviality:
    def test_exponential_gauge(self):
        c = exp_conn()
        entry = triviality_mod(c, 3)
        assert entry.trivial
        expect = lp({k: (k, Fraction(1, [1, 1, 2, 6][k])) for k in range(4)})
        assert entry.gauge[0][0] == expect
        assert check_gauge(c, entry)

    def test_replay_reads_the_gauge_below_the_level(self, monkeypatch):
        c = exp_conn()
        entry = triviality_mod(c, 3)
        g = entry.gauge[0][0]

        def replay(extra):
            moved = TrivialityEntry(entry.level, entry.trivial, [[g + lp(extra)]],
                                    entry.obstruction)
            return check_gauge(c, moved)

        # the replay solves nothing
        for name in ("_balance_rows", "solve_tracked"):
            monkeypatch.setattr(dgal, name, None)
        assert replay({})
        # x^3*pi^3 changed: dg/dx gains 3*x^2*pi^3, g*pi only a pi^4 term
        assert not replay({3: (3, 1)})
        # the constants are free mod pi^4: pi^3 times pi is above the level
        assert replay({0: (3, 1)})
        # a term above the level is never read
        assert replay({2: (4, 5)})

    def test_logarithm_blocked_at_level_one(self):
        c = log_conn()
        level0 = triviality_mod(c, 0)
        assert level0.trivial
        assert format_laurent(level0.gauge[0][0]) == "1"
        level1 = triviality_mod(c, 1)
        assert not level1.trivial
        assert level1.obstruction == ["entry (1,1), coefficient of x^-1*pi^1"]

    def test_residue_shift_gauge(self):
        c = Connection(PUNCTURED, [[xp(-1, 3)]])
        entry = triviality_mod(c, 1, degree_bound=4)
        assert entry.trivial
        assert format_laurent(entry.gauge[0][0]) == "x^3"
        assert check_gauge(c, entry)

    @pytest.mark.parametrize("base, matrix, level, bound, expect", [
        (PUNCTURED, [[xp(-1, 5)]], 2, None, [["x^5"]]),
        # the shift 5 lies outside a window of 1 or 3
        (PUNCTURED, [[xp(-1, 5)]], 2, 1, [RESIDUE.format(1, 1)]),
        (PUNCTURED, [[xp(-1, 5)]], 2, 3, [RESIDUE.format(1, 1)]),
        # no integer shift for a residue of 1/2
        *[(PUNCTURED, [[xp(-1, Fraction(1, 2))]], n, None,
           [RESIDUE.format(1, 1)]) for n in range(3)],
        # a residue that is not scalar
        (PUNCTURED, [[xp(-1), 0], [0, xp(-1, 2)]], 1,
         None, [RESIDUE.format(1, 1), RESIDUE.format(2, 2)]),
        (PUNCTURED, [[0, xp(-1)], [0, 0]], 1, None,
         [RESIDUE.format(1, 2)]),
        (PUNCTURED, [[xp(-1, 3), PI], [0, xp(-1, 3)]], 1,
         None, [["x^3", "pi*x^4"], ["0", "x^3"]]),
        # the residue 2 passes mod pi, and the solve at shift 2 fails
        (PUNCTURED, [[xp(-1, 2) + lp({-1: (1, 1)})]], 1, None,
         ["entry (1,1), coefficient of x^1*pi^1"]),
        (AFFINE, [[const(1) + xp(1)]], 1, None,
         ["entry (1,1), coefficient of x^0*pi^0",
          "entry (1,1), coefficient of x^1*pi^0"]),
    ])
    def test_shift_read_off_a_mod_pi(self, base, matrix, level, bound, expect):
        c = Connection(base, matrix)
        entry = triviality_mod(c, level, degree_bound=bound)
        if isinstance(expect[0], list):
            assert entry.trivial
            assert [[format_laurent(e) for e in row]
                    for row in entry.gauge] == expect
            assert check_gauge(c, entry)
        else:
            assert not entry.trivial
            assert entry.obstruction == expect

    def test_nilpotent_rank_two(self):
        n = Connection(AFFINE, [[0, PI], [0, 0]])
        entry = triviality_mod(n, 2)
        assert entry.trivial
        assert [[format_laurent(e) for e in row] for row in entry.gauge] == [
            ["1", "pi*x"], ["0", "1"]]
        assert check_gauge(n, entry)

    def test_monotone_in_level(self):
        for c in (exp_conn(), exp_conn(2), log_conn()):
            levels = [triviality_mod(c, k).trivial for k in range(4)]
            assert levels == sorted(levels, reverse=True)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            triviality_mod(exp_conn(), -1)

    def test_default_bound(self):
        assert default_degree_bound(exp_conn(), 3) == 8
        assert default_degree_bound(log_conn(), 1) == 4

    def test_unknowns_that_no_equation_mentions(self):
        # at bound 0 the unknowns are the constants pi^p, and a zero
        # connection's balance has no equation, so every one is free
        c = Connection(AFFINE, [[0]])
        entry = triviality_mod(c, 2, degree_bound=0)
        assert entry.trivial
        assert format_laurent(entry.gauge[0][0]) == "1"
        assert check_gauge(c, entry)


def affine(rows) -> Connection:
    """The affine-line connection of a .grp block with this matrix."""
    matrix = ", ".join("[" + ", ".join(row) + "]" for row in rows)
    text = f"connection c {{ base: {AFFINE}; matrix: [{matrix}]; }}"
    return parse(text).connections["c"]


class TestFreeConstants:
    """Gauges in which Gauss-Jordan's solution gives the constants c*pi^p
    of the gauge nonzero values: a lift that set every constant to zero
    would print other gauges, which still replay.  Recorded from the
    full elimination."""

    @pytest.mark.parametrize("rows, level, expect", [
        ([["pi^3 - 2*pi"]], 3,
         [["(1/2*pi^2 + 1) - 2*pi*x + 2*pi^2*x^2 - 4/3*pi^3*x^3"]]),
        ([["0", "-2*pi^2 - 2*pi^3*x"],
          ["pi^2", "pi^3*x + (2*pi^2 + 3*pi)*x^2"]], 2,
         [["1", "-2*pi^2*x"],
          ["pi^2*x", "(-2/3*pi + 1) + pi*x^3 + 1/2*pi^2*x^6"]]),
    ])
    def test_recorded_gauge(self, rows, level, expect):
        c = affine(rows)
        entry = triviality_mod(c, level)
        assert entry.trivial
        assert [[format_laurent(e) for e in row]
                for row in entry.gauge] == expect
        assert check_gauge(c, entry)


# terms c*x^e*pi^q of a connection entry; the residue m/x is added apart
TERMS = st.tuples(st.sampled_from([1, -1, 2, -3, Fraction(1, 2)]),
                  st.integers(-1, 1), st.integers(1, 3))


@st.composite
def gauge_problems(draw):
    """(connection, shift m, level, degree bound): A mod pi is (m/x)*I, or
    zero on the affine line; a few connections are zero."""
    r = draw(st.sampled_from([1, 2, 3]))
    base = draw(st.sampled_from([AFFINE, PUNCTURED]))
    m = 0 if base == AFFINE else draw(st.sampled_from([0, -2, -1, 1, 2]))
    zero = draw(st.integers(0, 5)) == 0
    matrix = []
    for i in range(r):
        row = []
        for j in range(r):
            f = xp(-1, m if i == j else 0)
            for v, e, q in ([] if zero else draw(st.lists(TERMS, max_size=3))):
                if base == PUNCTURED or e >= 0:
                    f = f + lp({e: (q, v)})
            row.append(f)
        matrix.append(row)
    # drawn from the top, where the free constants interact; the default
    # bound grows with the level, so rank 3 systems stop at level 2
    top = 5 if r < 3 else 2
    level = top - draw(st.integers(0, top))
    bound = draw(st.sampled_from([None, 0, 1, 2, 3, 4]))
    return Connection(base, matrix), m, level, bound


class TestAgainstEliminationOracle:
    @given(problem=gauge_problems())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_same_verdict_and_gauge_as_the_balance_system(self, problem):
        c, m, n, bound = problem
        entry = triviality_mod(c, n, bound)
        if bound is None:
            bound = default_degree_bound(c, n)
        if abs(m) > bound:  # no gauge of shift m in the window
            assert not entry.trivial
            assert entry.obstruction == [RESIDUE.format(i + 1, i + 1)
                                         for i in range(c.rank)]
            return
        window = range(0 if c.base == AFFINE else -bound, bound + 1)
        unknowns, rows = dgal._balance_rows(c, n, window, m)
        keys = sorted(rows)
        dense = [[rows[key].get(t, 0) for t in range(len(unknowns))]
                 for key in keys]
        rhs = [-rows[key].get(None, 0) for key in keys]
        x = solve_q(dense, rhs, len(unknowns))
        assert entry.trivial == (x is not None)
        if x is None:
            row_of = {f"entry ({i + 1},{j + 1}), coefficient of x^{d}*pi^{p}": k
                      for k, (i, j, d, p) in enumerate(keys)}
            picked = [row_of[label] for label in entry.obstruction]
            assert solve_q([dense[k] for k in picked],
                           [rhs[k] for k in picked], len(unknowns)) is None
            return
        # Gauss-Jordan's gauge: x^m*I plus every solved x^d*pi^p, free
        # unknowns zero
        expect = [[xp(m) if i == j else LINE.zero() for j in range(c.rank)]
                  for i in range(c.rank)]
        for t, (i, j, d, p) in enumerate(unknowns):
            expect[i][j] = expect[i][j] + lp({d: (p, x[t])})
        assert entry.gauge == expect
        assert check_gauge(c, entry)


def balance_below(c: Connection, gauge, n: int) -> bool:
    """Whether every coefficient of dg/dx - g*A with pi exponent <= n is
    zero, from Laurent arithmetic on whole entries."""
    for i, row in enumerate(gauge):
        for j in range(c.rank):
            bal = derivative(row[j])
            for k, g in enumerate(row):
                bal = bal - g * c.matrix[k][j]
            if any(p <= n for _, p in bal.terms):
                return False
    return True


class TestReplayVerdicts:
    @given(problem=gauge_problems(), data=st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_a_moved_gauge_against_the_balance(self, problem, data):
        c, m, n, bound = problem
        entry = triviality_mod(c, n, bound)
        if not entry.trivial:
            return
        # one drawn term x^d*pi^p added to one entry, at most one level up
        i, j = (data.draw(st.integers(0, c.rank - 1)) for _ in range(2))
        low = 0 if c.base == AFFINE else m - 2
        d = data.draw(st.integers(low, m + 2))
        p = data.draw(st.integers(0, n + 1))
        v = data.draw(st.sampled_from([1, -2, Fraction(1, 3)]))
        gauge = [list(row) for row in entry.gauge]
        gauge[i][j] = gauge[i][j] + lp({d: (p, v)})
        moved = TrivialityEntry(n, True, gauge, ())
        assert check_gauge(c, moved) == balance_below(c, gauge, n)


@st.composite
def narrowing_problems(draw):
    """(connection, top level, degree bound).  Under the default bound a
    low level's window is narrower than the top level's, and a coefficient
    that a layer p <= n has outside level n's window is a constraint of
    level n; the draws favour that case: punctured connections whose
    shift lies near the level-0 bound, with positive x-powers that carry
    the layers past a low window."""
    r = draw(st.sampled_from([1, 1, 2]))
    base = draw(st.sampled_from([PUNCTURED, PUNCTURED, PUNCTURED, AFFINE]))
    deg = draw(st.integers(1, 2))
    m = 0
    if base == PUNCTURED:
        m = draw(st.integers(2 * deg, 4 * deg + 1))
        m *= draw(st.sampled_from([1, 1, 1, -1]))
    low = -1 if base == PUNCTURED else 0
    terms = st.tuples(st.sampled_from([1, -1, 2, Fraction(1, 2)]),
                      st.sampled_from([deg, *range(low, deg + 1)]),  # x^deg twice
                      st.integers(1, 2))
    matrix = []
    for i in range(r):
        row = []
        for j in range(r):
            f = xp(-1, m if i == j else 0)
            for v, e, q in draw(st.lists(terms, min_size=int(i == j), max_size=3)):
                f = f + lp({e: (q, v)})
            row.append(f)
        matrix.append(row)
    top = draw(st.integers(1, 5 if r == 1 else 3))
    bound = draw(st.sampled_from([None, None, None, 2, 5]))
    return Connection(base, matrix), top, bound


class TestOneLiftForEveryLevel:
    """`galois_diagnostic` lifts all its levels at once, over the top
    level's window, and `triviality_mod` lifts one level over its own:
    each level of a diagnosis must be the one-level search's entry."""

    @staticmethod
    def assert_levels_agree(c, top, bound):
        rep, _, _ = galois_diagnostic(c, top, bound)
        for n in range(top + 1):
            entry, alone = rep.levels[n], triviality_mod(c, n, bound)
            assert (entry.trivial, entry.gauge, entry.obstruction) == (
                alone.trivial, alone.gauge, alone.obstruction), n
        return rep

    @given(problem=narrowing_problems())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_diagnosis_agrees_with_each_level(self, problem):
        self.assert_levels_agree(*problem)

    @pytest.mark.parametrize("rows, top, trivial", [
        # at level 2 the window is [-6, 6], but layer 1 reaches x^7
        ("[[5/x + pi*x]]", 5, [False] * 6),
        # at level 1 the window is [-4, 4], but layer 1 reaches x^5
        ("[[4/x, pi], [0, 4/x]]", 2, [False, False, True]),
    ])
    def test_layer_outside_a_low_window(self, rows, top, trivial):
        text = f"connection c {{ base: {PUNCTURED}; matrix: {rows}; }}"
        c = parse(text).connections["c"]
        rep = self.assert_levels_agree(c, top, None)
        assert [rep.levels[n].trivial for n in range(top + 1)] == trivial


class TestDiagnostic:
    def test_full_tower(self):
        rep, verdict_rep, verdict = galois_diagnostic(exp_conn(), 5)
        assert verdict == ("trivial through level 5: consistent with the full "
                           "tower of identity blowups of the generic Galois group")
        assert rep.trivial_through() == 5
        assert [rep.levels[i].trivial for i in range(6)] == [True] * 6
        assert verdict_rep.ok
        assert verdict_rep.title == "triviality levels 0..5"

    def test_single_blowup(self):
        rep, verdict_rep, verdict = galois_diagnostic(log_conn(), 3)
        assert verdict == ("trivial exactly below level 1: consistent with 1 "
                           "identity blowup(s) of the generic Galois group")
        assert rep.trivial_through() == 0
        assert not verdict_rep.ok

    def test_zero_connection(self):
        c = Connection(AFFINE, [[0]])
        _, _, verdict = galois_diagnostic(c, 2)
        assert verdict == ("the connection is zero: its differential Galois "
                           "group is trivial")

    def test_full_group_on_fibre(self):
        # a unit residue obstruction already at level 0
        c = Connection(PUNCTURED, [[xp(-2)]])
        rep, _, verdict = galois_diagnostic(c, 1)
        assert verdict == ("not trivial even modulo pi: the special fibre "
                           "already carries the full group")
        assert rep.trivial_through() == -1
