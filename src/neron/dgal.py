"""Connections of small rank on the line over R and their triviality levels.

A connection is stored by its matrix A in a chosen frame, with the action
of the derivation on the frame being minus A.  Triviality modulo pi^(n+1)
means an invertible polynomial frame change g with dg/dx = g*A at that
precision.  Mod pi such a g is x^m times the identity, and the balance
m*x^(m-1)*I - x^m*A0 with A0 = A mod pi vanishes only when A0 = (m/x)*I,
so A0 fixes m.  The rest of g solves an exact linear system over Q in its
pi-divisible coefficients, and that system is triangular in pi: layer p
of g is fixed by the lower layers up to its constants x^m*pi^p, which are
free, and the balance rows no coefficient of layer p absorbs constrain
them.  So the gauge is lifted one power of pi at a time, and the printed
gauge is the solution Gauss-Jordan elimination gives with its free
unknowns zero.  Only a level whose constraints are inconsistent runs the
elimination, to name the balance equations that contradict each other.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ShapeMismatch
from .linalg import canonical_point, solve_tracked
from .report import Report
from .ring import Scalar, format_scalar, quotient

AFFINE = "affine-line"
PUNCTURED = "punctured-line"


class LaurentPoly:
    """Polynomial in x and 1/x with coefficients in Q[pi]."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        out = {}
        for e, c in (coeffs or {}).items():
            s = c if isinstance(c, Scalar) else Scalar.from_rational(c)
            if not s.is_zero():
                out[e] = s
        self.coeffs = out

    @classmethod
    def x_power(cls, e: int, c=1) -> "LaurentPoly":
        return cls({e: c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Scalar()) + c
        return LaurentPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = LaurentPoly({0: other})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, Scalar()) + c1 * c2
        return LaurentPoly(out)

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly({e - 1: c * e for e, c in self.coeffs.items() if e})

    def truncate_pi(self, n: int) -> "LaurentPoly":
        """Reduce modulo pi^(n+1)."""
        return LaurentPoly({e: c.truncate(n) for e, c in self.coeffs.items()})

    def exponents(self):
        return sorted(self.coeffs)

    def coeff(self, e: int) -> Scalar:
        return self.coeffs.get(e, Scalar())


def format_laurent(f: LaurentPoly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for e in f.exponents():
        c = format_scalar(f.coeffs[e])
        if "+" in c or "-" in c[1:]:
            c = f"({c})"
        if e == 0:
            parts.append(c)
        else:
            x = "x" if e == 1 else f"x^{e}"
            if c == "1":
                parts.append(x)
            elif c == "-1":
                parts.append(f"-{x}")
            else:
                parts.append(f"{c}*{x}")
    return " + ".join(parts).replace("+ -", "- ")


class Connection:
    __slots__ = ("base", "matrix")

    def __init__(self, base: str, matrix: list):
        if base not in (AFFINE, PUNCTURED):
            raise ShapeMismatch(f"unknown base {base!r}")
        r = len(matrix)
        if r == 0:
            raise ShapeMismatch("connection matrix must have rank at least 1")
        rows = []
        for row in matrix:
            if len(row) != r:
                raise ShapeMismatch("connection matrix must be square")
            rows.append([e if isinstance(e, LaurentPoly) else LaurentPoly({0: e})
                         for e in row])
        self.base = base
        self.matrix = rows
        if base == AFFINE:
            for row in rows:
                for e in row:
                    if e.coeffs and e.exponents()[0] < 0:
                        raise ShapeMismatch(
                            "affine-line connection entries cannot involve 1/x")

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def x_degree(self) -> int:
        degs = [abs(e) for row in self.matrix for f in row for e in f.exponents()]
        return max(degs) if degs else 0

    def is_zero(self) -> bool:
        return all(f.is_zero() for row in self.matrix for f in row)


def _zero_matrix(r: int):
    return [[LaurentPoly() for _ in range(r)] for _ in range(r)]


def _identity_matrix(r: int):
    out = _zero_matrix(r)
    for i in range(r):
        out[i][i] = LaurentPoly({0: 1})
    return out


def formal_solution(c: Connection, order: int):
    """Truncated fundamental series Y with Y(0) = identity and Y' = -A*Y.

    Coefficients are exact; only the affine line has a formal solution at
    the origin.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if c.base != AFFINE:
        raise ShapeMismatch("formal solutions are taken at the origin of the "
                            "affine line")
    r = c.rank
    layers = [_identity_matrix(r)]
    for m in range(order):
        nxt = _zero_matrix(r)
        for i in range(r):
            for j in range(r):
                acc = LaurentPoly()
                for k in range(r):
                    for e, coef in c.matrix[i][k].coeffs.items():
                        if 0 <= m - e < len(layers):
                            acc = acc + layers[m - e][k][j] * coef
                nxt[i][j] = -acc * quotient(1, m + 1)
        layers.append(nxt)
    out = _zero_matrix(r)
    for m, layer in enumerate(layers):
        xm = LaurentPoly.x_power(m)
        for i in range(r):
            for j in range(r):
                out[i][j] = out[i][j] + layer[i][j] * xm
    return out


class TrivialityEntry:
    __slots__ = ("level", "trivial", "gauge", "obstruction")

    def __init__(self, level: int, trivial: bool, gauge: list = None, obstruction: list = None):
        self.level = level
        self.trivial = trivial
        self.gauge = gauge
        self.obstruction = [] if obstruction is None else obstruction


class TrivialityReport:
    __slots__ = ("connection", "levels")

    def __init__(self, connection: Connection, levels: dict = None):
        self.connection = connection
        self.levels = {} if levels is None else levels

    def trivial_through(self) -> int:
        """Largest n with every level <= n trivial; -1 when even level 0 fails."""
        n = -1
        while (n + 1) in self.levels and self.levels[n + 1].trivial:
            n += 1
        return n


def default_degree_bound(c: Connection, n: int) -> int:
    return 2 * (n + 1) * max(1, c.x_degree())


def _balance_rows(c: Connection, n: int, window, m: int):
    """Linear system for dg/dx = g*A mod pi^(n+1) with the mod-pi part of
    g frozen to x^m times the identity.

    Unknowns are the rational coefficients of x^d*pi^p (p >= 1) in each
    entry of g; rows are labelled balance coefficients.
    """
    r = c.rank
    unknowns = [(i, j, d, p)
                for i in range(r) for j in range(r)
                for d in window for p in range(1, n + 1)]
    index = {u: t for t, u in enumerate(unknowns)}

    rows = {}

    def emit(i, j, d, p, col, val):
        if p <= n and val:
            row = rows.setdefault((i, j, d, p), {})
            row[col] = row[col] + val if col in row else val

    # each term x^d*pi^p of entry (i, k) of g: an unknown, or the frozen
    # x^m of the identity (col None); it adds to dg/dx and to -g*A
    terms = list(index.items()) + [((i, i, m, 0), None) for i in range(r)]
    for (i, k, d, p), col in terms:
        emit(i, k, d - 1, p, col, d)
        for j in range(r):
            for e, cf in c.matrix[k][j].coeffs.items():
                for q, val in cf.coeffs.items():
                    emit(i, j, d + e, p + q, col, -val)
    return unknowns, rows


def _contradiction(c: Connection, n: int, window, m: int):
    """The labels of the balance rows that Gauss-Jordan combines into
    0 = 1, at a level the lift found failing.  Which rows combine depends
    on the pivot rule, so the elimination runs for them."""
    unknowns, rows = _balance_rows(c, n, window, m)
    keys = sorted(rows)
    matrix = [rows[key] for key in keys]
    rhs = [-row.pop(None, 0) for row in matrix]  # the frozen x^m's part
    labels = [f"entry ({i + 1},{j + 1}), coefficient of x^{d}*pi^{p}"
              for i, j, d, p in keys]
    return solve_tracked(matrix, rhs, labels, len(unknowns))[1]


def _lift(c: Connection, n: int, window, m: int):
    """The gauge Gauss-Jordan finds for _balance_rows' system, built one
    power of pi at a time, or None when the system is inconsistent.

    With g = x^m*I + sum_p pi^p*g_p and A = (m/x)*I + sum_q pi^q*A_q, the
    pi^p part of dg/dx - g*A is g_p' - (m/x)*g_p - R_p, where
    R_p = sum_{q=1..p} g_(p-q)*A_q involves only lower layers.  At x^(d-1)
    it reads (d - m)*c_(p,d) = [x^(d-1)] R_p entry by entry, so each
    coefficient of g_p is an affine form in the constants c_(p',m),
    p' <= p, which are free; the rows at x^(m-1), and those whose d falls
    outside the window, are constraints on them.  `canonical_point` then
    picks the solution with Gauss-Jordan's free unknowns zero.
    """
    r, lo = c.rank, window.start
    width = r * r * len(window) * n  # the number of unknowns
    a = [[] for _ in range(n + 1)]  # q -> (k, j, x exponent, rational) of A_q
    for k, row in enumerate(c.matrix):
        for j, f in enumerate(row):
            for e, cf in f.coeffs.items():
                for q, val in cf.coeffs.items():
                    if 0 < q <= n:
                        a[q].append((k, j, e, val))

    def column(i, j, d, p):  # _balance_rows' numbering of the unknowns
        return ((i * r + j) * len(window) + d - lo) * n + p - 1

    one = -1  # an affine form's constant term, among the constants' columns
    # layer p -> (i, j) -> x exponent -> affine form {column or one: rational}
    g = [{(i, i): {m: {one: 1}} for i in range(r)}]
    constraints = []
    for p in range(1, n + 1):
        rp = {}  # (i, j, x exponent) -> affine form of R_p's coefficient
        for q in range(1, p + 1):
            lower = g[p - q]
            for k, j, e, val in a[q]:
                for i in range(r):
                    for d, form in lower.get((i, k), {}).items():
                        acc = rp.setdefault((i, j, d + e), {})
                        for t, v in form.items():
                            acc[t] = acc.get(t, 0) + val * v
        layer = {(i, j): {m: {column(i, j, m, p): 1}}
                 for i in range(r) for j in range(r)}
        for (i, j, e), form in rp.items():
            form = {t: v for t, v in form.items() if v}
            if not form:
                continue
            d = e + 1
            if d != m and d in window:
                layer[i, j][d] = {t: quotient(v, d - m) for t, v in form.items()}
            elif one in form and len(form) == 1:  # 0 = a nonzero constant
                return None
            else:
                constraints.append(form)
        g.append(layer)
    # one vector per free constant and one for the constant terms: its
    # value in every unknown's column, then in each constraint's
    vectors = {}
    for p in range(1, n + 1):
        for (i, j), entry in g[p].items():
            for d, form in entry.items():
                k = column(i, j, d, p)
                for t, v in form.items():
                    vectors.setdefault(t, {})[k] = v
    for s, form in enumerate(constraints, width):
        for t, v in form.items():
            vectors.setdefault(t, {})[s] = v
    base = vectors.pop(one, {})
    point = canonical_point(base, vectors.values(), width)
    if point is None:
        return None
    gauge = [[{m: {0: 1}} if i == j else {} for j in range(r)]
             for i in range(r)]
    for k, v in point.items():
        k, p = divmod(k, n)
        k, d = divmod(k, len(window))
        i, j = divmod(k, r)
        gauge[i][j].setdefault(d + lo, {})[p + 1] = v
    return [[LaurentPoly({d: Scalar(cf) for d, cf in entry.items()})
             for entry in row] for row in gauge]


def triviality_mod(c: Connection, n: int,
                   degree_bound: int = None) -> TrivialityEntry:
    """Search for an invertible gauge trivializing the connection mod pi^(n+1).

    The mod-pi part of the gauge must be a unit of the coefficient ring:
    the identity matrix on the affine line, and x^m times the identity on
    the punctured line.  The unknown coefficients all carry pi, so mod pi
    the balance dg/dx - g*A is m*x^(m-1)*I - x^m*A0 with A0 = A mod pi,
    which vanishes exactly when A0 = (m/x)*I.  So m is read off A0 (0 when
    A0 = 0), and when no integer m within the degree bound fits, the pi^0
    coefficients of A are the obstruction.

    At that m, `_lift` builds the gauge layer by layer in pi, with the
    coefficients of x^d*pi^p for d in the window; the level is trivial
    exactly when its constraints are consistent.  Of the gauges the
    window allows it returns the one Gauss-Jordan finds on the balance
    system with its unknowns ordered (i, j, d, p) and the free ones zero.
    Only when the level fails is that system built and eliminated, and
    the rows it combines into 0 = 1 are the obstruction.  The search is
    exact within the window, so for rank 1 a failure yields a genuine
    obstruction certificate at this bound.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    if degree_bound is not None and degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    bound = default_degree_bound(c, n) if degree_bound is None else degree_bound
    window = range(0 if c.base == AFFINE else -bound, bound + 1)
    # A mod pi, as (i, j, e) -> the coefficient of x^e*pi^0 in entry (i, j)
    a0 = {(i, j, e): f.coeffs[e].coeffs[0]
          for i, row in enumerate(c.matrix) for j, f in enumerate(row)
          for e in f.exponents() if 0 in f.coeffs[e].coeffs}
    m = a0.get((0, 0, -1), 0)
    if a0 and (a0 != {(i, i, -1): m for i in range(c.rank)}
               or m.denominator != 1 or abs(m) > bound):
        return TrivialityEntry(n, False, None, [
            f"entry ({i + 1},{j + 1}), coefficient of x^{e}*pi^0"
            for i, j, e in a0])
    gauge = _lift(c, n, window, int(m))
    if gauge is None:
        return TrivialityEntry(n, False, None,
                               _contradiction(c, n, window, int(m)))
    return TrivialityEntry(n, True, gauge)


def _terms(f: LaurentPoly, n: int):
    """(x exponent, pi exponent, rational) for each term of f mod pi^(n+1)."""
    return [(e, p, v) for e, cf in f.coeffs.items()
            for p, v in cf.coeffs.items() if p <= n]


def check_gauge(c: Connection, entry: TrivialityEntry) -> bool:
    """Replay the horizontality identity dg/dx = g*A mod pi^(level+1),
    entry by entry; a product of a pi^p and a pi^q coefficient with
    p + q > level is never formed."""
    if not entry.trivial:
        return False
    n = entry.level
    a = [[_terms(f, n) for f in row] for row in c.matrix]
    for g_row in entry.gauge:
        g = [_terms(f, n) for f in g_row]
        for j in range(c.rank):
            bal = {}  # (x exponent, pi exponent) -> coefficient of dg/dx - g*A
            for d, p, v in g[j]:
                if d:
                    bal[d - 1, p] = bal.get((d - 1, p), 0) + d * v
            for k, g_terms in enumerate(g):
                for d, p, v in g_terms:
                    for e, q, w in a[k][j]:
                        if p + q <= n:
                            bal[d + e, p + q] = bal.get((d + e, p + q), 0) - v * w
            if any(bal.values()):
                return False
    return True


def galois_diagnostic(c: Connection, levels: int,
                      degree_bound: int = None) -> tuple:
    """Classify the blowup depth evidenced by triviality levels.

    Returns the per-level report plus a text verdict: a connection trivial
    at every tested level behaves like the full tower of identity blowups
    of its generic-fibre group; one trivial exactly below a threshold
    behaves like that many identity blowups.
    """
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    rep = TrivialityReport(c)
    verdict_rep = Report(f"triviality levels 0..{levels}")
    for n in range(levels + 1):
        entry = triviality_mod(c, n, degree_bound)
        rep.levels[n] = entry
        witness = ""
        if entry.trivial:
            witness = "gauge " + format_laurent(entry.gauge[0][0]) + (
                ", ..." if c.rank > 1 else "")
        elif entry.obstruction:
            witness = "no gauge: " + "; ".join(entry.obstruction)
        verdict_rep.add("trivial modulo pi^(n+1)", f"n = {n}", entry.trivial,
                        witness)
    through = rep.trivial_through()
    if c.is_zero():
        verdict = "the connection is zero: its differential Galois group is trivial"
    elif through >= levels:
        verdict = (f"trivial through level {levels}: consistent with the full "
                   "tower of identity blowups of the generic Galois group")
    elif through >= 0:
        verdict = (f"trivial exactly below level {through + 1}: consistent with "
                   f"{through + 1} identity blowup(s) of the generic Galois group")
    else:
        verdict = ("not trivial even modulo pi: the special fibre already "
                    "carries the full group")
    return rep, verdict_rep, verdict
