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

The entries of A and of every gauge lie in R[x, 1/x], and each is a `Poly`
over `LINE`, the ring in x alone, keyed (x exponent, pi exponent) with the
x exponent possibly negative.  `Poly`'s arithmetic never reads an
exponent's sign, and no such polynomial reaches a Groebner basis.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ShapeMismatch
from .linalg import canonical_point, solve_tracked
from .matrix import mat_id, mat_zero
from .report import Report
from .ring import SCALARS, Poly, PolyRing, format_terms, quotient

AFFINE = "affine-line"
PUNCTURED = "punctured-line"


X = "x"
LINE = PolyRing((X,))  # R[x, 1/x]: the one ring whose x exponent may be negative


def format_laurent(f: Poly) -> str:
    """f's terms grouped by x exponent, lowest first, each group's
    coefficient in R printed by `format_terms` as `format_poly` would."""
    if not f.terms:
        return "0"
    coeffs = {}  # x exponent -> its coefficient's terms in R; both descending
    for (e, q), v in sorted(f.terms.items(), reverse=True):
        coeffs.setdefault(e, []).append(((q,), v))
    parts = []
    for e in reversed(coeffs):
        c = format_terms(SCALARS, coeffs[e])
        if "+" in c or "-" in c[1:]:
            c = f"({c})"
        if e == 0:
            parts.append(c)
        else:
            x = X if e == 1 else f"{X}^{e}"
            if c == "1":
                parts.append(x)
            elif c == "-1":
                parts.append(f"-{x}")
            else:
                parts.append(f"{c}*{x}")
    return " + ".join(parts).replace("+ -", "- ")


class Connection:
    """A connection matrix A, its entries `Poly`s over `LINE`, with
    `terms[k]` the terms x^e*pi^q of row k of A as (column j, e, q,
    rational), in x and then pi order."""

    __slots__ = ("base", "matrix", "terms")

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
            rows.append([e.in_ring(LINE) if isinstance(e, Poly) else LINE.scalar(e)
                         for e in row])
        self.base = base
        self.matrix = rows
        self.terms = [[(j, e, q, val) for j, f in enumerate(row)
                       for (e, q), val in sorted(f.terms.items())]
                      for row in rows]
        if base == AFFINE and any(e < 0 for row in self.terms for _, e, _, _ in row):
            raise ShapeMismatch("affine-line connection entries cannot involve 1/x")

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def x_degree(self) -> int:
        return max((abs(e) for row in self.terms for _, e, _, _ in row), default=0)

    def is_zero(self) -> bool:
        return not any(self.terms)


def formal_solution(c: Connection, order: int):
    """Truncated fundamental series Y with Y(0) = identity and Y' = -A*Y.

    Coefficients are exact; only the affine line has a formal solution at
    the origin.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if c.base != AFFINE:
        raise ValueError("formal solutions are taken at the origin of the "
                         "affine line")
    r = c.rank
    layers = [mat_id(SCALARS, r)]  # layer m: the coefficient matrix of x^m
    for m in range(order):
        nxt = mat_zero(SCALARS, r, r)
        for i, row in enumerate(c.terms):
            for k, e, q, val in row:
                if e <= m:
                    coef = SCALARS.pi(q).scale(quotient(-val, m + 1))
                    for j in range(r):
                        nxt[i][j] = nxt[i][j] + layers[m - e][k][j] * coef
        layers.append(nxt)
    return [[Poly(LINE, {(m, q): v for m, layer in enumerate(layers)
                         for (q,), v in layer[i][j].terms.items()})
             for j in range(r)] for i in range(r)]


TrivialityEntry = namedtuple("TrivialityEntry", "level trivial gauge obstruction",
                             defaults=(None, ()))


class TrivialityReport:
    __slots__ = ("levels",)

    def __init__(self):
        self.levels = {}

    def trivial_through(self) -> int:
        """Largest n with every level <= n trivial; -1 when even level 0 fails."""
        n = -1
        while (n + 1) in self.levels and self.levels[n + 1].trivial:
            n += 1
        return n


def default_degree_bound(c: Connection, n: int) -> int:
    return 2 * (n + 1) * max(1, c.x_degree())


def _balance(c: Connection, n: int, i: int, k: int, d: int, p: int):
    """(label, factor) for each coefficient of dg/dx - g*A mod pi^(n+1)
    that the term x^d*pi^p, p <= n, of entry (i, k) of g reaches: it adds
    factor times the term's coefficient to the coefficient of x^e*pi^q in
    entry (i, j), labelled (i, j, e, q)."""
    if d:
        yield (i, k, d - 1, p), d
    for j, e, q, val in c.terms[k]:
        if p + q <= n:
            yield (i, j, d + e, p + q), -val


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
    # each term x^d*pi^p of entry (i, k) of g: an unknown, or the frozen
    # x^m of the identity (col None)
    terms = list(index.items()) + [((i, i, m, 0), None) for i in range(r)]
    for (i, k, d, p), col in terms:
        for label, factor in _balance(c, n, i, k, d, p):
            row = rows.setdefault(label, {})
            row[col] = row[col] + factor if col in row else factor
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
    return solve_tracked(matrix, rhs, labels, len(unknowns))


def _lifts(c: Connection, windows: dict, m: int) -> dict:
    """For each level n of windows, a map level -> window, the gauge
    Gauss-Jordan finds for _balance_rows' system at n, or None when that
    system is inconsistent.  The layers in pi are built once, up to the
    top level and over its window, the widest: windows grow with the level.

    With g = x^m*I + sum_p pi^p*g_p and A = (m/x)*I + sum_q pi^q*A_q, the
    pi^p part of dg/dx - g*A is g_p' - (m/x)*g_p - R_p, where
    R_p = sum_{q=1..p} g_(p-q)*A_q involves only lower layers.  At x^(d-1)
    it reads (d - m)*c_(p,d) = [x^(d-1)] R_p entry by entry, so each
    coefficient of g_p is an affine form in the constants c_(p',m),
    p' <= p, which are free; a form names each by (i, j, p') and its
    constant term by None.  The rows at x^(m-1), and those whose d falls
    outside the widest window, are constraints on them.  Level n takes
    layers p <= n, and a coefficient whose d falls outside its own window
    is one more constraint: the terms it feeds into higher layers are
    multiples of that constraint, so the solution set is level n's.
    `canonical_point` then picks the solution with Gauss-Jordan's free
    unknowns zero, which depends only on that set and on the order of the
    unknowns; so a level numbers, in _balance_rows' order, only the
    unknowns some form gives a value, and every other one is zero.
    """
    r, top = c.rank, max(windows, default=0)
    # (k, j, e, q, rational) for each term x^e*pi^q, q >= 1, of entry (k, j) of A
    a = [(k, j, e, q, val)
         for k, row in enumerate(c.terms) for j, e, q, val in row if q]
    # layer p -> (i, j) -> x exponent -> affine form {(i, j, p') or None: rational}
    g = [{(i, i): {m: {None: 1}} for i in range(r)}]
    constraints = []  # (layer p, an affine form that must vanish)
    for p in range(1, top + 1):
        rp = {}  # (i, j, x exponent) -> affine form of R_p's coefficient
        for k, j, e, q, val in a:
            if q <= p:
                for i in range(r):
                    for d, form in g[p - q].get((i, k), {}).items():
                        acc = rp.setdefault((i, j, d + e), {})
                        for t, v in form.items():
                            acc[t] = acc.get(t, 0) + val * v
        layer = {(i, j): {m: {(i, j, p): 1}} for i in range(r) for j in range(r)}
        for (i, j, e), form in rp.items():
            form = {t: v for t, v in form.items() if v}
            if not form:
                continue
            d = e + 1
            if d != m and d in windows[top]:
                layer[i, j][d] = {t: quotient(v, d - m) for t, v in form.items()}
            else:
                constraints.append((p, form))
        g.append(layer)
    gauges = dict.fromkeys(windows)  # level -> gauge, or None
    for n, window in windows.items():
        cells, rows = {}, [form for p, form in constraints if p <= n]
        for p in range(1, n + 1):
            for (i, j), entry in g[p].items():
                for d, form in entry.items():
                    if d in window:
                        cells[i, j, d, p] = form
                    else:  # a constraint at this level
                        rows.append(form)
        # one vector per free constant and one for the constant terms: its
        # value at each unknown, in _balance_rows' order, then at each constraint
        names = sorted(cells)
        vectors = {}
        for k, form in enumerate([cells[u] for u in names] + rows):
            for t, v in form.items():
                vectors.setdefault(t, {})[k] = v
        point = canonical_point(vectors.pop(None, {}), vectors.values(), len(names))
        if point is None:
            continue
        gauge = [[{(m, 0): 1} if i == j else {} for j in range(r)]
                 for i in range(r)]
        for k, v in point.items():
            i, j, d, p = names[k]
            gauge[i][j][d, p] = v
        gauges[n] = [[Poly(LINE, entry) for entry in row] for row in gauge]
    return gauges


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

    At that m, `_lifts` builds the gauge layer by layer in pi, with the
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
    return next(_levels(c, (n,), degree_bound))


def _levels(c: Connection, levels, degree_bound: int):
    """`triviality_mod`'s entry for each level of levels, in turn, from one
    lift."""
    if degree_bound is not None and degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    # A mod pi, as (i, j, e) -> the coefficient of x^e*pi^0 in entry (i, j)
    a0 = {(i, j, e): val
          for i, row in enumerate(c.terms) for j, e, q, val in row if not q}
    m = a0.get((0, 0, -1), 0)
    fits = not a0 or (a0 == {(i, i, -1): m for i in range(c.rank)}
                      and m.denominator == 1)
    windows = {}
    for n in levels:
        bound = default_degree_bound(c, n) if degree_bound is None else degree_bound
        if fits and abs(m) <= bound:
            windows[n] = range(0 if c.base == AFFINE else -bound, bound + 1)
    gauges = _lifts(c, windows, int(m))
    for n in levels:
        if n not in windows:  # no shift m fits in this level's window
            yield TrivialityEntry(n, False, None, [
                f"entry ({i + 1},{j + 1}), coefficient of x^{e}*pi^0"
                for i, j, e in a0])
        elif gauges[n] is None:
            yield TrivialityEntry(n, False, None,
                                  _contradiction(c, n, windows[n], int(m)))
        else:
            yield TrivialityEntry(n, True, gauges[n])


def check_gauge(c: Connection, entry: TrivialityEntry) -> bool:
    """Replay the horizontality identity dg/dx = g*A mod pi^(level+1),
    entry by entry; a product of a pi^p and a pi^q coefficient with
    p + q > level is never formed."""
    if not entry.trivial:
        return False
    n = entry.level
    bal = {}  # (i, j, x exponent, pi exponent) -> coefficient of dg/dx - g*A
    for i, row in enumerate(entry.gauge):
        for k, f in enumerate(row):
            for (d, p), v in f.terms.items():
                if p <= n:
                    for label, factor in _balance(c, n, i, k, d, p):
                        bal[label] = bal.get(label, 0) + v * factor
    return not any(bal.values())


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
    rep = TrivialityReport()
    verdict_rep = Report(f"triviality levels 0..{levels}")
    for n, entry in enumerate(_levels(c, range(levels + 1), degree_bound)):
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
