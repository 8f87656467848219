"""Independent verification routes used only by the tests.

Two deliberately different decision procedures double-check the library:
a degree-bounded linear solve over Q for ideal membership (no bases at
all), and a from-scratch Buchberger loop over the fraction field Q(pi)
in degree-lexicographic order (different coefficient field, different
order, different code) for identities that hold after inverting pi.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement


# dense polynomials over Q in one variable (pi)

def qp_trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def qp_add(a, b):
    n = max(len(a), len(b))
    return qp_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                    for i in range(n)])


def qp_neg(a):
    return tuple(-x for x in a)


def qp_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return qp_trim(out)


def qp_divmod(a, b):
    if not b:
        raise ZeroDivisionError
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if not a[-1]:
            a.pop()
            continue
        shift = len(a) - len(b)
        coef = a[-1] / b[-1]
        q[shift] = coef
        for i, y in enumerate(b):
            a[shift + i] -= coef * y
        a.pop()
    return qp_trim(q), qp_trim(a)


def qp_gcd(a, b):
    while b:
        a, b = b, qp_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = tuple(x / lead for x in a)
    return a


class RatFunc:
    """Element of Q(pi), kept with a monic denominator and no common factor."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(Fraction(1),)):
        num, den = qp_trim(num), qp_trim(den)
        if not den:
            raise ZeroDivisionError
        if not num:
            self.num, self.den = (), (Fraction(1),)
            return
        g = qp_gcd(num, den)
        if len(g) > 1:
            num = qp_divmod(num, g)[0]
            den = qp_divmod(den, g)[0]
        lead = den[-1]
        self.num = tuple(x / lead for x in num)
        self.den = tuple(x / lead for x in den)

    @classmethod
    def from_rational(cls, q):
        return cls((Fraction(q),))

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        return (isinstance(other, RatFunc)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        return RatFunc(qp_add(qp_mul(self.num, other.den),
                              qp_mul(other.num, self.den)),
                       qp_mul(self.den, other.den))

    def __neg__(self):
        return RatFunc(qp_neg(self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatFunc(qp_mul(self.num, other.num), qp_mul(self.den, other.den))

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError
        return RatFunc(qp_mul(self.num, other.den), qp_mul(self.den, other.num))

    def __repr__(self):
        return f"RatFunc({self.num}, {self.den})"


# polynomials over Q(pi) in deglex order

def _deglex_key(m):
    return (sum(m), m)


class KPoly:
    """Polynomial over Q(pi); monomials are plain exponent tuples."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        for m, c in (terms or {}).items():
            if not c.is_zero():
                self.terms[m] = c

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, RatFunc(())) + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return KPoly(self.nvars, out)

    def __sub__(self, other):
        return self + other.scale(RatFunc((Fraction(-1),)))

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(m, RatFunc(())) + c1 * c2
                if s.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = s
        return KPoly(self.nvars, out)

    def scale(self, c: RatFunc):
        return KPoly(self.nvars, {m: x * c for m, x in self.terms.items()})

    def lead(self):
        m = max(self.terms, key=_deglex_key)
        return m, self.terms[m]


def kpoly_from_library(f, drop_pi=True) -> KPoly:
    """Library Poly to a KPoly; the trailing pi exponent moves into the
    coefficient field."""
    n = len(f.ring.variables)
    terms = {}
    for mono, coeff in f.terms.items():
        m = mono[:-1]
        pi_part = [Fraction(0)] * mono[-1] + [Fraction(coeff)]
        c = RatFunc(pi_part)
        prev = terms.get(m)
        terms[m] = c if prev is None else prev + c
    return KPoly(n, terms)


def _mono_div(a, b):
    if all(x >= y for x, y in zip(a, b)):
        return tuple(x - y for x, y in zip(a, b))
    return None


def k_reduce(f: KPoly, basis) -> KPoly:
    out = KPoly(f.nvars, dict(f.terms))
    changed = True
    while changed and not out.is_zero():
        changed = False
        for m in sorted(out.terms, key=_deglex_key, reverse=True):
            for g in basis:
                gm, gc = g.lead()
                q = _mono_div(m, gm)
                if q is not None:
                    factor = KPoly(f.nvars, {q: out.terms[m] / gc})
                    out = out - factor * g
                    changed = True
                    break
            if changed:
                break
    return out


def k_groebner(gens, max_pairs=4000):
    basis = [g for g in gens if not g.is_zero()]
    pairs = list(combinations_with_replacement(range(len(basis)), 2))
    pairs = [(i, j) for i, j in pairs if i != j]
    seen = 0
    while pairs:
        i, j = pairs.pop(0)
        seen += 1
        if seen > max_pairs:
            raise RuntimeError("oracle basis budget exceeded")
        fi, fj = basis[i], basis[j]
        mi, ci = fi.lead()
        mj, cj = fj.lead()
        lcm = tuple(max(a, b) for a, b in zip(mi, mj))
        s = (fi * KPoly(fi.nvars, {_mono_div(lcm, mi): RatFunc((Fraction(1),)) / ci})
             - fj * KPoly(fj.nvars, {_mono_div(lcm, mj): RatFunc((Fraction(1),)) / cj}))
        r = k_reduce(s, basis)
        if not r.is_zero():
            basis.append(r)
            pairs.extend((t, len(basis) - 1) for t in range(len(basis) - 1))
    return basis


def in_ideal_K(f: KPoly, gens) -> bool:
    """Membership over the fraction field Q(pi): pi is invertible here."""
    live = [g for g in gens if not g.is_zero()]
    if not live:
        return f.is_zero()
    return k_reduce(f, k_groebner(live)).is_zero()


# degree-bounded membership by plain linear algebra over Q

def _monomials_upto(nslots, degree):
    out = []
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(nslots), total):
            m = [0] * nslots
            for i in combo:
                m[i] += 1
            out.append(tuple(m))
    return out


def solve_q(rows, rhs, width):
    """One solution of the exact rational system in `width` unknowns, or None.

    Sparse forward elimination: each equation, a dict {column: value} with
    its right-hand side in column `width`, is reduced by the stored pivot
    equations until its leading column is new, then stored under it.  An
    equation left with only the right-hand side is 0 = nonzero.  Back
    substitution sets the free unknowns to zero, so a system with no rows
    has the zero solution.
    """
    pivots = {}
    for row, b in zip(rows, rhs):
        eq = {c: Fraction(v) for c, v in enumerate(list(row) + [b]) if v}
        while eq:
            lead = min(eq)
            if lead not in pivots:
                break
            f = eq[lead]
            for c, v in pivots[lead].items():
                new = eq.get(c, 0) - f * v
                if new:
                    eq[c] = new
                else:
                    del eq[c]
        if not eq:
            continue
        if lead == width:
            return None
        scale = eq[lead]
        pivots[lead] = {c: v / scale for c, v in eq.items()}
    x = [Fraction(0)] * width
    for lead in sorted(pivots, reverse=True):
        eq = pivots[lead]
        x[lead] = eq.get(width, Fraction(0)) - sum(
            (v * x[c] for c, v in eq.items() if lead < c < width), Fraction(0))
    return x


def beta_conjugation_oracle(v, b, doubled) -> bool:
    """The doubling identity checked over Q(pi) with beta actually inverted.

    beta is pi^level on the diagonal with the identity in the upper-right
    block; here its explicit inverse is formed (denominators and all) and
    beta^-1 (v + 1) beta is reduced against the blown relations over the
    fraction field.  Nothing is shared with the library's route, which
    cross-multiplies over R instead of inverting.
    """
    blown = doubled.group
    r = v.size
    n = b.level
    one = RatFunc((Fraction(1),))
    pi_n = RatFunc([Fraction(0)] * n + [Fraction(1)])
    inv_n = one / pi_n
    nvars = len(blown.ring.variables)
    cmono = (0,) * nvars

    def const(c):
        return KPoly(nvars, {cmono: c})

    def entry(f):
        return kpoly_from_library(f)

    zero = KPoly(nvars)
    pulled = [[entry(b.projection.pullback(x)) for x in row] for row in v.entries]
    plain = [[pulled[i][j] if i < r and j < r else
              (const(one) if i == j else zero)
              for j in range(2 * r)] for i in range(2 * r)]
    beta = [[const(pi_n) if i == j else
             (const(one) if j == i + r else zero)
             for j in range(2 * r)] for i in range(2 * r)]
    beta_inv = [[const(inv_n) if i == j else
                 (const(-(inv_n * inv_n)) if j == i + r else zero)
                 for j in range(2 * r)] for i in range(2 * r)]

    def mul(a, c):
        size = len(a)
        return [[sum((a[i][k] * c[k][j] for k in range(size)), KPoly(nvars))
                 for j in range(size)] for i in range(size)]

    conj = mul(mul(beta_inv, plain), beta)
    rels = [entry(g) for g in blown.relations.generators]
    for i in range(2 * r):
        for j in range(2 * r):
            diff = conj[i][j] - entry(doubled.entries[i][j])
            if not in_ideal_K(diff, rels):
                return False
    return True


def membership_linear(f, gens, degree: int) -> bool:
    """Does f = sum h_i g_i with multiplier degree at most the bound?

    Works in the full slot space (ring variables plus pi) with exact
    rationals; no basis of any kind is computed.
    """
    nslots = len(f.ring.variables) + 1
    multipliers = _monomials_upto(nslots, degree)
    columns = []
    support = set(f.terms)
    for g in gens:
        for hm in multipliers:
            col = {}
            for gm, gc in g.terms.items():
                m = tuple(a + b for a, b in zip(hm, gm))
                col[m] = col.get(m, Fraction(0)) + gc
                support.add(m)
            columns.append(col)
    support = sorted(support)
    index = {m: i for i, m in enumerate(support)}
    rows = [[Fraction(0)] * len(columns) for _ in support]
    for j, col in enumerate(columns):
        for m, c in col.items():
            rows[index[m]][j] = c
    rhs = [f.terms.get(m, Fraction(0)) for m in support]
    return solve_q(rows, rhs, len(columns)) is not None
