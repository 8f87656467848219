"""Exact arithmetic layer: the base ring Q[pi], multivariate polynomials, substitutions.

The uniformiser pi is not a ring variable.  Every monomial carries a trailing
pi exponent slot, so a polynomial in variables (u, v) stores terms keyed by
(e_u, e_v, e_pi).  Every monomial order treats pi as the smallest variable:
lex compares the slots left to right, so pi last, and grevlex, like each
block of an elimination order (pi is in the last block), counts pi in the
degree and breaks a degree tie on the pi exponent first, the smaller one
ranking higher.  The Groebner kernel packs these tuples into ints
(`groebner._Packing`); nothing outside it sees the packed form.

Exponents are nonnegative except in `dgal.LINE`, the ring of R[x, 1/x],
whose x exponent may be negative, and in a value inside the parser,
whose pi exponent may be.  Arithmetic, `**`, `in_ring` and `==` never
read an exponent's sign.  `groebner._Packing` and `format_poly` assume
nonnegative exponents and never receive a negative one: no `LINE` poly
reaches a Groebner basis, `dgal.format_laurent` prints one by its
coefficients in R, and no negative pi exponent leaves the parser.

An element of R is a `Poly` over `SCALARS`, the ring with no variables:
its pi exponent is the monomial's only slot.  Counits land there, so
their valuations, pi-divisions and reductions mod pi are the `Poly`
methods, and `in_ring` moves one into any other ring.

A coefficient is an `int` when integral and a `Fraction` otherwise, never
a `float`.  `rational` makes one from any exact number.  Sums, differences
and products of ints stay native ints, so only a division can make a
`Fraction`.  Every division goes through `quotient`, which gives back an
int when the result is integral, and `Poly.scale` normalises its products
the same way; `/` between two coefficients is never used, since
`int / int` is a float.  A product of
Fractions that happens to be integral (2/3 * 3/2) may stay a Fraction;
`str`, `==` and `hash` agree on 1 and Fraction(1), so no value and no
printed byte depends on the type.

A `Substitution` keeps each power of an image that a call has needed, so
applying one substitution to many polynomials computes each power once.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import NotDivisible, UnknownVariable

PI = "pi"
INFINITE = float("inf")

Monomial = tuple


def rational(q):
    """q as a coefficient: an int if q is integral, else a Fraction."""
    if type(q) is int:
        return q
    if type(q) is not Fraction:
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def quotient(a, b):
    """a / b as a coefficient, exactly; an int when b divides a."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return rational(Fraction(a, b))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def _grevlex_key(m: Monomial):
    return (sum(m), tuple(-e for e in reversed(m)))


class Order:
    """Monomial order tag: lex, grevlex, or a two-block elimination order.

    For kind "elim" the first `split` variables form the elimination block;
    each block is compared by grevlex, block one first.
    """

    __slots__ = ("kind", "split")

    def __init__(self, kind: str = "lex", split: int = 0):
        self.kind = kind
        self.split = split

    def __eq__(self, other):
        if other.__class__ is not Order:
            return NotImplemented
        return self.kind == other.kind and self.split == other.split

    def __hash__(self):
        return hash((self.kind, self.split))

    def key(self, mono: Monomial):
        if self.kind == "lex":
            return mono
        if self.kind == "grevlex":
            return _grevlex_key(mono)
        if self.kind == "elim":
            return (_grevlex_key(mono[: self.split]), _grevlex_key(mono[self.split :]))
        raise ValueError(f"unknown order kind {self.kind!r}")


LEX = Order("lex")
GREVLEX = Order("grevlex")


def elim_order(split: int) -> Order:
    return Order("elim", split)


class PolyRing:
    """Polynomial ring over Q[pi] with named variables and a monomial order."""

    __slots__ = ("variables", "order")

    def __init__(self, variables: tuple, order: Order = LEX):
        if PI in variables:
            raise UnknownVariable("pi is reserved and cannot be a ring variable")
        if len(set(variables)) != len(variables):
            raise UnknownVariable(f"duplicate variable in {variables}")
        self.variables = variables
        self.order = order

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not PolyRing:
            return NotImplemented
        return self.variables == other.variables and self.order == other.order

    def __hash__(self):
        return hash((self.variables, self.order))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariable(f"no variable {name!r} in ring {self.variables}") from None

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.scalar(1)

    def scalar(self, value) -> "Poly":
        q = rational(value)
        if not q:
            return self.zero()
        return Poly(self, {(0,) * self.nvars + (0,): q})

    def var(self, name: str) -> "Poly":
        mono = [0] * (self.nvars + 1)
        mono[self.index(name)] = 1
        return Poly(self, {tuple(mono): 1})

    def pi(self, power: int = 1) -> "Poly":
        return Poly(self, {(0,) * self.nvars + (power,): 1})

    def monomial(self, mono: Monomial) -> "Poly":
        return Poly(self, {tuple(mono): 1})

    def extend(self, extra) -> "PolyRing":
        return PolyRing(self.variables + tuple(extra), self.order)

    def prepend(self, extra, order: Order = None) -> "PolyRing":
        return PolyRing(tuple(extra) + self.variables, order or self.order)

    def drop(self, names) -> "PolyRing":
        gone = set(names)
        return PolyRing(tuple(v for v in self.variables if v not in gone), self.order)


SCALARS = PolyRing(())  # the base ring R, where counits land


class Poly:
    """Polynomial over Q[pi]; immutable by convention.

    Each coefficient is an int when integral, else a Fraction, never a
    float (see the module docstring).  A poly over `dgal.LINE` may carry
    a negative x exponent, and a parser intermediate a negative pi
    exponent, which never leaves the parser; `groebner._Packing` and
    `format_poly` never receive one.

    Nothing writes `terms` after construction, which is what lets the leading
    monomial be computed once, on first use, and kept in `_lead`.
    """

    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring: PolyRing, terms):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}
        self._lead = None

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise UnknownVariable("polynomials from different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                out[m] = out[m] + c1 * c2 if m in out else c1 * c2
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return self.ring.one() if out is None else out

    def scale(self, q) -> "Poly":
        q = rational(q)
        return Poly(self.ring, {m: rational(c * q) for m, c in self.terms.items()})

    def lead_monomial(self) -> Monomial:
        if self._lead is None:
            self._lead = max(self.terms, key=self.ring.order.key)
        return self._lead

    def tail(self) -> "Poly":
        """Everything below the leading term."""
        m = self.lead_monomial()
        rest = {k: c for k, c in self.terms.items() if k != m}
        return Poly(self.ring, rest)

    def sorted_terms(self):
        """Terms in descending order under the ring order; deterministic."""
        key = self.ring.order.key
        return [(m, self.terms[m]) for m in sorted(self.terms, key=key, reverse=True)]

    def pi_valuation(self):
        if not self.terms:
            return INFINITE
        return min(m[-1] for m in self.terms)

    def divide_pi(self, m: int = 1) -> "Poly":
        if self.pi_valuation() < m:
            raise NotDivisible(f"{format_poly(self)} is not termwise divisible by pi^{m}")
        return Poly(self.ring, {mono[:-1] + (mono[-1] - m,): c for mono, c in self.terms.items()})

    def mul_pi(self, m: int = 1) -> "Poly":
        return Poly(self.ring, {mono[:-1] + (mono[-1] + m,): c for mono, c in self.terms.items()})

    def set_pi_zero(self) -> "Poly":
        return Poly(self.ring, {m: c for m, c in self.terms.items() if m[-1] == 0})

    def is_scalar(self) -> bool:
        return all(not any(m[:-1]) for m in self.terms)

    def in_ring(self, ring: PolyRing, rename=None) -> "Poly":
        """Re-express in another ring, optionally renaming variables.

        Only variables that actually occur need a home in the target ring.
        """
        rename = rename or {}
        index = {}
        out = {}
        for m, c in self.terms.items():
            mono = [0] * (ring.nvars + 1)
            mono[-1] = m[-1]
            for i, e in enumerate(m[:-1]):
                if e:
                    if i not in index:
                        v = self.ring.variables[i]
                        index[i] = ring.index(rename.get(v, v))
                    mono[index[i]] += e
            key = tuple(mono)
            out[key] = out[key] + c if key in out else c
        return Poly(ring, out)

    def __repr__(self):
        return format_poly(self)


class Substitution:
    """Ring homomorphism over Q[pi] fixed by variable images; pi maps to pi.

    `_powers` maps (source variable index, exponent) to the terms of that
    power of the image, filled on first use (see the module docstring).
    """

    __slots__ = ("source", "target", "images", "_powers")

    def __init__(self, source: PolyRing, target: PolyRing, images):
        self.source = source
        self.target = target
        self.images = dict(images)
        self._powers = {}
        for name, img in self.images.items():
            if name not in source.variables:
                raise UnknownVariable(f"image given for {name!r} outside the source ring")
            if img.ring != target:
                raise UnknownVariable(f"image of {name!r} lives in the wrong ring")

    @classmethod
    def identity(cls, ring: PolyRing) -> "Substitution":
        return cls(ring, ring, {v: ring.var(v) for v in ring.variables})

    def _power(self, i: int, e: int) -> list:
        """The terms of the image of source variable i, to the power e."""
        name = self.source.variables[i]
        if name not in self.images:
            raise UnknownVariable(f"no image for variable {name!r}")
        power = self._powers[i, e] = list((self.images[name] ** e).terms.items())
        return power

    def __call__(self, f: Poly) -> Poly:
        if f.ring != self.source:
            f = f.in_ring(self.source)
        powers = self._powers
        base = (0,) * self.target.nvars
        out = {}
        for m, c in sorted(f.terms.items()):
            part = [(base + (m[-1],), c)]
            for i, e in enumerate(m[:-1]):
                if e:
                    power = powers.get((i, e))
                    if power is None:
                        power = self._power(i, e)
                    part = [(tuple(map(add, m1, m2)), c1 * c2)
                            for m1, c1 in part for m2, c2 in power]
            for mono, coeff in part:
                if mono in out:
                    out[mono] += coeff
                else:
                    out[mono] = coeff
        return Poly(self.target, out)

    def then(self, later: "Substitution") -> "Substitution":
        """Composite substitution: apply self, then `later`."""
        return Substitution(
            self.source, later.target, {v: later(img) for v, img in self.images.items()}
        )

    def __repr__(self):
        inner = ", ".join(f"{v} -> {format_poly(self.images[v])}" for v in self.source.variables if v in self.images)
        return f"<subst {inner}>"


def _format_term(ring: PolyRing, mono: Monomial, coeff):
    parts = []
    for i, e in enumerate(mono[:-1]):
        if e == 1:
            parts.append(ring.variables[i])
        elif e:
            parts.append(f"{ring.variables[i]}^{e}")
    if mono[-1] == 1:
        parts.append(PI)
    elif mono[-1]:
        parts.append(f"{PI}^{mono[-1]}")
    mag = abs(coeff)
    if mag != 1 or not parts:
        parts.insert(0, str(mag))
    return coeff < 0, "*".join(parts)


def format_terms(ring: PolyRing, terms) -> str:
    """Terms (monomial, coefficient) of a poly over `ring`, printed in the
    order given; "0" when there are none."""
    pieces = []
    for m, c in terms:
        neg, body = _format_term(ring, m, c)
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces) or "0"


def format_poly(f: Poly) -> str:
    return format_terms(f.ring, f.sorted_terms())
