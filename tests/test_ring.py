"""Scalars, polynomials, orders, substitutions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from neron.config import Limits
from neron.errors import NotDivisible, UnknownVariable
from neron.ring import (GREVLEX, LEX, Order, Poly, PolyRing, Scalar,
                        Substitution, elim_order, format_poly, format_scalar)


def ring2() -> PolyRing:
    return PolyRing(("x", "y"))


def small_scalars():
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.dictionaries(st.integers(0, 3), coeff, max_size=3).map(Scalar)


def small_polys(ring: PolyRing):
    mono = st.tuples(*([st.integers(0, 3)] * ring.nvars), st.integers(0, 2))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.dictionaries(mono, coeff, max_size=4).map(lambda t: Poly(ring, t))


class TestScalar:
    def test_constructors_agree(self):
        assert Scalar.from_rational(Fraction(3, 2)) == Scalar({0: Fraction(3, 2)})
        assert Scalar.pi_power(2) == Scalar({2: Fraction(1)})
        assert Scalar.pi_power(1, 5) == Scalar({1: Fraction(5)})
        assert Scalar() == Scalar.from_rational(0)
        assert not Scalar()

    def test_arithmetic(self):
        a = Scalar({0: Fraction(1), 1: Fraction(2)})
        b = Scalar({1: Fraction(-2), 2: Fraction(1)})
        assert a + b == Scalar({0: Fraction(1), 2: Fraction(1)})
        assert a - a == Scalar()
        prod = a * b
        assert prod == Scalar({1: Fraction(-2), 2: Fraction(-3), 3: Fraction(2)})
        assert a * 2 == Scalar({0: Fraction(2), 1: Fraction(4)})
        assert a * Fraction(1, 2) == Scalar({0: Fraction(1, 2), 1: Fraction(1)})

    def test_valuation_and_truncation(self):
        s = Scalar({2: Fraction(3), 4: Fraction(1)})
        assert s.pi_valuation() == 2
        assert Scalar().pi_valuation() == float("inf")
        # truncate(n) kills every exponent above n
        assert s.truncate(3) == Scalar({2: Fraction(3)})
        assert s.truncate(4) == s
        assert s.truncate(1) == Scalar()
        assert s.set_pi_zero() == Fraction(0)
        assert Scalar({0: Fraction(7), 1: Fraction(1)}).set_pi_zero() == Fraction(7)

    def test_divide_pi(self):
        s = Scalar({2: Fraction(3)})
        assert s.divide_pi(2) == Scalar({0: Fraction(3)})
        with pytest.raises(NotDivisible):
            Scalar({0: Fraction(1)}).divide_pi()

    @given(a=small_scalars(), b=small_scalars(), c=small_scalars())
    @settings(max_examples=60, derandomize=True)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a + Scalar() == a
        assert a - a == Scalar()


class TestPoly:
    def test_construction_and_format(self):
        R = PolyRing(("u", "v"))
        u, v = R.var("u"), R.var("v")
        assert format_poly(u * v - 1) == "u*v - 1"
        assert format_poly(u * u * Fraction(1, 2)) == "1/2*u^2"
        xi = PolyRing(("xi1",)).var("xi1")
        assert format_poly(xi * xi.ring.pi() + 1) == "xi1*pi + 1"
        assert format_poly(R.zero()) == "0"
        assert format_scalar(Scalar({1: Fraction(-1)})) == "-pi"

    def test_coercion(self):
        R = ring2()
        x = R.var("x")
        assert x + 1 == x + R.one()
        assert 1 - x == R.one() - x
        assert x * Fraction(2, 3) == x.scale(Fraction(2, 3))
        assert (x + 1) ** 2 == x * x + x * 2 + 1

    def test_lead_under_lex_and_grevlex(self):
        # lex: x beats any power of y; grevlex: higher total degree wins
        R = PolyRing(("x", "y"), LEX)
        x, y = R.var("x"), R.var("y")
        f = x + y * y * y
        assert f.lead_monomial() == (1, 0, 0)
        G = PolyRing(("x", "y"), GREVLEX)
        g = f.in_ring(G)
        assert g.lead_monomial() == (0, 3, 0)

    @given(data=st.data(), order=st.sampled_from([LEX, GREVLEX, elim_order(1)]))
    @settings(max_examples=120, derandomize=True)
    def test_lead_monomial_is_the_order_maximum(self, data, order):
        # The leading monomial is kept on the polynomial after its first
        # use; it must agree with a fresh max-scan on every derived result.
        R = PolyRing(("x", "y"), order)
        S = PolyRing(("t", "y", "x"), data.draw(st.sampled_from([LEX, GREVLEX, elim_order(1)])))
        f, g = data.draw(small_polys(R)), data.draw(small_polys(R))
        q = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
        for p in (f, g):
            if p:
                p.lead_monomial()
        derived = [f, g, f + g, f - g, f * g, g * f, f.scale(q), f.monic(), g.monic(),
                   f.in_ring(S), (f * g).in_ring(S, {"x": "t"})]
        for p in derived:
            if not p:
                with pytest.raises(ValueError):
                    p.lead_monomial()
                continue
            top = max(p.terms, key=p.ring.order.key)
            assert p.lead_monomial() == top
            assert p.lead_monomial() == top
            assert p.lead_coeff() == p.terms[top]

    def test_elim_order_blocks(self):
        # first block dominates regardless of degree in the second
        R = PolyRing(("t", "x"), elim_order(1))
        t, x = R.var("t"), R.var("x")
        assert (t + x ** 4).lead_monomial() == (1, 0, 0)

    def test_pi_slot(self):
        R = ring2()
        x = R.var("x")
        f = R.pi(2) * x + R.pi(3)
        assert f.pi_valuation() == 2
        assert f.divide_pi(2) == x + R.pi()
        assert f.mul_pi() == R.pi(3) * x + R.pi(4)
        assert f.set_pi_zero() == R.zero()
        assert (x + R.pi()).set_pi_zero() == x
        assert (x + R.pi(3)).truncate_pi(2) == x
        with pytest.raises(NotDivisible):
            (x + R.pi()).divide_pi()

    def test_scalar_round_trip(self):
        R = ring2()
        f = R.scalar(Scalar({1: Fraction(2)}))
        assert f.is_scalar()
        assert f.as_scalar() == Scalar({1: Fraction(2)})
        assert not R.var("x").is_scalar()

    def test_q_pi_coefficients(self):
        R = ring2()
        x = R.var("x")
        f = x * R.pi() + x * 3
        assert f == x * R.scalar(Scalar({0: Fraction(3), 1: Fraction(1)}))
        assert f.variables_used() == {"x"}

    def test_in_ring_rename_and_missing(self):
        R = ring2()
        S = PolyRing(("a", "b", "c"))
        f = R.var("x") * R.var("y") + R.pi()
        g = f.in_ring(S, {"x": "a", "y": "c"})
        assert g == S.var("a") * S.var("c") + S.pi()
        with pytest.raises(UnknownVariable):
            f.in_ring(PolyRing(("x",)))

    @given(f=small_polys(ring2()), g=small_polys(ring2()), h=small_polys(ring2()))
    @settings(max_examples=60, derandomize=True)
    def test_ring_axioms(self, f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f - f == f.ring.zero()

    @given(f=small_polys(ring2()))
    @settings(max_examples=40, derandomize=True)
    def test_pi_facts(self, f):
        assert f.mul_pi(2).pi_valuation() >= 2 or f.is_zero()
        assert f.mul_pi(3).divide_pi(3) == f
        assert f.mul_pi().set_pi_zero().is_zero()


def term_by_term(images: dict, target: PolyRing, f: Poly) -> Poly:
    """Reference for Substitution: each term's image built by repeated
    products, one variable factor at a time, then summed."""
    out = target.zero()
    for m, c in f.terms.items():
        term = target.scalar(Scalar.pi_power(m[-1], c))
        for name, e in zip(f.ring.variables, m):
            for _ in range(e):
                term = term * images[name]
        out = out + term
    return out


def first_missing(images: dict, f: Poly):
    """The variable whose missing image a substitution reports: the first
    one met in the source ring's terms, in sorted order."""
    for m in sorted(f.terms):
        for name, e in zip(f.ring.variables, m):
            if e and name not in images:
                return name
    return None


SOURCE = PolyRing(("x", "y", "z"))
TARGET = PolyRing(("a", "b"))
LATER = PolyRing(("s",))


def image_polys(ring: PolyRing):
    mono = st.tuples(*([st.integers(0, 2)] * ring.nvars), st.integers(0, 1))
    coeff = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    return st.dictionaries(mono, coeff, max_size=3).map(lambda t: Poly(ring, t))


class TestValueTypes:
    # Rings, orders and budgets are values: rings are compared on every
    # coercion, and orders key the packing cache.  Each hash is that of
    # the tuple of fields.
    @pytest.mark.parametrize("make, fields", [
        (lambda: PolyRing(("x", "y")), (("x", "y"), LEX)),
        (lambda: PolyRing(("t", "x"), elim_order(1)), (("t", "x"), Order("elim", 1))),
        (lambda: Order("grevlex"), ("grevlex", 0)),
        (lambda: Limits(3, 4), (3, 4)),
    ], ids=["ring", "elim-ring", "order", "limits"])
    def test_equal_values_are_one_key(self, make, fields):
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) == hash(fields)
        assert {a: "a"}[b] == "a"
        assert a != fields

    @pytest.mark.parametrize("a, b", [
        (PolyRing(("x", "y")), PolyRing(("y", "x"))),
        (PolyRing(("x", "y")), PolyRing(("x", "y"), GREVLEX)),
        (Order("elim", 1), Order("elim", 2)),
        (Limits(max_pairs=3), Limits(max_degree=3)),
    ], ids=["ring-variables", "ring-order", "order", "limits"])
    def test_unequal_values(self, a, b):
        assert a != b and not a == b

    @pytest.mark.parametrize("variables", [("pi",), ("x", "pi"), ("x", "y", "x")])
    def test_reserved_or_repeated_variable(self, variables):
        with pytest.raises(UnknownVariable):
            PolyRing(variables)


class TestSubstitution:
    @given(data=st.data())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_matches_term_by_term_evaluation(self, data):
        named = data.draw(st.just(set(SOURCE.variables))
                          | st.sets(st.sampled_from(SOURCE.variables)))
        images = {v: data.draw(image_polys(TARGET)) for v in sorted(named)}
        phi = Substitution(SOURCE, TARGET, images)
        # inputs from the source ring and from another ring (the in_ring
        # path); each twice, so the second call uses the kept powers
        other = PolyRing(("z", "x"))
        fs = data.draw(st.lists(small_polys(SOURCE) | small_polys(other),
                                min_size=1, max_size=3))
        for f in fs + fs:
            missing = first_missing(images, f.in_ring(SOURCE))
            if missing is not None:
                with pytest.raises(UnknownVariable) as exc:
                    phi(f)
                assert str(exc.value) == f"no image for variable {missing!r}"
                continue
            got = phi(f)
            assert got == term_by_term(images, TARGET, f)
            assert all(got.terms.values())
        if len(images) < SOURCE.nvars:
            return
        later = {v: data.draw(image_polys(LATER)) for v in TARGET.variables}
        composite = phi.then(Substitution(TARGET, LATER, later))
        for f in fs:
            assert composite(f) == term_by_term(
                later, LATER, term_by_term(images, TARGET, f))

    def test_apply_and_compose(self):
        R = PolyRing(("u", "v"))
        S = PolyRing(("xi1",))
        xi = S.var("xi1")
        phi = Substitution(R, S, {"u": xi * S.pi() + 1, "v": xi})
        f = R.var("u") * R.var("v") - 1
        assert phi(f) == xi * xi * S.pi() + xi - 1
        ident = Substitution.identity(S)
        assert phi.then(ident)(f) == phi(f)
        double = Substitution(S, S, {"xi1": xi * 2})
        assert phi.then(double)(R.var("u")) == xi * S.pi() * 2 + 1

    def test_renaming_and_restrict(self):
        R = PolyRing(("x", "y"))
        S = PolyRing(("a", "b"))
        rho = Substitution(R, S, {"x": S.var("a"), "y": S.var("b")})
        assert rho(R.var("x") + R.var("y")) == S.var("a") + S.var("b")
        only_x = Substitution(PolyRing(("x",)), S, {"x": rho.images["x"]})
        assert "y" not in only_x.images

    def test_missing_image_rejected(self):
        R = PolyRing(("x", "y"))
        S = PolyRing(("a",))
        phi = Substitution(R, S, {"x": S.var("a")})
        with pytest.raises(UnknownVariable):
            phi(R.var("y"))

    @given(f=small_polys(ring2()), g=small_polys(ring2()))
    @settings(max_examples=40, derandomize=True)
    def test_substitution_is_a_ring_map(self, f, g):
        R = ring2()
        S = PolyRing(("a", "b"))
        phi = Substitution(R, S, {"x": S.var("a") + S.var("b"),
                                  "y": S.var("b") * S.pi()})
        assert phi(f + g) == phi(f) + phi(g)
        assert phi(f * g) == phi(f) * phi(g)
