"""Bases, normal forms, saturation, elimination, contraction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from neron.blowup import automatic_truncation
from neron.config import ACTIVE, DEFAULT_LIMITS, Limits, budget
from neron.errors import DivisionObstruction, ResourceLimit
import neron.groebner as groebner
from neron.groebner import (Ideal, _buchberger, _Graph, _Overflow, _Packing, _reduce_full,
                            certified_pi_division, contract, membership,
                            saturate, saturate_pi)
from neron.hopf import PRIME1, PRIME2, PRIME3, copy_into, tensor_ideal, tensor_ring
from neron.library import (additive_group, borel2, general_linear, multiplicative_group,
                           product)
from neron.parser import parse_poly
from neron.ring import GREVLEX, LEX, Poly, PolyRing, Substitution, elim_order

import suites
from test_ring import small_polys



@pytest.fixture()
def rxy():
    return PolyRing(("x", "y"))


class TestIdeal:
    def test_normal_form_and_contains(self, rxy):
        x, y = rxy.var("x"), rxy.var("y")
        ideal = Ideal(rxy, [x * x - y, y * y - x])
        assert ideal.contains(x ** 4 - x)
        assert not ideal.contains(x + 1)
        nf = ideal.normal_form(x ** 3)
        assert ideal.contains(x ** 3 - nf)
        assert ideal.normal_form(nf) == nf

    def test_same_ideal_and_plus(self, rxy):
        x, y = rxy.var("x"), rxy.var("y")
        a = Ideal(rxy, [x - y])
        b = Ideal(rxy, [(x - y) * 2, (x - y) * (y + 1)])
        assert a.same_ideal(b)
        assert not a.same_ideal(Ideal(rxy, [x + y]))
        assert a.plus([y]).same_ideal(Ideal(rxy, [x, y]))

    def test_unit_and_zero(self, rxy):
        x = rxy.var("x")
        assert Ideal(rxy, [x, x + 1]).contains(rxy.one())
        assert list(Ideal(rxy, [x, x + 1]).basis()) == [rxy.one()]
        assert Ideal(rxy, []).is_zero()
        # pi is not a unit: R is not a field
        assert not Ideal(rxy, [rxy.pi()]).contains(rxy.one())

    def test_pi_leading_generator(self, rxy):
        # lead term of the twisted relation carries pi
        x, y = rxy.var("x"), rxy.var("y")
        rel = x + y + rxy.pi() * x * y
        ideal = Ideal(rxy, [rel])
        assert ideal.contains(rel * (x - y))
        assert not ideal.contains(x + y)

    @given(f=small_polys(PolyRing(("x", "y"))), g=small_polys(PolyRing(("x", "y"))))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_normal_form_is_linear(self, f, g):
        ring = f.ring
        ideal = Ideal(ring, [ring.var("x") ** 2 - ring.var("y")])
        nf = lambda p: ideal.normal_form(p)
        assert nf(f + g) == nf(nf(f) + nf(g))
        assert nf(f * g) == nf(nf(f) * nf(g))


def _scratch_normal_form(f, gens):
    basis, _ = _buchberger(list(gens), f.ring, False)
    return _reduce_full(f, list(basis))[0]


RXY = PolyRing(("x", "y"))


class TestMembershipFirst:
    """Before its basis is built, a normal form divides by the generators
    first; the answer must be the normal form modulo a basis built from
    scratch, for members and non-members alike."""

    def test_zero_generator_is_skipped(self, rxy):
        x, y = rxy.var("x"), rxy.var("y")
        assert Ideal(rxy, [0, x]).normal_form(x * y).is_zero()
        assert Ideal(rxy, [0, x]).normal_form(y + x) == y

    @given(gens=st.lists(small_polys(RXY), min_size=1, max_size=2),
           zero_at=st.none() | st.integers(0, 2),
           cofactors=st.lists(small_polys(RXY), min_size=2, max_size=2),
           extra=small_polys(RXY))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_matches_basis_from_scratch(self, gens, zero_at, cofactors, extra):
        if zero_at is not None:
            gens.insert(min(zero_at, len(gens)), RXY.zero())
        member = sum((c * g for c, g in zip(cofactors, gens)), RXY.zero())
        for f in (member, member + extra, extra):
            assert Ideal(RXY, gens).normal_form(f) == _scratch_normal_form(f, gens)

    def test_seeded_basis_is_the_reduced_basis(self, rxy):
        # Blocks whose leading monomials are coprime can still fail to be
        # reduced together: a shared tail variable or a pure pi power.
        x, y, pi = rxy.var("x"), rxy.var("y"), rxy.pi()
        for blocks in ([[x - y], [y]], [[x + pi], [pi]], [[x + pi], [y + pi]],
                       [[x * y - 1], [y * pi]], [[x], [y]], [[rxy.one()], [x]]):
            gens = [g for block in blocks for g in block]
            seeded = Ideal.seeded(rxy, gens, blocks)
            assert seeded.basis() == Ideal(rxy, gens).basis(), blocks

    def test_member_builds_no_basis(self, rxy):
        x, y = rxy.var("x"), rxy.var("y")
        ideal = Ideal(rxy, [x * x - y, y * y - x])
        assert ideal.contains((x * x - y) * (x + y))
        assert ideal._basis is None
        assert not ideal.contains(x)
        assert ideal._basis is not None


class TestMembership:
    def test_certificate_reconstructs(self, rxy):
        x, y = rxy.var("x"), rxy.var("y")
        gens = [x * x - y, y - 1]
        f = (x * x - y) * y + (y - 1) * x
        cert = membership(f, Ideal(rxy, gens))
        assert cert.member
        total = sum((c * g for c, g in zip(cert.cofactors, gens)), rxy.zero())
        assert total == f
        assert cert.remainder.is_zero()

    def test_non_member(self, rxy):
        x = rxy.var("x")
        cert = membership(x + 1, Ideal(rxy, [x * x]))
        assert not cert.member
        assert not cert.remainder.is_zero()


class TestSaturation:
    def test_pi_saturation(self, rxy):
        x, y = rxy.var("x"), rxy.var("y")
        ideal = Ideal(rxy, [rxy.pi() * x, rxy.pi(2) * y])
        sat = saturate_pi(ideal)
        assert sat.same_ideal(Ideal(rxy, [x, y]))

    def test_saturated_ideal_is_fixed(self, rxy):
        x, y = rxy.var("x"), rxy.var("y")
        rel = x + y + rxy.pi() * x * y
        ideal = Ideal(rxy, [rel])
        assert saturate_pi(ideal).same_ideal(ideal)

    def test_saturate_by_variable(self, rxy):
        x, y = rxy.var("x"), rxy.var("y")
        sat = saturate(Ideal(rxy, [x * y - x]), x)
        assert sat.same_ideal(Ideal(rxy, [y - 1]))


def _block_order_saturation(ideal, f):
    """(ideal : f^infinity) walked in `elim_order(1)` with the tag first,
    whatever the ring's order: the route non-lex rings take."""
    ring = ideal.ring
    big = ring.prepend(("_t1",), elim_order(1))
    gens = [g.in_ring(big) for g in ideal.generators]
    gens.append(big.one() - big.var("_t1") * f.in_ring(big))
    return groebner._eliminate(gens, big, 1, ring)


class TestSaturationBasis:
    """A saturation walks in lex with the tag first.  In a lex ring the
    tag-free part of that walk's reduced basis is kept as the result's
    basis; other rings keep none, since their basis is in another order."""

    def test_installed_basis_is_the_reduced_basis(self):
        rng = random.Random(20261018)
        names = ("x", "y", "z")
        for case in range(40):
            ring = PolyRing(names[:rng.randint(1, 3)])
            gens = [suites._random_poly(rng, ring, rng.randint(1, 3), rng.randint(1, 3), 2)
                    for _ in range(rng.randint(1, 3))]
            f = ring.pi() if case % 2 else suites._random_poly(rng, ring, 2, 1)
            if f.is_zero():
                f = ring.pi()
            sat = saturate(Ideal(ring, gens), f)
            assert sat._basis is not None, case
            assert sat.basis() == Ideal(ring, sat.generators).basis(), case
            assert sat.same_ideal(_block_order_saturation(Ideal(ring, gens), f)), case

    @pytest.mark.parametrize("order", [GREVLEX, elim_order(1)], ids=["grevlex", "elim"])
    def test_other_orders_saturate_to_the_same_ideal(self, order):
        ring = PolyRing(("x", "y"), order)
        x, y, pi = ring.var("x"), ring.var("y"), ring.pi()
        ideal = Ideal(ring, [pi * x - y * y, pi * y * x - pi])
        sat = saturate_pi(ideal)
        assert sat._basis is None
        assert sat.same_ideal(_block_order_saturation(ideal, pi))
        assert sat.contains(x * y - 1)
        assert sat.basis() == _block_order_saturation(ideal, pi).basis()


class TestPiUnitWalk:
    """A walk told that pi is a unit modulo its ideal divides the pi powers
    out of each element it adds.  The ideal is the same, so the reduced
    basis is too."""

    def test_same_reduced_basis(self):
        rng = random.Random(20261019)
        names = ("x", "y", "z")
        for case in range(40):
            ring = PolyRing(names[:rng.randint(1, 3)])
            big = ring.prepend(("_t1",), LEX)
            gens = [suites._random_poly(rng, big, rng.randint(1, 3), rng.randint(1, 3), 3)
                    for _ in range(rng.randint(1, 3))]
            gens.append(big.one() - big.var("_t1") * big.pi())
            plain, _ = _buchberger(gens, big, False)
            stripped, _ = _buchberger(gens, big, False, pi_unit=True)
            assert stripped == plain, case
            assert not any(g.pi_valuation() for g in stripped), case

    def test_degree_budget_sees_the_stripped_element(self):
        # Gm at level n has the relation xi*xi'*pi^n + xi + xi', of degree
        # n + 2.  Its saturation step reduces pi times that relation before
        # pi divides out, so only the stripped element meets the budget:
        # level 38 fits the default degree budget of 40, and level 39 is
        # the first whose own relation exceeds it.
        tower = automatic_truncation(multiplicative_group(), 38)
        assert tower.report.ok
        relations = tower.blown.relations.generators
        assert max(sum(m) for g in relations for m in g.terms) == 40
        with pytest.raises(ResourceLimit):
            automatic_truncation(multiplicative_group(), 39)


def _tag_walk_saturation(ideal):
    """(ideal : pi^infinity) by the walk in lex with the tag first, whatever
    the number of generators: the route two generators take."""
    ring = ideal.ring
    big = ring.prepend(("_t1",), LEX)
    gens = [g.in_ring(big) for g in ideal.generators]
    gens.append(big.one() - big.var("_t1") * big.pi())
    return groebner._eliminate(gens, big, 1, ring, pi_unit=True)


class TestClosedFormSaturation:
    """An ideal with at most one nonzero generator g saturates at pi as
    (g / pi^v), v the pi valuation of g, because pi is prime in Q[pi][x]:
    the tag walk's result, with no walk."""

    @staticmethod
    def check(f, zeros=0):
        ring = f.ring
        walk = groebner._buchberger
        groebner._buchberger = None  # the closed form walks nothing
        try:
            sat = saturate_pi(Ideal(ring, [ring.zero()] * zeros + [f]))
        finally:
            groebner._buchberger = walk
        walked = _tag_walk_saturation(Ideal(ring, [f]))
        assert sat.generators == walked.generators
        if ring.order == LEX:
            assert sat._basis == walked.generators
        assert sat.basis() == Ideal(ring, walked.generators).basis()
        assert saturate_pi(sat) is sat

    @given(g=small_polys(RXY), power=st.integers(0, 3), zeros=st.integers(0, 2),
           order=st.sampled_from([LEX, GREVLEX]))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_equals_the_tag_walk(self, g, power, zeros, order):
        ring = PolyRing(RXY.variables, order)
        self.check(Poly(ring, g.terms).mul_pi(power), zeros)

    @pytest.mark.parametrize("order", [LEX, GREVLEX], ids=["lex", "grevlex"])
    @pytest.mark.parametrize("text", ["0", "1", "pi", "pi^3", "-2*pi^2", "3*x*pi",
                                      "pi^2*x*y + pi^3", "2*x*pi + y^2*pi^2",
                                      "x*pi + y^5", "y^2/2 + x*pi"])
    def test_edge_cases_equal_the_tag_walk(self, order, text):
        self.check(parse_poly(text, PolyRing(RXY.variables, order)))

    @pytest.mark.parametrize("text", ["x^3*pi", "pi^2*x^2*y + pi^2"])
    def test_degree_budget_sees_the_pi_free_part(self, text):
        # the closed form raises the walk's text on g / pi^v, of degree 3
        f = parse_poly(text, RXY)
        with budget(Limits(max_degree=2)):
            with pytest.raises(ResourceLimit) as walked:
                _tag_walk_saturation(Ideal(RXY, [f]))
            with pytest.raises(ResourceLimit) as closed:
                saturate_pi(Ideal(RXY, [f]))
        assert str(closed.value) == str(walked.value)
        assert closed.value.degree == 3
        with budget(Limits(max_degree=3)):
            assert saturate_pi(Ideal(RXY, [f])).generators == (f.divide_pi(f.pi_valuation()),)

    def test_a_pi_free_generator_meets_no_budget(self):
        # pi does not divide x^3 + pi, so nothing is added and nothing is checked
        with budget(Limits(max_pairs=0, max_degree=1)):
            f = parse_poly("x^3 + pi", RXY)
            assert saturate_pi(Ideal(RXY, [f])).basis() == (f,)

    def test_two_generators_honour_the_pair_budget(self):
        x, pi = RXY.var("x"), RXY.pi()
        with budget(Limits(max_pairs=0)):
            assert saturate_pi(Ideal(RXY, [pi * x])).basis() == (x,)
            with pytest.raises(ResourceLimit, match="pair budget 0 exhausted"):
                saturate_pi(Ideal(RXY, [pi * x, pi * x * x]))
        assert saturate_pi(Ideal(RXY, [pi * x, pi * x * x])).basis() == (x,)


class TestElimination:
    def test_twisted_cubic(self):
        ring = PolyRing(("t", "y", "z"))
        t, y, z = (ring.var(n) for n in ("t", "y", "z"))
        ideal = Ideal(ring, [y - t * t, z - t * t * t])
        out = suites.eliminate(ideal, ["t"])
        assert out.ring.variables == ("y", "z")
        small = out.ring
        assert out.contains(small.var("y") ** 3 - small.var("z") ** 2)
        assert not out.contains(small.var("y"))

    def test_contract_along_substitution(self):
        src = PolyRing(("s",))
        tgt = PolyRing(("x", "y"))
        phi = Substitution(src, tgt, {"s": tgt.var("x") + tgt.var("y")})
        pre = contract(phi, Ideal(tgt, [tgt.var("x") + tgt.var("y")]))
        assert pre.same_ideal(Ideal(src, [src.var("s")]))
        none = contract(phi, Ideal(tgt, [tgt.var("x")]))
        assert none.is_zero()


def _tiny_polys(ring: PolyRing):
    mono = st.tuples(*([st.integers(0, 2)] * ring.nvars), st.integers(0, 1))
    coeff = st.integers(-2, 2).filter(bool)
    return st.dictionaries(mono, coeff, max_size=3).map(lambda t: Poly(ring, t))


class TestSubalgebra:
    """Membership in the subalgebra that some generators span modulo
    relations: one `_Graph` walk shared by every f."""

    def test_member_and_non_member(self, rxy):
        x, y = rxy.var("x"), rxy.var("y")
        graph = _Graph.tagged([x * x, y], Ideal(rxy, []))
        expr = graph.member(x * x * y + y)
        assert expr is not None
        assert expr.ring.variables == ("_z1", "_z2")
        assert graph.member(x) is None

    def test_relations_help(self, rxy):
        # mod (x^2 - y), x^2 lies in the subalgebra generated by y
        x, y = rxy.var("x"), rxy.var("y")
        assert _Graph.tagged([y], Ideal(rxy, [x * x - y])).member(x * x) is not None

    @given(gens=st.lists(_tiny_polys(RXY), min_size=1, max_size=2),
           rels=st.lists(_tiny_polys(RXY), max_size=1),
           coeffs=st.lists(st.integers(-2, 2), min_size=3, max_size=3),
           extra=_tiny_polys(RXY))
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_shared_walk_equals_a_walk_per_element(self, gens, rels, coeffs, extra):
        relations = Ideal(RXY, rels)
        a, b, c = coeffs
        inside = a + gens[0].scale(b) + gens[0] * gens[-1].scale(c)
        fs = [inside, inside + extra, extra, RXY.var("x"), RXY.var("y")]
        with budget(Limits(max_pairs=300, max_degree=14)):
            try:
                expected = [suites.subalgebra_walk(f, gens, relations) for f in fs]
            except ResourceLimit:
                with pytest.raises(ResourceLimit):
                    _Graph.tagged(gens, relations)
                return
            graph = _Graph.tagged(gens, relations)
        got = [graph.member(f) for f in fs]
        assert got == expected
        assert got[0] is not None
        tags = Substitution(got[0].ring, RXY, dict(zip(got[0].ring.variables, gens)))
        for f, expr in zip(fs, got):
            if expr is not None:
                assert relations.normal_form(tags(expr) - f).is_zero()

    def test_shared_walk_returns_none_where_a_walk_per_element_does(self, rxy):
        x, y = rxy.var("x"), rxy.var("y")
        gens, relations = [x * x, x * y], Ideal(rxy, [y * y - 1])
        graph = _Graph.tagged(gens, relations)
        for f in (x, y, x + y * y, x ** 3 * y, x * x + 1):
            assert graph.member(f) == suites.subalgebra_walk(f, gens, relations)
        assert graph.member(x) is None and graph.member(y) is None
        assert graph.member(x ** 3 * y) is not None


class TestPiDivision:
    def test_termwise(self, rxy):
        x = rxy.var("x")
        f = rxy.pi(2) * x + rxy.pi(3)
        assert certified_pi_division(f, 2, Ideal(rxy, [])) == x + rxy.pi()

    def test_through_relations(self, rxy):
        x, y = rxy.var("x"), rxy.var("y")
        modulus = Ideal(rxy, [x - rxy.pi() * y])
        assert certified_pi_division(x, 1, modulus) == y

    def test_obstruction(self, rxy):
        x, y = rxy.var("x"), rxy.var("y")
        with pytest.raises(DivisionObstruction):
            certified_pi_division(x, 1, Ideal(rxy, [y]))

    def test_copies_first_falls_back_to_the_full_basis(self):
        # Gm's level-1 doubled ideal J: the copies of x*y*pi + x + y lead
        # with pi, and their cross S-polynomial s lies in J, has no pi and
        # is reduced by neither copy, so pi*g + s leaves the copies with
        # pi valuation 0 and the division takes the full route.
        blown = automatic_truncation(multiplicative_group(), 1).blown
        ring2 = blown.doubled_ring()
        x1, y1, x2, y2 = (ring2.var(v) for v in ("xi1'", "xi2'", "xi1''", "xi2''"))
        s = x2 * y2 * (x1 + y1) - x1 * y1 * (x2 + y2)
        doubled = lambda: tensor_ideal(blown.relations, ring2, (PRIME1, PRIME2))
        scratch = Ideal(ring2, doubled().generators)
        assert scratch.contains(s)
        g = x1 * x1 * y2 + x2 + 3
        rels2 = doubled()
        assert rels2.held_remainder(s) == s
        assert certified_pi_division(ring2.pi() * g + s, 1, rels2) == scratch.normal_form(g)
        assert rels2._basis is not None
        # the same witness as the full route of an unseeded modulus
        for modulus in (doubled(), scratch):
            with pytest.raises(DivisionObstruction) as exc:
                certified_pi_division(s + 1, 1, modulus)
            assert exc.value.witness == "1"


def _twisted_cubic():
    """An ideal whose basis walk reduces more than one pair."""
    ring = PolyRing(("x", "y", "z"))
    x, y, z = (ring.var(n) for n in ("x", "y", "z"))
    return Ideal(ring, [x * y - z * z, y * z - x * x, x * z - y * y])


class TestLimits:
    @pytest.mark.parametrize("kwargs", [{"max_pairs": -1}, {"max_degree": -1}])
    def test_negative_budget(self, kwargs):
        with pytest.raises(ValueError, match="resource budgets must be nonnegative"):
            Limits(**kwargs)

    def test_pair_budget(self):
        with pytest.raises(ResourceLimit), budget(Limits(max_pairs=1)):
            _twisted_cubic().basis()

    def test_degree_budget(self, rxy):
        x, y = rxy.var("x"), rxy.var("y")
        with pytest.raises(ResourceLimit), budget(Limits(max_degree=3)):
            Ideal(rxy, [x ** 5 - y, y ** 5 - x]).basis()

    def test_nested_scopes_restore_the_outer_budget(self):
        outer, inner = Limits(max_pairs=50), Limits(max_pairs=1)
        with budget(outer):
            with budget(inner):
                assert ACTIVE.get() is inner
            assert ACTIVE.get() is outer
            assert _twisted_cubic().basis()
        assert ACTIVE.get() is DEFAULT_LIMITS

    def test_an_exceeded_budget_still_restores_the_scope(self):
        outer = Limits(max_pairs=50)
        with budget(outer):
            with pytest.raises(ResourceLimit), budget(Limits(max_pairs=1)):
                _twisted_cubic().basis()
            assert ACTIVE.get() is outer
        assert ACTIVE.get() is DEFAULT_LIMITS

    def test_a_lazy_walk_spends_the_scope_it_runs_in(self):
        # The ideal is made with no scope open; its basis is first walked
        # inside the tight one, which therefore stops it.  A failed walk
        # keeps nothing, so the next use walks again, at the default.
        ideal = _twisted_cubic()
        with pytest.raises(ResourceLimit), budget(Limits(max_pairs=1)):
            ideal.basis()
        assert ideal.basis() == _twisted_cubic().basis()
        with budget(Limits(max_pairs=1)):
            later = _twisted_cubic()
        assert later.basis() == ideal.basis()

    def test_no_scope_spends_the_default_budget(self, rxy):
        # With x = 1/y, x^40 = y gives y^41 - 1: one degree over the
        # default degree budget, and every element before it fits.
        x, y = rxy.var("x"), rxy.var("y")
        gens = [x * y - 1, x ** 40 - y]
        assert ACTIVE.get() is DEFAULT_LIMITS == Limits()
        with pytest.raises(ResourceLimit):
            Ideal(rxy, gens).basis()
        with budget(Limits(max_degree=41)):
            assert Ideal(rxy, gens).contains(y ** 41 - 1)


def _gl2_blowup_ideal():
    """The level-1 Neron blowup of GL2 before saturation: the relations and
    pi*xi_k = a_k - eps(a_k) for every coordinate."""
    gl = general_linear(2)
    aug = gl.aug_gens()
    ring = gl.ring.extend(tuple(f"xi{k}" for k in range(1, len(aug) + 1)))
    gens = [g.in_ring(ring) for g in gl.relations.generators]
    gens += [ring.var(f"xi{k}").mul_pi(1) - a.in_ring(ring) for k, a in enumerate(aug, 1)]
    return Ideal(ring, gens)


def _gl2_blowup_saturation():
    """`_gl2_blowup_ideal` saturated at pi."""
    return saturate_pi(_gl2_blowup_ideal())


def _b2_level1_tripled():
    """Basis of the relations of the third tensor power of B2's level-1
    truncation: three copies of its one relation, whose leading terms share
    pi, so the cross pairs need work."""
    base = PolyRing(("xi1", "xi2", "xi3", "xi4"))
    a, b, c, pi = base.var("xi1"), base.var("xi3"), base.var("xi4"), base.pi()
    rel = a * b * c * pi * pi + a * b * pi + a * c * pi + a + b * c * pi + b + c
    suffixes = (PRIME1, PRIME2, PRIME3)
    ring = tensor_ring(base, suffixes)
    return Ideal(ring, [copy_into(rel, ring, s) for s in suffixes]).basis()


class TestPairWalk:
    """The number of S-pairs the kernel reduces on two fixed inputs, pinned
    as the smallest pair budget that succeeds.  Another selection order or
    a weaker criterion reduces a different number of pairs.  The degree
    budget is the smallest that succeeds too, so that a different walk
    stops at its first higher-degree element instead of running long."""

    @pytest.mark.parametrize("compute, pairs, degree", [
        (_gl2_blowup_saturation, 3, 5),
        (_b2_level1_tripled, 21, 6),
    ], ids=["gl2-blowup-saturation", "b2-level1-tripled"])
    def test_pairs_reduced(self, compute, pairs, degree):
        with budget(Limits(max_pairs=pairs, max_degree=degree)):
            compute()
        with pytest.raises(ResourceLimit), budget(Limits(max_pairs=pairs - 1, max_degree=degree)):
            compute()
        with pytest.raises(ResourceLimit), budget(Limits(max_pairs=pairs, max_degree=degree - 1)):
            compute()


class TestContractWalk:
    """The S-pairs one contraction reduces, pinned as in `TestPairWalk`:
    the relations of a level-1 blowup pulled back along its projection.
    The count depends on the ring and the generator order `contract`
    walks in: with the graph generators before the target ideal's, Gm
    and Gm x Ga would need 5 and 10 pairs.  The degree is the smallest
    degree budget that succeeds."""

    @pytest.mark.parametrize("group, pairs, degree", [
        (multiplicative_group, 6, 3),
        (lambda: product(multiplicative_group(), additive_group()), 12, 3),
        (borel2, 35, 4),
        (general_linear, 64, 4),
    ], ids=["gm", "gmxga", "b2", "gl2"])
    def test_pairs_reduced(self, group, pairs, degree):
        b = automatic_truncation(group(), 1)
        compute = lambda: contract(b.projection.pullback, b.blown.relations)
        with budget(Limits(max_pairs=pairs, max_degree=degree)):
            compute()
        with pytest.raises(ResourceLimit), budget(Limits(max_pairs=pairs - 1, max_degree=degree)):
            compute()
        with pytest.raises(ResourceLimit), budget(Limits(max_pairs=pairs, max_degree=degree - 1)):
            compute()


class TestSeededWalk:
    """Doubling the unsaturated relations of a level-1 blowup of GL2:
    seeded with the two renamed copies of their reduced basis, the walk
    reduces only pairs between the copies.  Both counts are the smallest
    pair budget that succeeds.  (The saturated relations would not show
    the difference: a saturation's generators are its reduced basis.)"""

    def test_seeded_walk_reduces_fewer_pairs(self):
        rels = _gl2_blowup_ideal()
        ring2 = tensor_ring(rels.ring, (PRIME1, PRIME2))
        gens = [copy_into(g, ring2, s) for s in (PRIME1, PRIME2) for g in rels.generators]
        scratch = lambda: Ideal(ring2, gens).basis()
        seeded = lambda: tensor_ideal(rels, ring2, (PRIME1, PRIME2)).basis()
        for compute, pairs in ((scratch, 7), (seeded, 5)):
            with budget(Limits(max_pairs=pairs)):
                compute()
            with pytest.raises(ResourceLimit), budget(Limits(max_pairs=pairs - 1)):
                compute()
        assert seeded() == scratch()

    def test_pairs_inside_a_block_are_not_reduced(self, rxy):
        # x^2 and x*y share x, so a walk from scratch reduces their pair;
        # as one seeded block they are a Groebner basis already.
        x, y = rxy.var("x"), rxy.var("y")
        block = [x * x, x * y]
        with budget(Limits(max_pairs=0)):
            seeded = Ideal.seeded(rxy, block, [block]).basis()
        assert seeded == Ideal(rxy, block).basis()
        with pytest.raises(ResourceLimit), budget(Limits(max_pairs=0)):
            Ideal(rxy, block).basis()


def _tuple_key(order, mono):
    """The monomial order on exponent tuples, written out independently."""
    def grevlex(m):
        return (sum(m), tuple(-e for e in reversed(m)))
    if order.kind == "lex":
        return tuple(mono)
    if order.kind == "grevlex":
        return grevlex(mono)
    return (grevlex(mono[:order.split]), grevlex(mono[order.split:]))


def _block_degrees(order, mono):
    if order.kind == "elim":
        return [sum(mono[:order.split]), sum(mono[order.split:])]
    return [sum(mono)]


@st.composite
def _packing_cases(draw):
    """An order, a field width and two exponent tuples (pi last) whose total
    degrees fit the width, as every packed input must."""
    nvars = draw(st.integers(0, 4))
    split = draw(st.sampled_from([0, 1, nvars, nvars + 1]))
    order = draw(st.sampled_from([LEX, GREVLEX, elim_order(split)]))
    bits = draw(st.sampled_from([3, 7]))
    monos = []
    for _ in range(2):
        budget = (1 << bits) - 1
        mono = []
        for _ in range(nvars + 1):
            e = draw(st.integers(0, budget))
            budget -= e
            mono.append(e)
        monos.append(tuple(draw(st.permutations(mono))))
    return order, bits, monos[0], monos[1]


class TestPacking:
    """The packed monomials of the kernel against tuple arithmetic."""

    @given(case=_packing_cases())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_packed_arithmetic_matches_tuples(self, case):
        order, bits, a, b = case
        pk = _Packing(order, len(a) - 1, bits)
        pa, pb = pk.pack(a), pk.pack(b)
        assert pk.unpack(pa) == a and pk.degree(pa) == sum(a)
        assert not pa & pk.guard
        # order comparison
        ka, kb = pa ^ pk.flip, pb ^ pk.flip
        ta, tb = _tuple_key(order, a), _tuple_key(order, b)
        assert (ka < kb) == (ta < tb) and (ka == kb) == (ta == tb)
        # divisibility
        assert (not (pb - pa) & pk.guard) == all(x <= y for x, y in zip(a, b))
        # product: a guard bit is set exactly when a field overflows
        prod = tuple(x + y for x, y in zip(a, b))
        fits = max(prod + tuple(_block_degrees(order, prod))) < 1 << bits
        assert (not (pa + pb) & pk.guard) == fits
        if fits:
            assert pk.unpack(pa + pb) == prod and pk.degree(pa + pb) == sum(prod)
        # lcm, with its block degrees summed again
        lcm = tuple(max(x, y) for x, y in zip(a, b))
        if max(_block_degrees(order, lcm)) < 1 << bits:
            pl = pk.lcm(pa, pb)
            assert pk.unpack(pl) == lcm and pk.degree(pl) == sum(lcm)
            assert pl == pk.pack(lcm)
        else:
            with pytest.raises(_Overflow):
                pk.lcm(pa, pb)

    def test_pack_takes_the_width_of_the_degrees(self, rxy):
        x, y = rxy.var("x"), rxy.var("y")
        big = x ** 40000
        assert groebner._field_bits([big]) == 31
        pk = _Packing(rxy.order, rxy.nvars, groebner._field_bits([big]))
        assert pk.unpack(pk.pack((40000, 0, 0))) == (40000, 0, 0)
        ideal = Ideal(rxy, [big - y])
        assert ideal.normal_form(x ** 40001 + 1) == x * y + 1
        assert ideal.basis() == (big - y,)

    def test_division_widens_on_overflow(self, rxy, monkeypatch):
        # x - y^20000 packs in 15-bit fields; dividing x^2 reaches y^40000.
        widths = []
        packing = groebner._packing
        def spy(order, nvars, bits):
            widths.append(bits)
            return packing(order, nvars, bits)
        monkeypatch.setattr(groebner, "_packing", spy)
        x, y = rxy.var("x"), rxy.var("y")
        assert Ideal(rxy, [x - y ** 20000]).normal_form(x ** 2) == y ** 40000
        assert widths[:2] == [15, 31]

    def test_certificate_across_a_widened_walk(self, rxy, monkeypatch):
        # The generators pack in 7-bit fields; their S-pair is y^128 - 1.
        walks = []
        walk = groebner._walk
        def spy(*args):
            walks.append(args[-1].bits)
            return walk(*args)
        monkeypatch.setattr(groebner, "_walk", spy)
        x, y = rxy.var("x"), rxy.var("y")
        gens = [x * y - 1, y ** 127 - x]
        f = gens[0] * (x + 3) + gens[1] * y ** 2
        with budget(Limits(max_degree=200)):
            cert = membership(f, Ideal(rxy, gens))
        assert walks == [7, 15]
        assert cert.member
        assert sum((c * g for c, g in zip(cert.cofactors, gens)), rxy.zero()) == f


class TestRandomizedSlices:
    def test_oracle_agreement(self):
        assert suites.groebner_oracle_suite(40, seed=7) == 40

    def test_saturation_elimination(self):
        assert suites.saturation_suite(30, seed=7) == 30


class TestPackedDivisors:
    """An ideal keeps its divisor lists packed: repeated normal forms pack
    the held elements, and then the basis, once per field width."""

    def test_each_width_is_packed_once(self, rxy, monkeypatch):
        x, y = rxy.var("x"), rxy.var("y")
        held = Ideal(rxy, [x * x - y, y * y - x])
        member = (x * x - y) * (x + y)
        ideal = Ideal(rxy, [x * x - y, y * y - x])
        basis = ideal.basis()
        fs = [x, y * x, x ** 3, x ** 200, y ** 300 + x, x * y ** 2]
        want = [_reduce_full(f, list(basis))[0] for f in fs]
        packed = []
        element = _Packing.element

        def spy(self, terms):
            packed.append(self.bits)
            return element(self, terms)

        monkeypatch.setattr(_Packing, "element", spy)
        for _ in range(3):
            assert held.contains(member)
        assert held._basis is None
        assert packed == [7, 7]
        del packed[:]
        assert [ideal.normal_form(f) for f in fs + fs] == want + want
        assert packed == [7] * len(basis) + [15] * len(basis)
