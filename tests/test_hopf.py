"""Hopf presentations: axioms, morphisms, fibres, quotients, pruning."""

import random

import pytest

import neron.blowup
import neron.groebner
from neron.blowup import automatic_truncation, neron_blowup
from neron.config import Limits, budget
from neron.errors import ResourceLimit, UnknownVariable
from neron.groebner import Ideal
from neron.hopf import (PRIME1, PRIME2, PRIME3, GroupMorphism, HopfPresentation,
                        _prune_relations, check_flat, check_hopf, check_morphism, copy_into,
                        generic_fibre, hopf_ideal_report, isomorphism_report,
                        prune, quotient_presentation, reduce_mod, special_fibre,
                        tensor_ring)
from neron.library import (additive_group, borel2, general_linear,
                           multiplicative_group, product, roots_of_unity,
                           special_linear, trivial_group, twisted_multiplicative)
from neron.parser import print_group
from neron.report import Report
from neron.ring import SCALARS, Order, PolyRing, Substitution

from suites import reduce_mod_image, variables_used
from test_goldens import load_script



def all_stock():
    gm = multiplicative_group()
    ga = additive_group()
    return [gm, ga, twisted_multiplicative(1), twisted_multiplicative(2),
            roots_of_unity(2), trivial_group(), general_linear(2),
            special_linear(2), borel2(), product(gm, ga)]


class TestReport:
    def test_vanishes_witnesses_a_nonzero_residue(self):
        ring = PolyRing(("x",))
        rep = Report("residues")
        rep.vanishes("zero poly", "a", ring.zero())
        rep.vanishes("nonzero poly", "b", ring.var("x") - 1)
        rep.vanishes("nonzero scalar", "c", SCALARS.pi().scale(2))
        assert [(c.name, c.subject, c.ok, c.witness) for c in rep.checks] == [
            ("zero poly", "a", True, ""),
            ("nonzero poly", "b", False, "x - 1"),
            ("nonzero scalar", "c", False, "2*pi")]


class TestAxioms:
    @pytest.mark.parametrize("h", all_stock(), ids=lambda h: h.name)
    def test_stock_groups_are_hopf_and_flat(self, h):
        rep = check_hopf(h)
        assert rep.ok, "\n".join(rep.lines())

    def test_one_legged_comultiplication_fails(self):
        gm = multiplicative_group()
        ring = gm.ring
        broken = Substitution(ring, gm.doubled_ring(),
                              {"u": gm.doubled_ring().var("u'"),
                               "v": gm.doubled_ring().var("v'")})
        bad = HopfPresentation("Bad", ring, gm.relations, broken,
                               gm.counit, gm.antipode)
        rep = check_hopf(bad)
        assert not rep.ok
        names = {c.name for c in rep.failures()}
        assert "counit is left neutral" in names

    def test_non_flat_detected(self):
        ring = PolyRing(("x",))
        x = ring.var("x")
        counit = Substitution(ring, PolyRing(()), {"x": PolyRing(()).zero()})
        ring2 = tensor_ring(ring, ("'", "''"))
        comul = Substitution(ring, ring2, {"x": ring2.var("x'") + ring2.var("x''")})
        antipode = Substitution(ring, ring, {"x": -x})
        torsion = HopfPresentation("T", ring, Ideal(ring, [ring.pi() * x]),
                                   comul, counit, antipode)
        rep = check_flat(torsion)
        assert not rep.ok
        assert any("pi multiple" in c.witness for c in rep.failures())

    def test_pi_leading_term_in_tensor_ring(self):
        # regression: relations whose lead term carries pi must transfer
        # to each tensor factor without losing the pi part
        t = twisted_multiplicative(1)
        ring2 = t.doubled_ring()
        moved = copy_into(t.relations.generators[0], ring2, "'")
        assert t.doubled_ideal().contains(moved)
        assert t.doubled_ideal().contains(t.comul(t.relations.generators[0]))


STOCK_NAMES = [name for _, name in load_script().STOCK]


@pytest.fixture(scope="module")
def stock():
    return {name: h for (_, name), h in load_script().STOCK.items()}


class TestTensorIdeals:
    """Tensor ideals start from the renamed per-copy reduced bases and
    build their own basis only on first use."""

    @pytest.mark.parametrize("blown", [False, True], ids=["stock", "blowup"])
    @pytest.mark.parametrize("name", STOCK_NAMES)
    def test_seeded_bases_equal_bases_from_scratch(self, stock, name, blown):
        h = automatic_truncation(stock[name], 1).blown if blown else stock[name]
        for ideal, suffixes in ((h.doubled_ideal(), (PRIME1, PRIME2)),
                                (h.tripled_ideal(), (PRIME1, PRIME2, PRIME3))):
            ring_t = ideal.ring
            gens = [copy_into(g, ring_t, s) for s in suffixes for g in h.relations.generators]
            assert ideal.basis() == Ideal(ring_t, gens).basis()

    def test_passing_check_builds_no_tripled_basis(self):
        h = automatic_truncation(multiplicative_group(), 1).blown
        assert any(g.lead_monomial()[-1] for g in h.relations.basis())
        assert check_hopf(h).ok
        assert h.tripled_ideal()._basis is None

    def test_comultiplication_must_land_in_the_doubled_ring(self):
        gm = multiplicative_group()
        for target in (tensor_ring(gm.ring, (PRIME2, PRIME1)),
                       PolyRing(gm.doubled_ring().variables, Order("grevlex"))):
            comul = Substitution(gm.ring, target, {v: target.var(v + PRIME1)
                                                   for v in gm.ring.variables})
            with pytest.raises(UnknownVariable):
                HopfPresentation("Bad", gm.ring, gm.relations, comul,
                                 gm.counit, gm.antipode)
        assert gm.doubled_ring() is gm.comul.target


class TestSaturationKept:
    def test_check_flat_of_a_blowup_saturates_nothing(self, monkeypatch):
        # the blown relations are the pruned saturation of the chart, marked
        # as their own saturation
        h = automatic_truncation(multiplicative_group(), 1).blown
        calls = []
        saturate = neron.groebner.saturate
        monkeypatch.setattr(neron.groebner, "saturate",
                            lambda *a: calls.append(a) or saturate(*a))
        assert check_hopf(h).ok
        assert check_flat(h).ok
        assert len(calls) == 0

    def test_pruning_keeps_the_saturation_mark(self):
        ring = PolyRing(("x", "y"))
        x, y, pi = ring.var("x"), ring.var("y"), ring.pi()
        sat = neron.groebner.saturate_pi(Ideal(ring, [pi * x - pi * y * y, y ** 3 - 1]))
        assert [str(g) for g in sat.basis()] == ["y^3 - 1", "x - y^2"]
        kept, eliminated, _ = _prune_relations(sat)
        assert list(eliminated) == ["x"]
        assert kept.basis() == (kept.ring.var("y") ** 3 - 1,)
        # the kept ideal is the saturation read in fewer variables
        assert neron.groebner.saturate_pi(kept) is kept

    def test_saturation_is_its_own_saturation(self):
        ring = PolyRing(("x",))
        x = ring.var("x")
        ideal = Ideal(ring, [ring.pi() * x])
        sat = neron.groebner.saturate_pi(ideal)
        assert neron.groebner.saturate_pi(ideal) is sat
        assert neron.groebner.saturate_pi(sat) is sat
        assert sat.contains(x)


class TestMorphisms:
    def test_inclusion_of_torsion(self):
        gm = multiplicative_group()
        mu = roots_of_unity(2)
        pull = Substitution(gm.ring, mu.ring,
                            {"u": mu.ring.var("u"), "v": mu.ring.var("v")})
        incl = GroupMorphism("incl", mu, gm, pull)
        assert check_morphism(incl).ok
        iso = isomorphism_report(incl)
        assert not iso.ok

    def test_identity_is_isomorphism(self):
        gm = multiplicative_group()
        ident = GroupMorphism("id", gm, gm, Substitution.identity(gm.ring))
        assert isomorphism_report(ident).ok

    def test_wrong_pullback_rejected(self):
        gm = multiplicative_group()
        ga = additive_group()
        pull = Substitution(gm.ring, ga.ring,
                            {"u": ga.ring.var("x"), "v": ga.ring.var("x")})
        bad = GroupMorphism("bad", ga, gm, pull)
        rep = check_morphism(bad)
        assert not rep.ok
        assert any(c.name == "pullback respects relations" for c in rep.failures())

    def test_inversion_is_an_automorphism(self):
        gm = multiplicative_group()
        pull = Substitution(gm.ring, gm.ring,
                            {"u": gm.ring.var("v"), "v": gm.ring.var("u")})
        inv = GroupMorphism("inv", gm, gm, pull)
        assert isomorphism_report(inv).ok


class TestFibres:
    def test_special_fibre_drops_pi(self):
        t = twisted_multiplicative(1)
        fib = special_fibre(t)
        assert fib.name == "Gm^(1)_k"
        x, y = fib.ring.var("x"), fib.ring.var("y")
        assert fib.relations.same_ideal(Ideal(fib.ring, [x + y]))
        assert check_hopf(fib).ok

    def test_generic_fibre_saturates(self):
        ring = PolyRing(("x",))
        x = ring.var("x")
        counit = Substitution(ring, PolyRing(()), {"x": PolyRing(()).zero()})
        ring2 = tensor_ring(ring, ("'", "''"))
        comul = Substitution(ring, ring2, {"x": ring2.var("x'") + ring2.var("x''")})
        antipode = Substitution(ring, ring, {"x": -x})
        torsion = HopfPresentation("T", ring, Ideal(ring, [ring.pi() * x]),
                                   comul, counit, antipode)
        fib = generic_fibre(torsion)
        assert fib.name == "T_K"
        assert fib.relations.contains(x)

    def test_generic_fibre_honours_the_pair_budget(self):
        # Saturating (pi*x, pi*x^2) walks the pair of pi*x and 1 - t*pi,
        # whose leads share pi; a single generator would saturate in closed
        # form, with no pair.
        ring = PolyRing(("x",))
        x = ring.var("x")
        counit = Substitution(ring, PolyRing(()), {"x": PolyRing(()).zero()})
        ring2 = tensor_ring(ring, ("'", "''"))
        comul = Substitution(ring, ring2, {"x": ring2.var("x'") + ring2.var("x''")})
        torsion = HopfPresentation("T", ring, Ideal(ring, [ring.pi() * x, ring.pi() * x * x]),
                                   comul, counit, Substitution(ring, ring, {"x": -x}))
        with pytest.raises(ResourceLimit), budget(Limits(max_pairs=0)):
            generic_fibre(torsion)
        assert generic_fibre(torsion).relations.contains(x)


class TestReduceMod:
    def test_multiplicative_group_stays_nontrivial(self):
        gm = multiplicative_group()
        res = reduce_mod(gm, 0)
        assert not res.trivial
        assert res.presentation.name == "Gm_mod0"

    def test_forced_constants_are_trivial(self):
        mu1 = roots_of_unity(1)
        res = reduce_mod(mu1, 3)
        assert res.trivial

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            reduce_mod(multiplicative_group(), -1)

    def test_image_of_congruence_subgroup(self):
        from neron.blowup import automatic_truncation
        gm = multiplicative_group()
        tower = automatic_truncation(gm, 2)
        for n in range(4):
            res = reduce_mod_image(tower.projection, n)
            assert res.trivial == (n < 2), n


class TestQuotientAndPrune:
    def test_hopf_ideal_conditions(self):
        gm = multiplicative_group()
        u, v = gm.ring.var("u"), gm.ring.var("v")
        good = hopf_ideal_report(gm, [u - 1, v - 1], 0)
        assert good.ok
        bad = hopf_ideal_report(gm, [u + 1], 0)
        assert not bad.ok
        assert any(c.name == "counit vanishes" for c in bad.failures())

    def test_quotient_to_torsion(self):
        gm = multiplicative_group()
        u, v = gm.ring.var("u"), gm.ring.var("v")
        q = quotient_presentation(gm, [u * u - 1], "mu2q")
        assert check_hopf(q).ok
        assert q.relations.same_ideal(roots_of_unity(2).relations.in_ring(q.ring))

    def test_with_relations_keeps_the_structure_maps(self):
        gm = multiplicative_group()
        doubled = gm.doubled_ideal()
        rels = gm.relations.plus([gm.ring.var("u") ** 2 - 1])
        mu2 = gm.with_relations("mu2", rels)
        assert (mu2.name, mu2.ring, mu2.relations) == ("mu2", gm.ring, rels)
        assert (mu2.comul, mu2.counit, mu2.antipode) == (gm.comul, gm.counit, gm.antipode)
        assert mu2.doubled_ideal() is not doubled
        assert check_hopf(mu2).ok

    def test_prune_eliminates_solved_variable(self):
        both = product(multiplicative_group(), additive_group())
        killed = quotient_presentation(both, [both.ring.var("x")], "GmxGa/x")
        small, eliminated = prune(killed)
        assert set(small.ring.variables) == {"u", "v"}
        assert eliminated["x"].is_zero()
        assert check_hopf(small).ok


def iterative_prune(h):
    """The reference: one solved variable per turn, each turn substituting
    into the basis, rebuilding the presentation and walking again."""
    current, eliminated = h, {}
    while True:
        ring = current.ring
        basis = current.relations.basis()
        found = None
        for g in basis:
            m = g.lead_monomial()
            if sum(m[:-1]) != 1 or m[-1] != 0:
                continue
            w = ring.variables[m.index(1)]
            if w not in variables_used(g.tail()):
                found = (w, -g.tail())
                break
        if found is None:
            return current, eliminated
        w, expr = found
        small = ring.drop((w,))
        images = {v: small.var(v) for v in ring.variables if v != w}
        images[w] = expr.in_ring(small)
        sub = Substitution(ring, small, images)
        ring2 = tensor_ring(small, (PRIME1, PRIME2))
        push = Substitution(current.doubled_ring(), ring2,
                            {v + s: copy_into(img, ring2, s)
                             for v, img in images.items() for s in (PRIME1, PRIME2)})
        moved = [sub(g) for g in basis]
        current = HopfPresentation.from_images(
            current.name, small, Ideal(small, [g for g in moved if not g.is_zero()]),
            {v: push(current.comul.images[v]) for v in small.variables},
            {v: current.counit.images[v] for v in small.variables},
            {v: sub(current.antipode.images[v]) for v in small.variables})
        eliminated = {k: sub(e) for k, e in eliminated.items()}
        eliminated[w] = images[w]


PRUNE_GROUPS = {
    "GmxGa": lambda: product(multiplicative_group(), additive_group()),
    "GaxGa": lambda: product(additive_group("x"), additive_group("y")),
    "GL2": lambda: general_linear(2),
    "B2": borel2,
}


def random_quotient(rng, h):
    """h modulo w - f for a random set of variables w, each f a small
    polynomial in the other variables with pi in some terms; now and then
    a generator is multiplied by pi or given a quadratic term, so that not
    every w is solved."""
    ring = h.ring
    names = list(ring.variables)
    gens = []
    for w in rng.sample(names, rng.randint(1, len(names))):
        others = [v for v in names if v != w]
        f = ring.scalar(rng.randint(-2, 2))
        for _ in range(rng.randint(0, 2) if others else 0):
            term = ring.pi(rng.randint(0, 1)) * rng.choice([1, -1, 2, 3])
            for v in rng.sample(others, rng.randint(1, min(2, len(others)))):
                term = term * ring.var(v)
            f = f + term
        g = ring.var(w) - f
        if rng.random() < 0.2:
            g = g * ring.pi() if rng.random() < 0.5 else g + ring.var(w) * ring.var(rng.choice(names))
        gens.append(g)
    return quotient_presentation(h, gens, h.name + "/q")


class TestPruneInOneSubstitution:
    @pytest.mark.parametrize("name", sorted(PRUNE_GROUPS))
    def test_matches_the_iterative_prune(self, name):
        counts = []
        for seed in range(30):
            h = random_quotient(random.Random(seed), PRUNE_GROUPS[name]())
            small, eliminated = prune(h)
            ref, ref_eliminated = iterative_prune(h)
            assert print_group(small) == print_group(ref), seed
            assert small.relations.basis() == ref.relations.basis(), seed
            assert list(eliminated.items()) == list(ref_eliminated.items()), seed
            counts.append(len(eliminated))
        assert 0 in counts and max(counts) >= 2

    @staticmethod
    def count_walks(monkeypatch):
        walks = []
        walk = neron.groebner._walk
        monkeypatch.setattr(neron.groebner, "_walk", lambda *a: walks.append(a) or walk(*a))
        return walks

    def test_prune_of_a_held_basis_walks_nothing(self, monkeypatch):
        both = product(multiplicative_group(), additive_group())
        x, u = both.ring.var("x"), both.ring.var("u")
        h = quotient_presentation(both, [x - u * u + 1, u - 1], "GmxGa/q")
        h.relations.basis()
        walks = self.count_walks(monkeypatch)
        small, eliminated = prune(h)
        assert list(eliminated) == ["x", "v", "u"]
        assert small.relations.basis() == ()
        assert walks == []

    def test_prune_after_a_blowup_walks_nothing(self, monkeypatch):
        gm = multiplicative_group()
        u, v = gm.ring.var("u"), gm.ring.var("v")
        walks = self.count_walks(monkeypatch)
        seen = []
        step = neron.blowup._prune_relations

        def counted(relations):
            # the blowup prunes its saturated relations with the step that
            # prune(h) uses, before it divides any structure map
            before = len(walks)
            small, eliminated, sub = step(relations)
            small.basis()
            seen.append((len(walks) - before, list(eliminated)))
            return small, eliminated, sub

        monkeypatch.setattr(neron.blowup, "_prune_relations", counted)
        b = neron_blowup(gm, Ideal(gm.ring, [gm.ring.pi(), u - 1, v - 1]))
        # u and v are taken by the chart, so the pruning solves nothing more
        assert seen == [(0, [])]
        assert list(b.eliminated) == ["v", "u"]

