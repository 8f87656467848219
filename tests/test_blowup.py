"""Dilatation machinery: single steps, towers, transforms, lifts."""

import pytest

import neron.blowup
import neron.groebner
from neron import cli
from neron.blowup import (BlowupResult, automatic_member, automatic_truncation,
                          check_constancy, fresh_xi_names, neron_blowup, partial_blowup,
                          standard_sequence, strict_transform, universal_lift)
from neron.config import Limits, budget
from neron.errors import DivisionObstruction, LiftFailure, NotASubgroup
from neron.groebner import Ideal, certified_pi_division, contract, membership, saturate_pi
from neron.hopf import (PRIME1, PRIME2, GroupMorphism, HopfPresentation, _prune_relations,
                        check_flat, check_hopf, check_morphism, doubled, isomorphism_report,
                        prune, special_fibre, tensor_ideal, tensor_ring)
from neron.library import (additive_group, borel2, general_linear,
                           multiplicative_group, product, twisted_multiplicative)
from neron.parser import parse_poly_list, print_group
from neron.report import Report
from neron.ring import PolyRing, Substitution, format_poly

import suites



def identity_centre(h) -> Ideal:
    return Ideal(h.ring, [h.ring.pi()] + list(h.aug_gens()))


class TestSingleStep:
    def test_multiplicative_at_unit_section(self):
        gm = multiplicative_group()
        u = gm.ring.var("u")
        b = neron_blowup(gm, Ideal(gm.ring, [gm.ring.pi(), u - 1]))
        assert b.report.ok
        assert b.level == 1
        assert b.blown.name == "Gm'"
        assert b.blown.ring.variables == ("v", "xi1")
        assert [format_poly(g) for g in b.blown.relations.generators] == [
            "v*xi1*pi + v - 1"]
        assert format_poly(b.blown.comul.images["xi1"]) == (
            "xi1'*xi1''*pi + xi1' + xi1''")
        assert format_poly(b.blown.antipode.images["xi1"]) == "-v*xi1"
        assert format_poly(b.blown.antipode.images["v"]) == "xi1*pi + 1"
        assert b.adjoined == ("xi1",)
        assert format_poly(b.xi_map["xi1"]) == "u - 1"
        assert format_poly(b.eliminated["u"]) == "xi1*pi + 1"
        assert format_poly(b.projection.pullback.images["u"]) == "xi1*pi + 1"
        assert check_morphism(b.projection).ok

    def test_blown_group_is_twisted_form(self):
        gm = multiplicative_group()
        u = gm.ring.var("u")
        b = neron_blowup(gm, Ideal(gm.ring, [gm.ring.pi(), u - 1]))
        t = twisted_multiplicative(1)
        ring = b.blown.ring
        xi, v = ring.var("xi1"), ring.var("v")
        iso = GroupMorphism("match", b.blown, t,
                            Substitution(t.ring, ring, {"x": xi, "y": -v * xi}))
        assert isomorphism_report(iso).ok

    def test_centre_must_be_a_subgroup(self):
        gm = multiplicative_group()
        u = gm.ring.var("u")
        with pytest.raises(NotASubgroup):
            neron_blowup(gm, Ideal(gm.ring, [gm.ring.pi(), u]))
        with pytest.raises(NotASubgroup):
            neron_blowup(gm, Ideal(gm.ring, [gm.ring.pi(), u + 1]))

    def test_special_fibre_becomes_additive(self):
        gm = multiplicative_group()
        b = neron_blowup(gm, identity_centre(gm))
        fib, _ = prune(special_fibre(b.blown))
        assert len(fib.ring.variables) == 1
        x = fib.ring.var(fib.ring.variables[0])
        assert fib.relations.is_zero()
        img = fib.comul.images[fib.ring.variables[0]]
        two = fib.doubled_ring()
        assert img == two.var(fib.ring.variables[0] + "'") + two.var(
            fib.ring.variables[0] + "''")

    def test_fresh_names_skip_taken(self):
        assert fresh_xi_names(PolyRing(("xi1", "a")), 2) == ["xi2", "xi3"]


class TestAutomaticTruncation:
    def test_matches_twisted_presentation(self):
        gm = multiplicative_group()
        for n in (1, 2, 3):
            tower = automatic_truncation(gm, n)
            blown = tower.blown
            assert blown.name == f"Gm^({n})"
            lo, hi = f"xi{2 * n - 1}", f"xi{2 * n}"
            assert blown.ring.variables == (lo, hi)
            t = twisted_multiplicative(n)
            rename = {"x": lo, "y": hi}
            moved = t.relations.in_ring(blown.ring, rename)
            assert blown.relations.same_ideal(moved)
            two = blown.doubled_ring()
            expect = (two.var(lo + "'") * two.var(lo + "''") * two.pi(n)
                      + two.var(lo + "'") + two.var(lo + "''"))
            assert blown.comul.images[lo] == expect
            assert blown.antipode.images[lo] == blown.ring.var(hi)
            assert blown.antipode.images[hi] == blown.ring.var(lo)
            assert format_poly(tower.projection.pullback.images["u"]) == (
                f"xi{2 * n - 1}*pi^{n} + 1" if n > 1 else "xi1*pi + 1")

    def test_additive_levels(self):
        ga = additive_group()
        for n in (1, 2, 3, 4):
            tower = automatic_truncation(ga, n)
            blown = tower.blown
            assert blown.name == f"Ga^({n})"
            assert blown.ring.variables == (f"xi{n}",)
            assert blown.relations.is_zero()
            two = blown.doubled_ring()
            assert blown.comul.images[f"xi{n}"] == (
                two.var(f"xi{n}'") + two.var(f"xi{n}''"))
            proj = tower.projection.pullback.images["x"]
            assert proj == blown.ring.var(f"xi{n}") * blown.ring.pi(n)
            assert len(tower.chain) == n

    @pytest.mark.parametrize("group, level", [
        (multiplicative_group, 24), (general_linear, 4), (borel2, 4),
    ], ids=["gm-24", "gl2-4", "b2-4"])
    def test_towers_fit_a_small_pair_budget(self, group, level):
        # A scale guard that reads no clock: a pi-saturation is one lex walk
        # whose result keeps its basis, so no walk of these towers reduces
        # more than a handful of pairs (10 suffice today).
        with budget(Limits(max_pairs=20)):
            tower = automatic_truncation(group(), level)
        assert tower.report.ok
        assert tower.level == level

    @pytest.mark.parametrize("group, level, width", [
        (multiplicative_group, 8, 2),
        (lambda: product(multiplicative_group(), additive_group()), 3, 3),
        (borel2, 2, 4), (general_linear, 2, 5),
    ], ids=["gm-8", "gmxga-3", "b2-2", "gl2-2"])
    def test_widest_walk_is_in_a_pruned_ring(self, monkeypatch, group, level, width):
        # Each step saturates in its chart, prunes, and divides its
        # comultiplication images by the two relation copies alone, so no
        # walk of a tower runs in a doubled ring (no primed variable), in
        # the unpruned ring with a tag (5, 7, 9 and 11 variables for these
        # four), or in the pruned doubled ring (4, 6, 8 and 10): the widest
        # walk is a base group's relation basis.
        rings = []
        walk = neron.groebner._buchberger
        monkeypatch.setattr(neron.groebner, "_buchberger",
                            lambda gens, ring, *a, **k: rings.append(ring.variables)
                            or walk(gens, ring, *a, **k))
        automatic_truncation(group(), level)
        assert max(map(len, rings)) == width
        assert not [r for r in rings if any("'" in v for v in r)]

    def test_membership_bound(self):
        ga = additive_group()
        x = ga.ring.var("x")
        for m in range(1, 6):
            assert automatic_member(ga, x, m)
        assert not automatic_member(ga, x + 1, 1)
        gm = multiplicative_group()
        u = gm.ring.var("u")
        assert automatic_member(gm, u - 1, 3)
        assert not automatic_member(gm, u, 1)


class TestPartialBlowup:
    def test_depth_and_projection(self):
        gm = multiplicative_group()
        aug = Ideal(gm.ring, list(gm.aug_gens()))
        for n in (0, 1, 2):
            res = partial_blowup(gm, aug, n)
            assert res.level == n + 1
            assert res.blown.name == f"Gm^[{n}]"
            power = "pi" if n == 0 else f"pi^{n + 1}"
            assert format_poly(res.projection.pullback.images["u"]) == (
                f"xi1*{power} + 1")
            assert check_hopf(res.blown).ok


class TestStandardSequence:
    def test_additive_tower(self):
        ga = additive_group()
        tower = automatic_truncation(ga, 3)
        seq = standard_sequence(tower.projection, 3)
        assert seq.depth == 3
        assert [s.group.name for s in seq.stages] == ["Ga[1]", "Ga[2]", "Ga[3]"]
        centres = [[format_poly(g) for g in s.centre.generators]
                   for s in seq.stages]
        assert centres == [["pi", "x"], ["pi", "xi1"], ["pi", "xi2"]]
        # the tower of truncations is exactly the sequence of stages
        for i, stage in enumerate(seq.stages, start=1):
            step = automatic_truncation(ga, i).blown
            assert stage.group.ring.variables == step.ring.variables
            assert stage.group.relations.same_ideal(step.relations)
            assert stage.group.comul.images == step.comul.images
        assert seq.lifted.source.name == "Ga^(3)"
        xi3 = seq.lifted.source.ring.var("xi3")
        assert seq.lifted.pullback.images == {"xi3": xi3}


class TestStrictTransform:
    def test_torsion_inside_unit_blowup(self):
        gm = multiplicative_group()
        u, v = gm.ring.var("u"), gm.ring.var("v")
        b = neron_blowup(gm, identity_centre(gm))
        out = strict_transform(b, Ideal(gm.ring, [u * u - 1, v - u]))
        ring = out.ring
        x1, x2 = ring.var("xi1"), ring.var("xi2")
        expect = Ideal(ring, [x1 - x2, x2 * x2 * ring.pi() + x2 * 2])
        assert out.same_ideal(expect)

    def test_transform_is_pi_saturated(self):
        from neron.groebner import saturate_pi
        gm = multiplicative_group()
        u = gm.ring.var("u")
        b = neron_blowup(gm, identity_centre(gm))
        out = strict_transform(b, Ideal(gm.ring, [u * u - 1]))
        assert saturate_pi(out).same_ideal(out)


def reference_constancy(h, subgroup, depth):
    """`check_constancy` by the route that shares nothing: each stage runs
    `neron_blowup` and `strict_transform`, with every check they make, a
    contraction, and one subalgebra walk per new variable."""
    gens = list(subgroup.in_ring(h.ring).generators)
    neron.blowup._flat_subgroup_checks(h, gens)
    rep = Report(f"centre fibres along {depth} blowups of {h.name}")
    current, cur_gens = h, gens
    for i in range(depth):
        stage = f"stage {i + 1}"
        b = neron_blowup(current, Ideal(current.ring, [current.ring.pi()] + cur_gens))
        transformed = strict_transform(b, Ideal(current.ring, cur_gens))
        pull = b.projection.pullback
        before = current.relations.plus(cur_gens + [current.ring.pi()])
        after = transformed.plus([b.blown.ring.pi()])
        rep.add("centre fibre contracts to the previous one", stage,
                contract(pull, after).same_ideal(before))
        images = [pull(current.ring.var(v)) for v in current.ring.variables]
        onto = all(suites.subalgebra_walk(b.blown.ring.var(w), images, after) is not None
                   for w in b.blown.ring.variables)
        rep.add("centre fibre is covered by the previous one", stage, onto)
        current = b.blown
        cur_gens = [g for g in transformed.basis() if not b.blown.relations.contains(g)]
        if not cur_gens:
            cur_gens = list(transformed.basis())
    return rep


def _subgroups():
    """Flat subgroups of the blowup suite's groups (each centre less pi),
    and the torus and the unipotent radical of B2."""
    cases = {}
    for i, h in enumerate(suites._group_pool()):
        for j in range(len(suites._centres(h))):
            def subgroup(i=i, j=j):
                h, centre = _suite_centre(i, j)
                return h, centre[1:]

            cases[f"{h.name}-centre{j}"] = subgroup
    for text in ("a12", "a11 - 1, a22 - 1, e - 1"):
        cases[f"B2-{text.replace(' ', '')}"] = lambda text=text: (
            borel2(), list(parse_ideal(borel2(), text).generators))
    return cases


_SUBGROUPS = _subgroups()


class TestConstancy:
    def test_multiplicative_identity(self):
        gm = multiplicative_group()
        rep = check_constancy(gm, Ideal(gm.ring, list(gm.aug_gens())), 3)
        assert rep.ok
        assert rep.title == "centre fibres along 3 blowups of Gm"

    def test_additive_factor(self):
        both = product(multiplicative_group(), additive_group())
        rep = check_constancy(both, Ideal(both.ring, [both.ring.var("x")]), 2)
        assert rep.ok

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(_SUBGROUPS))
    def test_matches_the_reference_route(self, case, depth):
        h, gens = _SUBGROUPS[case]()
        got = check_constancy(h, Ideal(h.ring, gens), depth)
        assert got.lines() == reference_constancy(h, Ideal(h.ring, gens), depth).lines()
        assert got.ok

    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("case", ["Gm-centre0", "GmxGa-centre1", "B2-a12"])
    def test_one_graph_walk_and_one_certificate_per_stage(self, monkeypatch, case, depth):
        # The graph walks are the only ones in an elimination order: one a
        # stage serves the contraction and every membership.  The Hopf
        # ideal report runs on the subgroup once, and once on each
        # transform, and never at pi_power 1.
        graph_walks, reports = [], []
        walk, report = neron.groebner._buchberger, neron.blowup.hopf_ideal_report

        def counting_walk(gens, ring, *args, **kwargs):
            if ring.order.kind == "elim":
                graph_walks.append(ring.nvars)
            return walk(gens, ring, *args, **kwargs)

        def counting_report(h, gens, pi_power=0):
            reports.append(pi_power)
            return report(h, gens, pi_power)

        monkeypatch.setattr(neron.groebner, "_buchberger", counting_walk)
        monkeypatch.setattr(neron.blowup, "hopf_ideal_report", counting_report)
        h, gens = _SUBGROUPS[case]()
        assert check_constancy(h, Ideal(h.ring, gens), depth).ok
        assert len(graph_walks) == depth
        assert reports == [0] * (depth + 1)


class TestUniversalLift:
    def test_deeper_truncation_lifts(self):
        gm = multiplicative_group()
        b = neron_blowup(gm, identity_centre(gm))
        tower = automatic_truncation(gm, 2)
        lifted = universal_lift(tower.projection, b)
        assert check_morphism(lifted).ok
        rels = tower.blown.relations
        for var in gm.ring.variables:
            through = lifted.pullback(b.projection.pullback(gm.ring.var(var)))
            direct = tower.projection.pullback(gm.ring.var(var))
            assert rels.normal_form(through - direct).is_zero()

    def test_identity_does_not_lift(self):
        gm = multiplicative_group()
        b = neron_blowup(gm, identity_centre(gm))
        ident = GroupMorphism("id", gm, gm, Substitution.identity(gm.ring))
        with pytest.raises(LiftFailure):
            universal_lift(ident, b)


class TestRandomizedSlices:
    def test_blowups_stay_hopf_and_flat(self):
        assert suites.blowup_suite(25, seed=11) == 25

    def test_lifts(self):
        assert suites.lift_suite(8, seed=11) == 8


def _equations(h, gens, power):
    """The carried centre generators, their fresh names, the ring with the
    fresh variables and the generators pi^power * xi - a with the relations."""
    carried = [g for g in gens
               if not g.is_scalar() and not h.relations.contains(g)]
    names = fresh_xi_names(h.ring, len(carried))
    ring_b = h.ring.extend(tuple(names))
    gens_b = [g.in_ring(ring_b) for g in h.relations.generators]
    for nm, a in zip(names, carried):
        gens_b.append(ring_b.var(nm).mul_pi(power) - a.in_ring(ring_b))
    return carried, names, ring_b, gens_b


def _result(h, centre, names, carried, power, blown, eliminated):
    """The blowup result of a blown presentation and its eliminated variables."""
    proj = {v: eliminated[v] if v in eliminated else blown.ring.var(v)
            for v in h.ring.variables}
    projection = GroupMorphism(f"{blown.name}->{h.name}", blown, h,
                               Substitution(h.ring, blown.ring, proj))
    post = Report(f"blowup invariants for {blown.name}")
    for nm, a in zip(names, carried):
        xi = eliminated[nm] if nm in eliminated else blown.ring.var(nm)
        diff = xi.mul_pi(power) - projection.pullback(a)
        post.add("pi-power multiple of the fresh variable is the centre generator",
                 nm, blown.relations.contains(diff), format_poly(diff))
    adjoined = tuple(nm for nm in names if nm in blown.ring.variables)
    return BlowupResult(blown, projection, centre, adjoined, dict(zip(names, carried)),
                        power, eliminated, post)


def unpruned_blow(h, centre, gens, power, name):
    """The blowup step with the divisions before the pruning: saturate,
    divide in the unpruned ring and its doubled ring, then prune."""
    carried, names, ring_b, gens_b = _equations(h, gens, power)
    rels_b = saturate_pi(Ideal(ring_b, gens_b))
    ring2_b = tensor_ring(ring_b, (PRIME1, PRIME2))
    rels2_b = tensor_ideal(rels_b, ring2_b, (PRIME1, PRIME2))
    comul = {v: h.comul.images[v].in_ring(ring2_b) for v in h.ring.variables}
    counit = dict(h.counit.images)
    anti = {v: h.antipode.images[v].in_ring(ring_b) for v in h.ring.variables}
    for nm, a in zip(names, carried):
        comul[nm] = certified_pi_division(h.comul(a).in_ring(ring2_b), power, rels2_b)
        counit[nm] = h.eps_of(a).divide_pi(power)
        anti[nm] = certified_pi_division(h.antipode(a).in_ring(ring_b), power, rels_b)
    blown, eliminated = prune(HopfPresentation.from_images(
        name, ring_b, rels_b, comul, counit, anti))
    return _result(h, centre, names, carried, power, blown, eliminated)


def saturated_blow(h, centre, gens, power, name):
    """The blowup step with the saturation before any chart: saturate in
    the ring with every fresh variable, prune, then divide in the pruned
    ring and its doubled ring."""
    carried, names, ring_b, gens_b = _equations(h, gens, power)
    rels, eliminated, sub = _prune_relations(saturate_pi(Ideal(ring_b, gens_b)))
    push = doubled(sub)
    rels2 = tensor_ideal(rels, push.target, (PRIME1, PRIME2))
    comul, counit, anti = {}, {}, {}
    for v in h.ring.variables:
        if v not in eliminated:
            comul[v] = push(h.comul.images[v])
            counit[v] = h.eps(v)
            anti[v] = sub(h.antipode.images[v])
    for nm, a in zip(names, carried):
        divided = (certified_pi_division(push(h.comul(a)), power, rels2),
                   h.eps_of(a).divide_pi(power),
                   certified_pi_division(sub(h.antipode(a)), power, rels))
        if nm not in eliminated:
            comul[nm], counit[nm], anti[nm] = divided
    blown = HopfPresentation.from_images(name, sub.target, rels, comul, counit, anti)
    return _result(h, centre, names, carried, power, blown, eliminated)


def gmxga():
    return product(multiplicative_group(), additive_group())


def parse_ideal(h, text):
    return Ideal(h.ring, parse_poly_list(text, h.ring))


def _suite_centre(i, j):
    """Group i of the blowup suite's pool and its centre j."""
    h = suites._group_pool()[i]
    return h, suites._centres(h)[j]


def _equivalence_cases():
    cases = {}
    for i, h in enumerate(suites._group_pool()):
        for j in range(len(suites._centres(h))):
            def blow(i=i, j=j):
                h, centre = _suite_centre(i, j)
                return neron_blowup(h, Ideal(h.ring, centre))

            cases[f"{h.name}-centre{j}"] = blow
            for n in (0, 1, 2):
                def part(i=i, j=j, n=n):
                    h, centre = _suite_centre(i, j)
                    return partial_blowup(h, Ideal(h.ring, centre[1:]), n)

                cases[f"{h.name}-centre{j}-level{n}"] = part
    for group, level in ((multiplicative_group, 4), (gmxga, 3), (borel2, 2),
                         (general_linear, 2)):
        h = group()
        cases[f"{h.name}^({level})"] = lambda group=group, level=level: (
            automatic_truncation(group(), level))

    def doubled_generator():
        ga = additive_group()
        x = ga.ring.var("x")
        return neron_blowup(ga, Ideal(ga.ring, [ga.ring.pi(), x, x]))

    cases["Ga-pi,x,x"] = doubled_generator
    for centre, group in (("pi, 2*x", additive_group), ("pi, u - 1 + pi", multiplicative_group),
                          ("pi, u^2 - 1, x", gmxga), ("pi, u - 1, pi*v - pi", multiplicative_group),
                          ("pi, 3*u - 3 + pi^2, v - 1", multiplicative_group),
                          ("pi, x, 2*x + pi", additive_group)):
        cases[f"{group().name}-{centre}"] = lambda centre=centre, group=group: (
            neron_blowup(group(), parse_ideal(group(), centre)))
    for ideal, group in (("2*x", additive_group), ("u^2 - 1, v - u, x", gmxga)):
        cases[f"{group().name}-{ideal}-level1"] = lambda ideal=ideal, group=group: (
            partial_blowup(group(), parse_ideal(group(), ideal), 1))
    return cases


EQUIVALENCE_CASES = _equivalence_cases()


def outputs(res):
    """What a blowup prints and returns, as text."""
    return (print_group(res.blown),
            [(w, format_poly(g)) for w, g in res.eliminated.items()],
            [(v, format_poly(g)) for v, g in res.projection.pullback.images.items()],
            [(nm, format_poly(a)) for nm, a in res.xi_map.items()], res.adjoined,
            res.report.lines())


class TestPruneBeforeDividing:
    """Dividing in the pruned rings gives what dividing before the pruning
    gave: the normal form of an image modulo the saturated relations is
    free of the solved variables, so it is the normal form of its pushed
    image modulo the kept relations."""

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_matches_the_unpruned_route(self, monkeypatch, case):
        got = outputs(EQUIVALENCE_CASES[case]())
        monkeypatch.setattr(neron.blowup, "_blow", unpruned_blow)
        assert got == outputs(EQUIVALENCE_CASES[case]())

    def test_an_eliminated_fresh_variable_is_still_divided(self, monkeypatch):
        ga = additive_group()
        x = ga.ring.var("x")
        divided = []
        divide = neron.blowup.certified_pi_division
        monkeypatch.setattr(neron.blowup, "certified_pi_division",
                            lambda f, *a: divided.append(f) or divide(f, *a))
        b = neron_blowup(ga, Ideal(ga.ring, [ga.ring.pi(), x, x]))
        assert b.adjoined == ("xi2",)
        assert list(b.eliminated) == ["xi1", "x"]
        # both fresh variables' comultiplication and antipode images
        assert len(divided) == 4


class TestChartBeforeSaturating:
    """A carried generator lam*v - c, c in R, with v not charted yet, puts
    v = (c + pi^k*xi)/lam before the saturation, which then runs in the
    chart ring.  In lex, v leads lam*v - c - pi^k*xi, so the saturation
    in the full ring has the reduced basis v - NF((c + pi^k*xi)/lam) plus
    that of the chart's saturation: the blowup is the one that saturates
    first and prunes after."""

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_matches_the_saturate_then_prune_route(self, monkeypatch, case):
        got = outputs(EQUIVALENCE_CASES[case]())
        monkeypatch.setattr(neron.blowup, "_blow", saturated_blow)
        assert got == outputs(EQUIVALENCE_CASES[case]())

    @pytest.mark.parametrize("group, centre, chart, held", [
        (multiplicative_group, "pi, u - 1, v - 1", ("xi1", "xi2"), 1),
        (multiplicative_group, "pi, u - 1, pi*v - pi", ("v", "xi1", "xi2"), 2),
        (multiplicative_group, "pi, u^2 - 1, v - u", ("u", "v", "xi1", "xi2"), 3),
        (additive_group, "pi, 2*x", ("xi1",), 0),
        (additive_group, "pi, x, x", ("xi1", "xi2"), 1),
        (gmxga, "pi, u^2 - 1, x", ("u", "v", "xi1", "xi2"), 2),
        (gmxga, "pi, x, u - 1", ("v", "xi1", "xi2"), 1),
    ])
    def test_linear_generators_are_charted(self, monkeypatch, group, centre, chart, held):
        saturated = []
        saturate = neron.blowup.saturate_pi
        monkeypatch.setattr(neron.blowup, "saturate_pi",
                            lambda ideal: saturated.append(ideal) or saturate(ideal))
        h = group()
        b = neron_blowup(h, parse_ideal(h, centre))
        assert b.report.ok
        (ideal,) = saturated
        assert ideal.ring.variables == chart
        assert sum(not g.is_zero() for g in ideal.generators) == held


def reference_division(f, power, modulus):
    """The full-basis route: f reduced by the reduced basis of the
    modulus, always built, divided termwise by pi^power, or else the
    pi^power cofactor of a membership certificate."""
    ring = modulus.ring
    basis = modulus.basis()
    full = Ideal.with_basis(ring, modulus.generators, basis)
    nf = full.normal_form(f)
    if nf.pi_valuation() >= power:
        return nf.divide_pi(power)
    cert = membership(nf, Ideal(ring, [ring.pi(power)] + list(basis)))
    if not cert.member:
        raise DivisionObstruction("reference division fails", witness=format_poly(nf))
    return full.normal_form(cert.cofactors[0])


def _division_cases():
    """The equivalence cases (every group and centre of the blowup suite,
    partial blowups, towers), and the tower rungs Gm 1-8 and GL3 2."""
    cases = dict(EQUIVALENCE_CASES)
    for group, level in [(multiplicative_group, n) for n in range(1, 9)] + [
            (lambda: general_linear(3), 2)]:
        h = group()
        cases[f"{h.name}^({level})"] = lambda group=group, level=level: (
            automatic_truncation(group(), level))
    return cases


DIVISION_CASES = _division_cases()


class TestCopiesFirstDivision:
    """A blowup divides its comultiplication images in the doubled ring by
    the two relation copies alone.  The doubled ideal J is pi-saturated
    and a standard monomial divided by pi stays standard, so the full
    route's quotient is the normal form of the new one; the new one is
    pinned to equal it byte for byte, as every blowup here does today."""

    @pytest.mark.parametrize("case", sorted(DIVISION_CASES))
    def test_matches_the_full_basis_route(self, monkeypatch, case):
        made = []
        divide = neron.blowup.certified_pi_division

        def recording(f, power, modulus):
            out = divide(f, power, modulus)
            made.append((f, power, modulus, out))
            return out

        monkeypatch.setattr(neron.blowup, "certified_pi_division", recording)
        DIVISION_CASES[case]()
        assert made
        # every basis is built after the run, so none changed its divisions
        for f, power, modulus, new in made:
            old = reference_division(f, power, modulus)
            assert modulus.normal_form(new) == old
            assert format_poly(new) == format_poly(old)

    def test_gl4_truncation_builds_no_doubled_basis(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "gl4.grp"
        path.write_text(print_group(general_linear(4)))
        rings = []
        walk = neron.groebner._buchberger
        monkeypatch.setattr(neron.groebner, "_buchberger",
                            lambda gens, ring, *a, **k: rings.append(ring.variables)
                            or walk(gens, ring, *a, **k))
        assert cli.main(["auto-trunc", str(path), "--level", "1"]) == 0
        assert "GL4^(1)" in capsys.readouterr().out
        assert rings
        assert not [r for r in rings if any("'" in v for v in r)]
