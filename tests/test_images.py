"""Images of morphisms and the three fibres attached to them."""

import pytest

from neron.blowup import automatic_truncation, neron_blowup
from neron.groebner import Ideal
from neron.hopf import (PRIME1, PRIME2, GroupMorphism, HopfPresentation, check_hopf,
                        check_morphism, copy_into)
from neron.images import Triptych, image_hopf, saturated_image, triptych
from neron.library import (additive_group, multiplicative_group, product,
                           roots_of_unity, trivial_group)
from neron.report import Report
from neron.ring import Substitution, format_poly



def rels_of(h) -> list:
    return [format_poly(g) for g in h.relations.generators]


def fibre_kernel(t: Triptych) -> HopfPresentation:
    """Kernel of the saturated fibre mapping onto the mod-pi image:
    the fibre product with the unit section of the middle group."""
    sat = t.saturated_fibre
    mid = t.mod_pi_image
    ideal = sat.fibre_ideal().plus(t.into(g) for g in mid.aug_gens())
    return sat.with_relations(f"Ker({sat.name}->{mid.name})", ideal)


def check_unipotent_kernel(t: Triptych) -> Report:
    """Certify that the kernel of the fibre surjection is unipotent.

    Sufficient certificates, tried in order: a filtration of the kernel's
    coordinates by primitives (each variable comultiplies additively
    modulo the ones already certified), or nilpotence of the augmentation
    ideal with exponent at most 6.  Reports one line per certificate step
    and a final verdict line; an undecided result is not a refutation.
    """
    ker = fibre_kernel(t)
    rep = Report(f"unipotence certificate for {ker.name}")
    ring = ker.ring
    ring2 = ker.doubled_ring()
    rels2 = ker.doubled_ideal()
    aug = ker.aug_gens()
    todo = [v for i, v in enumerate(ring.variables)
            if not ker.relations.contains(aug[i])]
    shifted = dict(zip(ring.variables, aug))
    if not todo:
        rep.add("kernel is the trivial group", ker.name, True)
        rep.add("unipotence", ker.name, True, "certified")
        return rep
    certified = []
    progress = True
    while todo and progress:
        progress = False
        for v in list(todo):
            lower = [copy_into(shifted[w], ring2, s)
                     for w in certified for s in (PRIME1, PRIME2)]
            mod = rels2.plus(lower) if lower else rels2
            g = shifted[v]
            d = mod.normal_form(
                ker.comul(g) - copy_into(g, ring2, PRIME1) - copy_into(g, ring2, PRIME2))
            if d.is_zero():
                rep.add("coordinate is primitive modulo the previous ones", v, True)
                certified.append(v)
                todo.remove(v)
                progress = True
    if not todo:
        rep.add("unipotence", ker.name, True,
                "certified: additive filtration " + " < ".join(certified))
        return rep
    live = [g for g in (ker.relations.normal_form(a) for a in aug)
            if not g.is_zero()]
    power = live
    for m in range(2, 6 + 1):
        power = [ker.relations.normal_form(a * g)
                 for a in power for g in live]
        power = [g for g in power if not g.is_zero()]
        if not power:
            rep.add("augmentation ideal is nilpotent", f"exponent {m}", True)
            rep.add("unipotence", ker.name, True, "certified: nilpotent augmentation")
            return rep
    rep.add("unipotence", ker.name, False,
            "not decided at bound; unresolved: " + ", ".join(sorted(todo)))
    return rep


@pytest.fixture()
def unit_projection():
    gm = multiplicative_group()
    R = gm.ring
    b = neron_blowup(gm, Ideal(R, [R.pi(), R.var("u") - 1]))
    return b.projection


class TestImage:
    def test_projection_image_is_everything(self, unit_projection):
        img = image_hopf(unit_projection)
        assert rels_of(img.group) == ["u*v - 1"]
        assert check_hopf(img.group).ok
        assert check_morphism(img.embed).ok
        assert check_morphism(img.cover).ok

    def test_unit_section_image(self):
        gm = multiplicative_group()
        tr = trivial_group()
        emb = GroupMorphism("unit", tr, gm,
                            Substitution(gm.ring, tr.ring,
                                         {"u": tr.ring.one(), "v": tr.ring.one()}))
        img = image_hopf(emb)
        assert rels_of(img.group) == ["v - 1", "u - 1"]


class TestDiptych:
    def test_unit_blowup_stabilizes_in_one_step(self, unit_projection):
        dip = saturated_image(unit_projection, 5)
        assert dip.stabilized
        assert dip.report.ok
        assert [s.name for s in dip.stages] == ["Im(Gm'->Gm)", "Im(Gm'->Gm)[1]"]
        assert [s.ring.variables for s in dip.stages] == [
            ("u", "v"), ("xi1", "xi2")]
        assert [rels_of(s) for s in dip.stages] == [
            ["u*v - 1"], ["xi1*xi2*pi + xi1 + xi2"]]

    def test_identity_needs_no_steps(self):
        gm = multiplicative_group()
        ident = GroupMorphism("id", gm, gm, Substitution.identity(gm.ring))
        dip = saturated_image(ident, 3)
        assert dip.stabilized
        assert [s.name for s in dip.stages] == ["Im(id)"]

    def test_truncation_towers_stabilize(self):
        ga = additive_group()
        tower = automatic_truncation(ga, 2)
        dip = saturated_image(tower.projection, 6)
        assert dip.stabilized
        assert [s.ring.variables for s in dip.stages] == [
            ("x",), ("xi1",), ("xi2",)]


class TestTriptych:
    def test_unit_blowup_triple(self, unit_projection):
        t = triptych(unit_projection, 5)
        assert t.report.ok
        sat = t.saturated_fibre
        assert sat.name == "Im(Gm'->Gm)[1]_k"
        assert sat.ring.variables == ("xi2",)
        assert rels_of(sat) == []
        assert format_poly(sat.comul.images["xi2"]) == "xi2' + xi2''"
        assert t.mod_pi_image.ring.variables == ("u", "v")
        assert rels_of(t.mod_pi_image) == ["pi", "v - 1", "u - 1"]
        assert rels_of(t.image_fibre) == ["u*v - 1"]

    def test_identity_triple_collapses(self):
        gm = multiplicative_group()
        ident = GroupMorphism("id", gm, gm, Substitution.identity(gm.ring))
        t = triptych(ident, 3)
        assert t.report.ok
        assert t.saturated_fibre.ring.variables == ("u", "v")
        assert t.mod_pi_image.ring.variables == ("u", "v")
        assert check_unipotent_kernel(t).ok

    def test_unit_immersion_triple(self):
        gm = multiplicative_group()
        tr = trivial_group()
        emb = GroupMorphism("unit", tr, gm,
                            Substitution(gm.ring, tr.ring,
                                         {"u": tr.ring.one(), "v": tr.ring.one()}))
        t = triptych(emb, 3)
        assert t.report.ok
        assert t.diptych.stabilized
        assert rels_of(t.saturated_fibre) == []
        assert rels_of(t.mod_pi_image) == ["pi", "v - 1", "u - 1"]
        assert rels_of(t.image_fibre) == []

    def test_torsion_immersion_triple(self):
        gm = multiplicative_group()
        mu = roots_of_unity(2)
        emb = GroupMorphism("mu2-in", mu, gm,
                            Substitution(gm.ring, mu.ring,
                                         {"u": mu.ring.var("u"),
                                          "v": mu.ring.var("v")}))
        t = triptych(emb, 3)
        assert t.report.ok
        assert t.diptych.stabilized
        assert rels_of(t.saturated_fibre) == ["v^2 - 1"]
        assert rels_of(t.mod_pi_image) == ["pi", "v^2 - 1", "u - v"]
        assert rels_of(t.image_fibre) == ["v^2 - 1"]

    def test_multiplicative_tower_fibre_is_additive(self):
        gm = multiplicative_group()
        tower = automatic_truncation(gm, 2)
        t = triptych(tower.projection, 6)
        assert t.report.ok
        assert [s.ring.variables for s in t.diptych.stages] == [
            ("u", "v"), ("xi1", "xi2"), ("xi3", "xi4")]
        sat = t.saturated_fibre
        assert sat.ring.variables == ("xi4",)
        assert rels_of(sat) == []
        assert format_poly(sat.comul.images["xi4"]) == "xi4' + xi4''"


class TestKernel:
    def test_unit_blowup_kernel_is_unipotent(self, unit_projection):
        t = triptych(unit_projection, 5)
        ker = fibre_kernel(t)
        assert "pi" in rels_of(ker)
        rep = check_unipotent_kernel(t)
        assert rep.ok
        names = {c.name for c in rep.checks}
        assert "coordinate is primitive modulo the previous ones" in names

    def test_truncation_kernels(self):
        ga = additive_group()
        gm = multiplicative_group()
        for tower in (automatic_truncation(ga, 2),
                      automatic_truncation(gm, 2)):
            t = triptych(tower.projection, 6)
            assert check_unipotent_kernel(t).ok

    def test_filtration_mods_out_certified_coordinates(self):
        # The kernel of GmxGa's level-1 truncation has two coordinates, so
        # the second is checked modulo the first once that one is certified.
        tower = automatic_truncation(product(multiplicative_group(), additive_group()), 1)
        rep = check_unipotent_kernel(triptych(tower.projection, 6))
        assert rep.ok
        steps = [c for c in rep.checks
                 if c.name == "coordinate is primitive modulo the previous ones"]
        assert len(steps) == 2
        assert rep.checks[-1].name == "unipotence"
        assert rep.checks[-1].witness.startswith("certified: additive filtration")
