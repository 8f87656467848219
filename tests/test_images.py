"""Images of morphisms and the three fibres attached to them."""

import pytest

from neron.blowup import automatic_truncation, neron_blowup
from neron.groebner import Ideal
from neron.hopf import GroupMorphism, check_hopf, check_morphism
from neron.images import (check_unipotent_kernel, fibre_kernel, image_hopf,
                          saturated_image, triptych)
from neron.library import (additive_group, multiplicative_group, product,
                           roots_of_unity, trivial_group)
from neron.ring import Substitution, format_poly



def rels_of(h) -> list:
    return [format_poly(g) for g in h.relations.generators]


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
