"""Matrix comodules: validation, faithfulness, blowup constructions."""

import pytest

import neron.groebner
from neron.blowup import automatic_truncation, neron_blowup
from neron.cli import main
from neron.errors import DivisionObstruction, NotASubgroup, ShapeMismatch
from neron.groebner import Ideal
from neron.hopf import GroupMorphism, special_fibre
from neron.library import (additive_group, borel2, general_linear,
                           multiplicative_group, product)
from neron.parser import parse_poly_list
from neron.reps import (RepMatrix, conormal_rep, direct_sum, identity_blowup_rep,
                        line_blowup_rep, rescaled_rep, scaling_conjugation_report,
                        stabilizer_ideal, sum_faithful, validate_rep,
                        verify_faithful)
from neron.ring import Substitution, format_poly

from oracles import beta_conjugation_oracle



def shown(m) -> list:
    return [[format_poly(e) for e in row] for row in m.entries]


@pytest.fixture()
def gm():
    return multiplicative_group()


@pytest.fixture()
def standard_gm(gm):
    return RepMatrix(gm, [[gm.ring.var("u")]])


def unit_blowup(h):
    return neron_blowup(h, Ideal(h.ring, [h.ring.pi()] + list(h.aug_gens())))


def gm_unit_blowup(gm):
    # the one-generator centre keeps u eliminable, giving the (v, xi1) chart
    u = gm.ring.var("u")
    return neron_blowup(gm, Ideal(gm.ring, [gm.ring.pi(), u - 1]))


class TestRepMatrix:
    def test_witness_search(self, gm, standard_gm):
        assert format_poly(standard_gm.det_inverse_witness) == "v"
        assert validate_rep(standard_gm).ok

    def test_witness_obstruction(self):
        ga = additive_group()
        with pytest.raises(DivisionObstruction):
            RepMatrix(ga, [[ga.ring.var("x")]])

    def test_non_comodule_rejected(self, gm):
        bad = RepMatrix(gm, [[gm.ring.var("u") + 1]], gm.ring.var("v"))
        rep = validate_rep(bad)
        assert not rep.ok
        assert rep.title == "comodule axioms for a rank-1 matrix over Gm"

    def test_direct_sum(self, gm, standard_gm):
        both = direct_sum(standard_gm, standard_gm)
        assert shown(both) == [["u", "0"], ["0", "u"]]
        assert validate_rep(both).ok


class TestFaithful:
    def test_standard_is_faithful(self, standard_gm):
        res = verify_faithful(standard_gm)
        assert res.verdict == "faithful"
        assert res.undecided == []

    def test_projection_alone_is_not_decided(self, gm, standard_gm):
        b = gm_unit_blowup(gm)
        pull = b.projection.pullback
        pulled = RepMatrix(b.blown, [[pull(gm.ring.var("u"))]],
                           pull(gm.ring.var("v")))
        res = verify_faithful(pulled)
        assert res.verdict == "not-at-bound"
        assert res.undecided == ["xi1"]

    def test_one_walk_decides_every_variable(self, monkeypatch, gm, standard_gm):
        # the graph walk is the only one in an elimination order
        elim_walks = []
        walk = neron.groebner._buchberger

        def counting_walk(gens, ring, *args, **kwargs):
            elim_walks.append(ring.order.kind == "elim")
            return walk(gens, ring, *args, **kwargs)

        monkeypatch.setattr(neron.groebner, "_buchberger", counting_walk)
        w = identity_blowup_rep(standard_gm, gm_unit_blowup(gm))
        elim_walks.clear()
        assert verify_faithful(w).verdict == "faithful"
        assert len(w.group.ring.variables) > 1
        assert sum(elim_walks) == 1


class TestIdentityBlowup:
    def test_multiplicative_doubling(self, gm, standard_gm):
        b = gm_unit_blowup(gm)
        w = identity_blowup_rep(standard_gm, b)
        assert shown(w) == [["xi1*pi + 1", "xi1"], ["0", "1"]]
        assert format_poly(w.det_inverse_witness) == "v"
        assert validate_rep(w).ok
        assert verify_faithful(w).verdict == "faithful"
        assert scaling_conjugation_report(standard_gm, b, w).ok

    def test_additive_doubling(self):
        ga = additive_group()
        x = ga.ring.var("x")
        va = RepMatrix(ga, [[ga.ring.one(), x], [ga.ring.zero(), ga.ring.one()]])
        b = unit_blowup(ga)
        w = identity_blowup_rep(va, b)
        assert shown(w) == [["1", "xi1*pi", "0", "xi1"],
                            ["0", "1", "0", "0"],
                            ["0", "0", "1", "0"],
                            ["0", "0", "0", "1"]]
        assert validate_rep(w).ok
        assert scaling_conjugation_report(va, b, w).ok

    def test_level_two_chain(self, gm, standard_gm):
        tower = automatic_truncation(gm, 2)
        w = identity_blowup_rep(standard_gm, tower)
        assert shown(w) == [["xi3*pi^2 + 1", "xi3"], ["0", "1"]]
        assert validate_rep(w).ok
        assert scaling_conjugation_report(standard_gm, tower, w).ok

    def test_wrong_centre_rejected(self, gm, standard_gm):
        u, v = gm.ring.var("u"), gm.ring.var("v")
        torsion = neron_blowup(gm, Ideal(gm.ring, [gm.ring.pi(), u * u - 1,
                                                   v - u]))
        with pytest.raises(NotASubgroup):
            identity_blowup_rep(standard_gm, torsion)

    def test_conjugation_oracle_agrees(self, gm, standard_gm):
        # same identity, decided over Q(pi) with beta inverted outright
        b = gm_unit_blowup(gm)
        w = identity_blowup_rep(standard_gm, b)
        assert beta_conjugation_oracle(standard_gm, b, w)


class TestLineBlowup:
    def test_stabilizer_ideals(self):
        gl = general_linear(2)
        G = gl.ring
        std = RepMatrix(gl, [[G.var("a11"), G.var("a12")],
                             [G.var("a21"), G.var("a22")]])
        assert format_poly(std.det_inverse_witness) == "d"
        assert [format_poly(g) for g in stabilizer_ideal(std, 1).generators] == [
            "pi", "a21"]
        bo = borel2()
        B = bo.ring
        bstd = RepMatrix(bo, [[B.var("a11"), B.var("a12")],
                              [B.zero(), B.var("a22")]])
        assert [format_poly(g) for g in stabilizer_ideal(bstd, 2).generators] == [
            "pi", "a12"]

    def test_line_blowup_shape(self):
        gl = general_linear(2)
        G = gl.ring
        std = RepMatrix(gl, [[G.var("a11"), G.var("a12")],
                             [G.var("a21"), G.var("a22")]])
        b = neron_blowup(gl, stabilizer_ideal(std, 1))
        assert b.blown.ring.variables == ("a11", "a12", "a22", "d", "xi1")
        assert [format_poly(g) for g in b.blown.relations.generators] == [
            "a11*a22*d - a12*d*xi1*pi - 1"]

    def test_covering_shape_enforced(self):
        gl = general_linear(2)
        G = gl.ring
        std = RepMatrix(gl, [[G.var("a11"), G.var("a12")],
                             [G.var("a21"), G.var("a22")]])
        b = neron_blowup(gl, stabilizer_ideal(std, 1))
        det = RepMatrix(b.blown, [[b.projection.pullback(
            G.var("a11") * G.var("a22") - G.var("a12") * G.var("a21"))]])
        with pytest.raises(ShapeMismatch) as exc:
            line_blowup_rep(std, b, det)
        assert "a11*a22 - a11 - a12*xi1*pi" in str(exc.value)

    def test_rank_zero_covering_rejected(self):
        gl = general_linear(2)
        G = gl.ring
        std = RepMatrix(gl, [[G.var("a11"), G.var("a12")],
                             [G.var("a21"), G.var("a22")]])
        b = neron_blowup(gl, stabilizer_ideal(std, 1))
        with pytest.raises(ValueError, match="rank at least 1"):
            line_blowup_rep(std, b, RepMatrix(b.blown, []))

    def test_vector_stabilizer_glues_faithfully(self):
        gl = general_linear(2)
        G = gl.ring
        std = RepMatrix(gl, [[G.var("a11"), G.var("a12")],
                             [G.var("a21"), G.var("a22")]])
        vec = Ideal(G, [G.pi(), G.var("a21"), G.var("a11") - 1])
        b = neron_blowup(gl, vec)
        glued = line_blowup_rep(std, b)
        assert shown(glued) == [["xi2*pi + 1", "a12", "xi2"],
                                ["xi1*pi", "a22", "xi1"],
                                ["0", "0", "1"]]
        assert validate_rep(glued).ok
        assert verify_faithful(glued).verdict == "faithful"

    def test_borel_second_column_with_character(self):
        bo = borel2()
        B = bo.ring
        bstd = RepMatrix(bo, [[B.var("a11"), B.var("a12")],
                              [B.zero(), B.var("a22")]])
        b = neron_blowup(bo, stabilizer_ideal(bstd, 2))
        echar = RepMatrix(b.blown, [[b.projection.pullback(B.var("a22"))]])
        glued = line_blowup_rep(bstd, b, echar, column=2)
        assert shown(glued) == [["a22", "0", "0"],
                                ["xi1*pi", "a11", "xi1"],
                                ["0", "0", "a22"]]
        assert validate_rep(glued).ok
        assert verify_faithful(glued).verdict == "faithful"

    def test_line_outside_centre_rejected(self):
        gl = general_linear(2)
        G = gl.ring
        std = RepMatrix(gl, [[G.var("a11"), G.var("a12")],
                             [G.var("a21"), G.var("a22")]])
        b = neron_blowup(gl, stabilizer_ideal(std, 1))
        with pytest.raises(NotASubgroup):
            line_blowup_rep(std, b, column=2)


class TestRescaleAndSum:
    def test_rescaled(self):
        gl = general_linear(2)
        G = gl.ring
        std = RepMatrix(gl, [[G.var("a11"), G.var("a12")],
                             [G.var("a21"), G.var("a22")]])
        b = neron_blowup(gl, stabilizer_ideal(std, 1))
        resc, summed = rescaled_rep(std, b)
        assert shown(resc) == [["a11", "a12*pi"], ["xi1", "a22"]]
        assert validate_rep(resc).ok
        assert validate_rep(summed).ok
        assert verify_faithful(summed).verdict == "faithful"

    def test_sum_through_quotient(self):
        g2 = product(multiplicative_group("u1", "v1", name="Gm1"),
                     multiplicative_group("u2", "v2", name="Gm2"))
        P = g2.ring
        amb = multiplicative_group(name="A")
        q = GroupMorphism("q", g2, amb,
                          Substitution(amb.ring, P,
                                       {"u": P.var("u2"), "v": P.var("v2")}))
        b = neron_blowup(g2, Ideal(P, [P.pi(), P.var("u2") - 1,
                                       P.var("v2") - 1]))
        ab = unit_blowup(amb)
        rho = RepMatrix(g2, [[P.var("u1"), P.zero()], [P.zero(), P.var("u2")]])
        sigma = identity_blowup_rep(RepMatrix(amb, [[amb.ring.var("u")]]), ab)
        big = sum_faithful(rho, sigma, b, q, ab)
        assert shown(big) == [["u1", "0", "0", "0"],
                              ["0", "xi1*pi + 1", "0", "0"],
                              ["0", "0", "xi1*pi + 1", "xi1"],
                              ["0", "0", "0", "1"]]
        assert validate_rep(big).ok
        assert verify_faithful(big).verdict == "faithful"


class TestConormal:
    def test_additive_line(self):
        ga = additive_group()
        gak = special_fibre(ga)
        data = conormal_rep(gak, Ideal(ga.ring, [ga.ring.var("x")]))
        assert [format_poly(f) for f in data.basis] == ["x"]
        assert [[format_poly(e) for e in row] for row in data.matrix] == [["1"]]
        assert validate_rep(data.rep()).ok

    def test_borel_unipotent_direction(self):
        bo = borel2()
        bok = special_fibre(bo)
        B = bo.ring
        data = conormal_rep(bok, Ideal(B, [B.var("a12")]))
        assert [format_poly(f) for f in data.basis] == ["a12"]
        assert [[format_poly(e) for e in row] for row in data.matrix] == [
            ["a22^2*e"]]
        assert data.group.name == "B2_k/H"
        assert [format_poly(g) for g in data.group.relations.generators] == [
            "a11*a22*e - 1", "a12", "pi"]
        assert validate_rep(data.rep()).ok

    # u has counit 1, a unit mod pi; u - 1 + pi has counit pi
    @pytest.mark.parametrize("ideal, inside", [("u, x", False), ("u-1+pi, x", True)])
    def test_augmentation_guard(self, capsys, golden, golden_dir, ideal, inside):
        gk = special_fibre(golden("gmxga.grp").groups["GmxGa"])
        sub = Ideal(gk.ring, parse_poly_list(ideal, gk.ring))
        if inside:
            assert validate_rep(conormal_rep(gk, sub).rep()).ok
        else:
            with pytest.raises(NotASubgroup):
                conormal_rep(gk, sub)
        code = main(["conormal", str(golden_dir / "gmxga.grp"), "--ideal", ideal])
        err = capsys.readouterr().err
        assert code == (0 if inside else 1)
        refusal = "ideal is not contained in the augmentation ideal mod pi"
        assert (refusal in err) != inside
