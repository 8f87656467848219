"""End-to-end acceptance run: one test per advertised guarantee.

Every check is exact and symbolic. Randomized suites run at full size
with fixed seeds; everything else freezes worked values or compares two
independent computation routes.
"""

from fractions import Fraction

from neron.blowup import (automatic_member, automatic_truncation,
                          check_constancy, neron_blowup, partial_blowup,
                          standard_sequence)
from neron.dgal import LINE, check_gauge, galois_diagnostic
from neron.groebner import Ideal
from neron.hopf import prune, special_fibre
from neron.images import triptych
from neron.library import additive_group, multiplicative_group, product
from neron.reps import (RepMatrix, identity_blowup_rep,
                        scaling_conjugation_report, validate_rep,
                        verify_faithful)
from neron.ring import Poly, format_poly

from oracles import beta_conjugation_oracle
from suites import (blowup_suite, groebner_oracle_suite, lift_suite, reduce_mod_image,
                    saturation_suite)



def rels_of(h) -> list:
    return [format_poly(g) for g in h.relations.generators]


def test_criterion_01():
    """Additive truncations: free rank-1 charts, membership, congruence depth."""
    ga = additive_group()
    x = ga.ring.var("x")
    for n in (1, 2, 3, 4):
        tower = automatic_truncation(ga, n)
        blown = tower.blown
        assert blown.ring.variables == (f"xi{n}",)
        assert blown.relations.is_zero()
        assert tower.projection.pullback.images["x"] == (
            blown.ring.var(f"xi{n}") * blown.ring.pi(n))
        for m in range(n):
            assert reduce_mod_image(tower.projection, m).trivial
        assert not reduce_mod_image(tower.projection, n).trivial
    for m in range(1, 8):
        assert automatic_member(ga, x, m)
    assert not automatic_member(ga, x + 1, 1)


def test_criterion_02(golden):
    """Multiplicative truncations match the recorded twisted presentations."""
    gm = multiplicative_group()
    for n in (1, 2, 3):
        tower = automatic_truncation(gm, n)
        blown = tower.blown
        lo, hi = f"xi{2 * n - 1}", f"xi{2 * n}"
        assert blown.ring.variables == (lo, hi)
        recorded = golden(f"gm-twisted-{n}.grp").groups[f"Gm^({n})"]
        rename = {"x": lo, "y": hi}
        moved = recorded.relations.in_ring(blown.ring, rename)
        assert blown.relations.same_ideal(moved)
        two = blown.doubled_ring()
        assert blown.comul.images[lo] == (
            two.var(lo + "'") * two.var(lo + "''") * two.pi(n)
            + two.var(lo + "'") + two.var(lo + "''"))
        assert blown.comul.images[hi] == (
            two.var(hi + "'") * two.var(hi + "''") * two.pi(n)
            + two.var(hi + "'") + two.var(hi + "''"))


def test_criterion_03():
    """Doubling the standard torus character across the unit blowup."""
    gm = multiplicative_group()
    u = gm.ring.var("u")
    std = RepMatrix(gm, [[u]])
    b = neron_blowup(gm, Ideal(gm.ring, [gm.ring.pi(), u - 1]))
    w = identity_blowup_rep(std, b)
    assert [[format_poly(e) for e in row] for row in w.entries] == [
        ["xi1*pi + 1", "xi1"], ["0", "1"]]
    # the chart encodes [[u, (u-1)/pi], [0, 1]]: top-left pulls back u and
    # pi times the top-right entry is the top-left minus one
    assert w.entries[0][0] == b.projection.pullback(u)
    assert w.entries[0][1] * b.blown.ring.pi() == (
        w.entries[0][0] - b.blown.ring.one())
    assert validate_rep(w).ok
    assert verify_faithful(w).verdict == "faithful"
    fib, _ = prune(special_fibre(b.blown))
    assert len(fib.ring.variables) == 1
    assert fib.relations.is_zero()
    name = fib.ring.variables[0]
    two = fib.doubled_ring()
    assert fib.comul.images[name] == two.var(name + "'") + two.var(name + "''")


def test_criterion_04(golden):
    """Triple of fibres for the torus dilatation: additive, trivial, torus."""
    rho = golden("gprime.grp").morphisms["rho"]
    t = triptych(rho, 5)
    assert t.report.ok
    sat = t.saturated_fibre
    assert sat.name == "Im(rho)[1]_k"
    assert sat.ring.variables == ("xi2",)
    assert rels_of(sat) == []
    two = sat.doubled_ring()
    assert sat.comul.images["xi2"] == two.var("xi2'") + two.var("xi2''")
    assert t.mod_pi_image.name == "Im(rho_k)"
    assert rels_of(t.mod_pi_image) == ["pi", "v - 1", "u - 1"]
    assert t.image_fibre.name == "Im(rho)_k"
    assert rels_of(t.image_fibre) == ["u*v - 1"]
    fibre_two = t.image_fibre.doubled_ring()
    assert t.image_fibre.comul.images["u"] == (
        fibre_two.var("u'") * fibre_two.var("u''"))


def test_criterion_05():
    """The standard sequence recovers the additive truncation tower."""
    ga = additive_group()
    tower = automatic_truncation(ga, 3)
    seq = standard_sequence(tower.projection, 3)
    assert seq.depth == 3
    centres = [[format_poly(g) for g in s.centre.generators]
               for s in seq.stages]
    assert centres == [["pi", "x"], ["pi", "xi1"], ["pi", "xi2"]]
    for i, stage in enumerate(seq.stages, start=1):
        step = automatic_truncation(ga, i).blown
        assert stage.group.ring.variables == step.ring.variables
        assert stage.group.relations.same_ideal(step.relations)
        assert stage.group.comul.images == step.comul.images
    assert seq.lifted.source.name == "Ga^(3)"


def test_criterion_06():
    """Partial unit blowups of the torus are trivial exactly up to their level."""
    gm = multiplicative_group()
    aug = Ideal(gm.ring, list(gm.aug_gens()))
    for n in (0, 1, 2):
        res = partial_blowup(gm, aug, n)
        assert res.level == n + 1
        for m in range(n + 1):
            assert reduce_mod_image(res.projection, m).trivial
        assert not reduce_mod_image(res.projection, n + 1).trivial


def test_criterion_07():
    """Centre fibres stay constant along iterated unit blowups."""
    gm = multiplicative_group()
    rep = check_constancy(gm, Ideal(gm.ring, list(gm.aug_gens())), 3)
    assert rep.ok
    both = product(multiplicative_group(), additive_group())
    rep = check_constancy(both, Ideal(both.ring, [both.ring.var("x")]), 2)
    assert rep.ok


def test_criterion_08(golden):
    """Connection diagnostics: full exponential tower, logarithmic obstruction."""
    exp = golden("exp.grp").connections["exp"]
    rep, verdict_rep, verdict = galois_diagnostic(exp, 5)
    assert verdict_rep.ok
    assert rep.trivial_through() == 5
    factorial = [1, 1, 2, 6, 24, 120]
    expect = Poly(LINE, {(k, k): Fraction(1, factorial[k]) for k in range(6)})
    top = rep.levels[5]
    assert top.gauge[0][0] == expect
    assert check_gauge(exp, top)
    assert verdict == ("trivial through level 5: consistent with the full "
                       "tower of identity blowups of the generic Galois group")
    log = golden("log.grp").connections["log"]
    rep, verdict_rep, verdict = galois_diagnostic(log, 3)
    assert rep.levels[0].trivial
    assert not rep.levels[1].trivial
    assert rep.levels[1].obstruction == [
        "entry (1,1), coefficient of x^-1*pi^1"]
    assert verdict == ("trivial exactly below level 1: consistent with 1 "
                       "identity blowup(s) of the generic Galois group")


def test_criterion_09():
    """Seeded randomized suites at full size."""
    assert blowup_suite(200) == 200
    assert groebner_oracle_suite(500) == 500
    assert saturation_suite(200) == 200
    assert lift_suite(50) == 50


def test_criterion_10(golden):
    """Conjugation by the scaling matrix, decided by two independent routes."""
    pf = golden("gm-rep.grp")
    gm = pf.groups["Gm"]
    block = pf.reps["V"]
    v = RepMatrix(gm, block.entries, block.witness)
    b = neron_blowup(gm, Ideal(gm.ring, [gm.ring.pi(), gm.ring.var("u") - 1]))
    w = identity_blowup_rep(v, b)
    # route one cross-multiplies over R; route two inverts beta over Q(pi)
    assert scaling_conjugation_report(v, b, w).ok
    assert beta_conjugation_oracle(v, b, w)

    pf = golden("ga-rep.grp")
    ga = pf.groups["Ga"]
    block = pf.reps["W"]
    va = RepMatrix(ga, block.entries, block.witness)
    ba = neron_blowup(ga, Ideal(ga.ring, [ga.ring.pi()] + list(ga.aug_gens())))
    wa = identity_blowup_rep(va, ba)
    assert scaling_conjugation_report(va, ba, wa).ok
    assert beta_conjugation_oracle(va, ba, wa)
