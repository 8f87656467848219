"""Seeded randomized suites, shared by module tests and the acceptance run.

Each suite takes a case count so module tests can run a quick slice while
the acceptance tests run the full size.  All randomness comes from an
explicit seed; a failure therefore reproduces exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

from neron.blowup import neron_blowup, universal_lift
from neron.errors import LiftFailure
from neron.groebner import (Ideal, _buchberger, _eliminate, _fresh_names, _reduce_full,
                            membership, saturate)
from neron.hopf import GroupMorphism, ReduceResult, check_flat, check_hopf, check_morphism
from neron.library import (additive_group, multiplicative_group, product,
                           roots_of_unity, twisted_multiplicative)
from neron.report import Report
from neron.ring import Poly, PolyRing, elim_order

from oracles import membership_linear



def _total_degree(f) -> int:
    """The largest total degree of a term of f, pi's exponent included; 0
    for the zero polynomial."""
    return max((sum(m) for m in f.terms), default=0)


def variables_used(f: Poly) -> set:
    """The ring variables that occur in some term of f."""
    used = set()
    for m in f.terms:
        for i, e in enumerate(m[:-1]):
            if e:
                used.add(f.ring.variables[i])
    return used


def eliminate(ideal: Ideal, drop) -> Ideal:
    """Intersection with the subring omitting the dropped variables."""
    drop = [v for v in ideal.ring.variables if v in set(drop)]
    if not drop:
        return Ideal(ideal.ring, list(ideal.generators))
    keep = [v for v in ideal.ring.variables if v not in set(drop)]
    big = PolyRing(tuple(drop) + tuple(keep), elim_order(len(drop)))
    gens = [g.in_ring(big) for g in ideal.generators]
    return _eliminate(gens, big, len(drop), PolyRing(tuple(keep), ideal.ring.order))


def subalgebra_walk(f: Poly, gens, relations: Ideal):
    """f as a polynomial in `gens` modulo `relations`, or None, by a walk
    of its own: one tag `_z` per generator after the ring's variables, in
    the order that eliminates the ring's, then the normal form of f must
    be free of the ring's variables.  The reference that
    `groebner._Graph.member`, sharing one walk among many f, must match."""
    ring = relations.ring
    tags = _fresh_names("_z", len(gens), ring.variables)
    big = PolyRing(ring.variables + tuple(tags), elim_order(ring.nvars))
    idgens = [g.in_ring(big) for g in relations.generators]
    for tag, g in zip(tags, gens):
        idgens.append(big.var(tag) - g.in_ring(big))
    basis, _ = _buchberger(idgens, big, False)
    rem, _ = _reduce_full(f.in_ring(big), basis)
    if any(any(m[:ring.nvars]) for m in rem.terms):
        return None
    return rem.in_ring(PolyRing(tuple(tags)))


def reduce_mod_image(m: GroupMorphism, n: int) -> ReduceResult:
    """Base change the image of a morphism to R/(pi^(n+1)).

    The image of the source in the target is trivial at level n exactly
    when every target coordinate pulls back to its counit value modulo
    the source relations and pi^(n+1).
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    src, tgt = m.source, m.target
    ring = src.ring
    cut = ring.pi() ** (n + 1)
    rels = src.relations.plus([cut])
    rep = Report(f"image of {src.name} in {tgt.name} mod pi^{n + 1} trivial")
    for v in tgt.ring.variables:
        rep.vanishes("coordinate pulls back to a constant", v,
                     rels.normal_form(m.pullback.images[v] - tgt.eps(v).in_ring(ring)))
    return ReduceResult(src.with_relations(f"{src.name}_mod{n}", rels), n, rep.ok, rep)


def _random_poly(rng: random.Random, ring: PolyRing, terms: int, degree: int,
                 pi_max: int = 1) -> Poly:
    out = {}
    for _ in range(terms):
        mono = [0] * (ring.nvars + 1)
        budget = rng.randint(0, degree)
        for _ in range(budget):
            mono[rng.randrange(ring.nvars)] += 1
        mono[-1] = rng.randint(0, pi_max)
        coeff = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 1, 2]))
        key = tuple(mono)
        out[key] = out.get(key, Fraction(0)) + coeff
    return Poly(ring, out)


def groebner_oracle_suite(count: int, seed: int = 20260815) -> int:
    """Library membership vs the linear-algebra oracle, both directions."""
    rng = random.Random(seed)
    names = ("x", "y", "z")
    checked = 0
    while checked < count:
        nv = rng.randint(1, 3)
        ring = PolyRing(names[:nv])
        gens = [_random_poly(rng, ring, rng.randint(1, 3), rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ideal = Ideal(ring, gens)
        if rng.random() < 0.5:
            # planted member: bounded combination of the generators
            f = ring.zero()
            for g in gens:
                f = f + _random_poly(rng, ring, 2, 2) * g
        else:
            f = _random_poly(rng, ring, rng.randint(1, 3), rng.randint(0, 3))
        member = ideal.contains(f)
        if member:
            cert = membership(f, ideal)
            assert cert.member
            ceiling = max((_total_degree(c) for c in cert.cofactors), default=0)
            # certificate cofactors overshoot; search low bounds first
            bounds = [b for b in (2, 3, 4) if b < ceiling] + [ceiling]
            assert any(membership_linear(f, gens, b) for b in bounds), (
                f"oracle missed a certified member (seed {seed}, case {checked})")
        else:
            assert not membership_linear(f, gens, 4), (
                f"oracle found a combination the basis missed "
                f"(seed {seed}, case {checked})")
        checked += 1
    return checked


def _group_pool():
    gm = multiplicative_group()
    ga = additive_group()
    return [
        gm,
        ga,
        twisted_multiplicative(1),
        twisted_multiplicative(2),
        roots_of_unity(2),
        product(gm, ga),
        product(ga, additive_group("z", name="Ga2")),
    ]


def _centres(h):
    """Centre ideals known to be flat subgroups of the special fibre."""
    out = [[h.ring.pi()] + list(h.aug_gens())]
    if h.name == "Gm":
        u, v = h.ring.var("u"), h.ring.var("v")
        out.append([h.ring.pi(), u * u - 1, v - u])
        out.append([h.ring.pi(), u ** 3 - 1, v - u * u])
    if h.name == "GmxGa":
        u, v, x = (h.ring.var(n) for n in ("u", "v", "x"))
        out.append([h.ring.pi(), u - 1, v - 1])
        out.append([h.ring.pi(), x])
    if h.name == "GaxGa2":
        out.append([h.ring.pi(), h.ring.var("x")])
        out.append([h.ring.pi(), h.ring.var("z")])
    return out


def blowup_suite(count: int, seed: int = 20260815) -> int:
    """Random blowups stay Hopf and stay flat."""
    rng = random.Random(seed)
    pool = _group_pool()
    done = 0
    while done < count:
        h = rng.choice(pool)
        centre = rng.choice(_centres(h))
        res = neron_blowup(h, Ideal(h.ring, centre))
        assert res.report.ok, res.report.lines()
        blown = res.blown
        if rng.random() < 0.25:
            second = [blown.ring.pi()] + list(blown.aug_gens())
            res2 = neron_blowup(blown, Ideal(blown.ring, second))
            assert res2.report.ok
            blown = res2.blown
        assert check_hopf(blown).ok, blown.name
        assert check_flat(blown).ok, blown.name
        done += 1
    return done


def saturation_suite(count: int, seed: int = 20260815) -> int:
    """Saturation and elimination verified by double inclusion."""
    rng = random.Random(seed)
    names = ("x", "y")
    done = 0
    while done < count:
        ring = PolyRing(names[: rng.randint(1, 2)])
        gens = [_random_poly(rng, ring, rng.randint(1, 2), 2)
                for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ideal = Ideal(ring, gens)
        f = ring.pi() if rng.random() < 0.6 else ring.var(rng.choice(ring.variables))
        sat = saturate(ideal, f)
        for g in ideal.generators:
            assert sat.contains(g), "ideal not inside its saturation"
        for s in sat.basis():
            power = next((m for m in range(7)
                          if ideal.contains(f ** m * s)), None)
            assert power is not None, "saturation element lacks a witness power"
        if ring.nvars == 2:
            drop = rng.choice(ring.variables)
            elim = eliminate(ideal, [drop])
            for g in elim.generators:
                assert drop not in variables_used(g)
                assert ideal.contains(g.in_ring(ring)), (
                    "eliminated generator left the ideal")
            probe = _random_poly(rng, ring, 2, 2) * gens[0]
            if drop not in variables_used(probe):
                small = elim.ring
                assert elim.contains(probe.in_ring(small)), (
                    "subring member missed by elimination")
        done += 1
    return done


def lift_suite(count: int, seed: int = 20260815) -> int:
    """Morphisms that kill the centre mod pi lift through the blowup."""
    from neron.blowup import automatic_truncation

    rng = random.Random(seed)
    gm, ga = multiplicative_group(), additive_group()
    pool = [gm, ga, product(gm, ga)]
    done = 0
    while done < count:
        g = rng.choice(pool)
        b = neron_blowup(g, Ideal(g.ring, [g.ring.pi()] + list(g.aug_gens())))
        level = rng.randint(1, 2)
        tower = automatic_truncation(g, level)
        lifted = universal_lift(tower.projection, b)
        assert check_morphism(lifted).ok
        # composing with the projection recovers the original morphism
        proj = b.projection.pullback
        orig = tower.projection.pullback
        rels = Ideal(tower.blown.ring, list(tower.blown.relations.generators))
        for var in g.ring.variables:
            diff = lifted.pullback(proj(g.ring.var(var))) - orig(g.ring.var(var))
            assert rels.normal_form(diff).is_zero(), var
        if rng.random() < 0.3:
            # the identity of G does not kill the unit section mod pi
            from neron.ring import Substitution
            ident = GroupMorphism("id", g, g, Substitution.identity(g.ring))
            try:
                universal_lift(ident, b)
                raise AssertionError("identity morphism lifted unexpectedly")
            except LiftFailure:
                pass
        done += 1
    return done
