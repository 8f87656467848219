"""Dilatations: blow up a closed subgroup of a fibre and divide by pi.

Each blowup adjoins one fresh variable per carried centre generator a,
imposes pi^k * xi = a, and saturates at pi.  A generator a = lam*v - c,
with v a variable not charted yet, lam a nonzero rational and c in R,
is charted instead: v = (c + pi^k * xi)/lam goes into the other
equations before the saturation, which then runs in the chart ring.  In
lex, v leads lam*v - c - pi^k * xi, since xi sorts after v and c is a
constant, so the saturation in the full ring has the reduced basis
v - NF((c + pi^k * xi)/lam) plus that of the chart's saturation: the
charted v is that normal form, and the blowup is the one a saturation in
the full ring gives.  The blowup then prunes the saturated relations
(the relation step of `hopf.prune`), and divides the structure maps of
the centre generators by pi^k with certified exactness in the pruned
ring and its doubled ring.  The normal form of an image modulo the
saturated relations is free of the solved variables, so it is the
normal form of its pushed image modulo the kept relations: the
divisions give what they would give before the pruning.

In the doubled ring the division reduces a comultiplication image by
the two copies of the kept relations alone, and builds the doubled
ideal's basis only when that remainder is not termwise divisible by
pi^k (`groebner.certified_pi_division`).  A blowup's comultiplication
images are therefore reduced modulo the two copies, not modulo the
doubled basis.  They are still the normal-form route's images up to the
doubled ideal J: the kept relations are pi-saturated, so J is too, all
exact quotients agree modulo J, and a standard monomial divided by pi
stays standard, so NF_J(f) / pi^k = NF_J(d) for the quotient d taken.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import DivisionObstruction, LiftFailure, NotASubgroup
from .groebner import Ideal, _Graph, certified_pi_division, contract, saturate_pi
from .hopf import (PRIME1, PRIME2, GroupMorphism, HopfPresentation, _prune_relations,
                   doubled, hopf_ideal_report, tensor_ideal)
from .report import Report
from .ring import Poly, PolyRing, Substitution, format_poly, quotient

_XI = re.compile(r"^xi(\d+)$")


def fresh_xi_names(ring: PolyRing, count: int):
    top = 0
    for v in ring.variables:
        m = _XI.match(v)
        if m:
            top = max(top, int(m.group(1)))
    return [f"xi{top + 1 + i}" for i in range(count)]


BlowupResult = namedtuple("BlowupResult", "blown projection centre adjoined xi_map level "
                          "eliminated report chain", defaults=((),))
Stage = namedtuple("Stage", "group centre projection")
StandardSequence = namedtuple("StandardSequence", "stages depth lifted")


def _require(rep: Report, what: str):
    """Raise NotASubgroup naming every failed check of the report."""
    if not rep.ok:
        raise NotASubgroup(f"{what}: " + "; ".join(c.line() for c in rep.failures()))


def _chart_variable(a: Poly):
    """(v, lam) when a = lam*v - c for a variable v, a nonzero rational lam
    and c in R; otherwise None."""
    moving = [(m, c) for m, c in a.terms.items() if any(m[:-1])]
    if len(moving) == 1 and sum(moving[0][0]) == 1:
        m, lam = moving[0]
        return a.ring.variables[m.index(1)], lam
    return None


def _blow(h: HopfPresentation, centre: Ideal, gens, power: int, name: str) -> BlowupResult:
    carried = [g for g in gens
               if not g.is_scalar() and not h.relations.contains(g)]
    names = fresh_xi_names(h.ring, len(carried))
    ring_b = h.ring.extend(tuple(names))
    # chart: a generator lam*v - c whose v is not charted yet puts
    # v = (c + pi^power*xi)/lam, and its equation pi^power*xi = a becomes 0
    exprs, equations = {}, []
    for nm, a in zip(names, carried):
        eq = ring_b.var(nm).mul_pi(power) - a.in_ring(ring_b)
        lead = _chart_variable(a)
        if lead is None or lead[0] in exprs:
            equations.append(eq)
        else:
            v, lam = lead
            exprs[v] = ring_b.var(v) + eq.scale(quotient(1, lam))
    chart = ring_b.drop(exprs)
    to_chart = Substitution(ring_b, chart, {w: chart.var(w) for w in chart.variables}
                            | {v: e.in_ring(chart) for v, e in exprs.items()})
    # saturate at pi in the chart, then prune: the solved variables go
    # before any structure map is reduced, so every division runs in the
    # pruned ring and its doubled ring
    sat = saturate_pi(Ideal(chart, [to_chart(g) for g in
                                    h.relations.generators + tuple(equations)]))
    rels, solved, sub = _prune_relations(sat)
    # a charted v is the normal form of its expression, which is free of
    # the solved variables; the eliminated variables go in lex basis order
    solved = solved | {v: sat.normal_form(to_chart.images[v]).in_ring(sub.target)
                       for v in exprs}
    eliminated = {w: solved[w] for w in reversed(ring_b.variables) if w in solved}
    sub = Substitution(ring_b, sub.target, sub.images | eliminated)
    push = doubled(sub)
    rels2 = tensor_ideal(rels, (PRIME1, PRIME2))

    comul_images, counit_images, anti_images = {}, {}, {}
    for v in h.ring.variables:
        if v not in eliminated:
            comul_images[v] = push(h.comul.images[v])
            counit_images[v] = h.eps(v)
            anti_images[v] = sub(h.antipode.images[v])
    for nm, a in zip(names, carried):
        # a fresh variable that pruning eliminates is divided too: the
        # division certifies that pi^power divides the images of a
        divided = (certified_pi_division(push(h.comul(a)), power, rels2),
                   h.eps_of(a).divide_pi(power),
                   certified_pi_division(sub(h.antipode(a)), power, rels))
        if nm not in eliminated:
            comul_images[nm], counit_images[nm], anti_images[nm] = divided

    blown = HopfPresentation.from_images(name, sub.target, rels, comul_images,
                                         counit_images, anti_images)

    proj_images = {v: eliminated[v] if v in eliminated else blown.ring.var(v)
                   for v in h.ring.variables}
    projection = GroupMorphism(f"{name}->{h.name}", blown, h,
                               Substitution(h.ring, blown.ring, proj_images))
    pull = projection.pullback

    post = Report(f"blowup invariants for {name}")
    xi_map = {}
    for nm, a in zip(names, carried):
        xi_map[nm] = a
        xi_here = eliminated[nm] if nm in eliminated else blown.ring.var(nm)
        diff = xi_here.mul_pi(power) - pull(a)
        post.add("pi-power multiple of the fresh variable is the centre generator",
                 nm, blown.relations.contains(diff), format_poly(diff))
    adjoined = tuple(nm for nm in names if nm in blown.ring.variables)
    return BlowupResult(blown, projection, centre, adjoined, xi_map, power,
                        eliminated, post)


def neron_blowup(h: HopfPresentation, centre: Ideal, name: str = None) -> BlowupResult:
    """Blow up a closed subgroup of the special fibre and divide by pi.

    The centre is an ideal of the presentation ring that contains pi; it
    must cut out a subgroup of the special fibre, which is checked.
    """
    centre = centre.in_ring(h.ring)
    gens = list(centre.generators)
    if not centre.contains(h.ring.pi()):
        raise NotASubgroup("the centre of a blowup must contain pi")
    _require(hopf_ideal_report(h, gens, pi_power=1),
             "centre is not a subgroup of the special fibre")
    if name is None:
        name = h.name + "'"
    return _blow(h, centre, gens, 1, name)


def partial_blowup(h: HopfPresentation, subgroup: Ideal, n: int) -> BlowupResult:
    """Blow up a flat closed subgroup at level n: divide its ideal by pi^(n+1).

    The subgroup ideal must be a Hopf ideal over the base with flat
    quotient; both are checked.  Level 0 agrees with a single blowup at
    the subgroup's special fibre.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    gens = list(subgroup.in_ring(h.ring).generators)
    _flat_subgroup_checks(h, gens)
    centre = Ideal(h.ring, gens + [h.ring.pi(n + 1)])
    result = _blow(h, centre, gens, n + 1, f"{h.name}^[{n}]")
    cut = result.blown.relations.plus([result.blown.ring.pi(n + 1)])
    for a in result.xi_map.values():
        pa = result.projection.pullback(a)
        result.report.add("reduction factors through the subgroup", format_poly(a),
                          cut.contains(pa), format_poly(pa))
    return result


def _flat_subgroup_checks(h: HopfPresentation, gens):
    _require(hopf_ideal_report(h, gens, pi_power=0),
             "ideal is not a Hopf ideal over the base")
    total = h.relations.plus(gens)
    if not saturate_pi(total).same_ideal(total):
        raise NotASubgroup("quotient by the ideal is not flat")


def automatic_truncation(h: HopfPresentation, n: int) -> BlowupResult:
    """Adjoin pi^(-n) times the augmentation ideal, by n iterated blowups.

    At each step the centre is the unit section of the special fibre of
    the current stage.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    name = f"{h.name}^({n})"
    first_centre = Ideal(h.ring, [h.ring.pi()] + h.aug_gens())
    if n == 0:
        ident = GroupMorphism(f"{h.name}->{h.name}", h, h, Substitution.identity(h.ring))
        return BlowupResult(h, ident, first_centre, (), {}, 0, {},
                            Report(f"blowup invariants for {h.name}"), ())
    current = h
    pull = Substitution.identity(h.ring)
    steps = []
    for i in range(n):
        centre = Ideal(current.ring, [current.ring.pi()] + current.aug_gens())
        step_name = name if i == n - 1 else f"{h.name}^({i + 1})"
        b = neron_blowup(current, centre, step_name)
        steps.append(b)
        pull = pull.then(b.projection.pullback)
        current = b.blown
    projection = GroupMorphism(f"{name}->{h.name}", current, h, pull)
    last = steps[-1]
    rep = Report(f"blowup invariants for {name}")
    for b in steps:
        rep.extend(b.report)
    return BlowupResult(current, projection, first_centre, last.adjoined,
                        last.xi_map, n, last.eliminated, rep, tuple(steps))


def automatic_member(h: HopfPresentation, numerator: Poly, power: int) -> bool:
    """Decide membership of numerator / pi^power in the automatic blowup.

    The criterion is that the counit of the fraction is integral: the pi
    valuation of eps(numerator) must be at least the power.
    """
    if power < 0:
        raise ValueError("power must be nonnegative")
    g = numerator.in_ring(h.ring) if numerator.ring != h.ring else numerator
    return h.eps_of(g).pi_valuation() >= power


def _lift_pullback(pull: Substitution, b: BlowupResult, relations: Ideal,
                   failure: str) -> Substitution:
    """Lift a pullback into b.blown: each fresh coordinate maps to the
    certified pi^level division of its centre generator's image.  A failed
    division raises LiftFailure with `failure` and the coordinate."""
    images = {}
    for v in b.blown.ring.variables:
        if v in b.xi_map:
            try:
                images[v] = certified_pi_division(pull(b.xi_map[v]), b.level,
                                                  relations)
            except DivisionObstruction as e:
                raise LiftFailure(f"{failure} at {v!r}", witness=e.witness) from e
        else:
            images[v] = pull.images[v]
    return Substitution(b.blown.ring, pull.target, images)


def universal_lift(m: GroupMorphism, b: BlowupResult) -> GroupMorphism:
    """Factor a morphism into the target through its blowup.

    Exists exactly when the morphism lands, modulo pi, inside the centre;
    the fresh coordinates pull back to certified divisions by pi.
    """
    steps = b.chain or (b,)
    cur = m
    for step in steps:
        pull = _lift_pullback(cur.pullback, step, cur.source.relations,
                              "morphism does not land in the centre")
        cur = GroupMorphism(f"{m.name}^", cur.source, step.blown, pull)
    return cur


def standard_sequence(rho: GroupMorphism, depth: int) -> StandardSequence:
    """Iterate blowups of the target at the fibrewise image of a morphism.

    The morphism must be injective after inverting pi; each stage blows up
    the previous one at the contraction of (pi) along the lifted pullback,
    and the lift to the new stage is computed by certified division.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    src = rho.source
    src_sat = saturate_pi(src.relations)
    tgt_sat = saturate_pi(rho.target.relations)
    kernel = contract(rho.pullback, src_sat)
    if not saturate_pi(kernel).same_ideal(tgt_sat):
        bad = next((g for g in kernel.basis()
                    if not tgt_sat.contains(g)), None)
        raise LiftFailure("pullback is not injective after inverting pi",
                          witness=format_poly(bad) if bad is not None else "")
    stages = []
    current = rho.target
    pull = rho.pullback
    fibre_ideal = src.fibre_ideal()
    for i in range(depth):
        centre = contract(pull, fibre_ideal)
        b = neron_blowup(current, centre, f"{rho.target.name}[{i + 1}]")
        pull = _lift_pullback(pull, b, src.relations,
                              f"stage {i + 1} lift fails")
        stages.append(Stage(b.blown, centre, b.projection))
        current = b.blown
    lifted = GroupMorphism(f"{rho.name}[{depth}]", src, current, pull)
    return StandardSequence(stages, depth, lifted)


def strict_transform(b: BlowupResult, subgroup: Ideal) -> Ideal:
    """Transform a flat closed subgroup of the original through a blowup.

    The subgroup is checked to be flat and a Hopf ideal over the base
    (`_flat_subgroup_checks`); then `_strict_transform` extends its ideal
    along the projection, saturates at pi, and checks that the result is a
    Hopf ideal of the blown presentation.
    """
    base = b.projection.target
    gens = list(subgroup.in_ring(base.ring).generators)
    _flat_subgroup_checks(base, gens)
    return _strict_transform(b, gens)


def _strict_transform(b: BlowupResult, gens) -> Ideal:
    """The saturation at pi of the pulled-back generators and the blown
    relations, certified as a Hopf ideal over the base on its whole basis;
    a saturation is flat, so the result is a flat subgroup of b.blown."""
    pull = b.projection.pullback
    ext = [pull(g) for g in gens] + list(b.blown.relations.generators)
    out = saturate_pi(Ideal(b.blown.ring, ext))
    _require(hopf_ideal_report(b.blown, list(out.basis()), pi_power=0),
             "strict transform is not a Hopf ideal")
    return out


def check_constancy(h: HopfPresentation, subgroup: Ideal, depth: int) -> Report:
    """Blow up along a flat subgroup repeatedly and watch its fibre.

    Each stage blows up the subgroup's special fibre, transforms the
    subgroup, and certifies that the projection identifies the new centre
    fibre with the previous one: the contraction of the new centre fibre
    is the previous one, and every new coordinate lies in the subalgebra
    the pulled-back old ones generate modulo it.  Both come from one walk
    of the projection's graph ideal (`groebner._Graph`).

    Each subgroup fact is certified once.  The subgroup is checked flat
    and a Hopf ideal over the base here, once; each stage then calls
    `_blow` and `_strict_transform` directly, and what `neron_blowup` and
    `strict_transform` would check again is implied:

    - At stage 1, `strict_transform`'s `_flat_subgroup_checks` is the call
      just made, on the same generators.
    - At a stage i > 1, the generators are the previous transform's basis,
      less the elements in the relations (or all of it), so they and the
      relations generate that transform.  It was certified a Hopf ideal
      over the base on its whole basis, and it is saturated, so flat.
    - The centre (pi) + generators passes `neron_blowup`'s report at
      pi_power=1: each membership that report tests lies in an ideal
      containing the one the base-level report on the same generators
      tested, and eps(pi) = pi has pi valuation 1.  The centre contains
      pi as a generator.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    gens = list(subgroup.in_ring(h.ring).generators)
    _flat_subgroup_checks(h, gens)
    rep = Report(f"centre fibres along {depth} blowups of {h.name}")
    current = h
    cur_gens = gens
    for i in range(depth):
        stage = f"stage {i + 1}"
        centre = Ideal(current.ring, [current.ring.pi()] + cur_gens)
        b = _blow(current, centre, list(centre.generators), 1, current.name + "'")
        transformed = _strict_transform(b, cur_gens)
        before = current.relations.plus(cur_gens + [current.ring.pi()])
        graph = _Graph.of(b.projection.pullback, transformed.plus([b.blown.ring.pi()]))
        rep.add("centre fibre contracts to the previous one", stage,
                graph.contraction().same_ideal(before))
        onto = all(graph.member(b.blown.ring.var(w)) is not None
                   for w in b.blown.ring.variables)
        rep.add("centre fibre is covered by the previous one", stage, onto)
        current = b.blown
        cur_gens = [g for g in transformed.basis()
                    if not b.blown.relations.contains(g)]
        if not cur_gens:
            cur_gens = list(transformed.basis())
    return rep
