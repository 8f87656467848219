"""Dilatations: blow up a closed subgroup of a fibre and divide by pi.

Each blowup adjoins one fresh variable per carried centre generator a,
imposes pi^k * xi = a, saturates at pi, and divides the structure maps
of the centre generators by pi^k with certified exactness.
"""

from __future__ import annotations

import re

from .errors import DivisionObstruction, LiftFailure, NotASubgroup
from .groebner import Ideal, certified_pi_division, contract, saturate_pi, subalgebra_member
from .hopf import (PRIME1, PRIME2, SCALARS, GroupMorphism, HopfPresentation,
                   hopf_ideal_report, prune, tensor_ideal, tensor_ring)
from .report import Report
from .ring import Poly, PolyRing, Substitution, format_poly

_XI = re.compile(r"^xi(\d+)$")


def fresh_xi_names(ring: PolyRing, count: int):
    top = 0
    for v in ring.variables:
        m = _XI.match(v)
        if m:
            top = max(top, int(m.group(1)))
    return [f"xi{top + 1 + i}" for i in range(count)]


class BlowupResult:
    __slots__ = ("blown", "projection", "centre", "adjoined", "xi_map", "level", "eliminated",
                 "report", "chain")

    def __init__(self, blown: HopfPresentation, projection: GroupMorphism, centre: Ideal,
                 adjoined: tuple, xi_map: dict, level: int, eliminated: dict, report: Report,
                 chain: tuple = ()):
        self.blown = blown
        self.projection = projection
        self.centre = centre
        self.adjoined = adjoined
        self.xi_map = xi_map
        self.level = level
        self.eliminated = eliminated
        self.report = report
        self.chain = chain


class Stage:
    __slots__ = ("group", "centre", "projection")

    def __init__(self, group: HopfPresentation, centre: Ideal, projection: GroupMorphism):
        self.group = group
        self.centre = centre
        self.projection = projection


class StandardSequence:
    __slots__ = ("stages", "depth", "lifted")

    def __init__(self, stages: list, depth: int, lifted: GroupMorphism):
        self.stages = stages
        self.depth = depth
        self.lifted = lifted


def _require(rep: Report, what: str):
    """Raise NotASubgroup naming every failed check of the report."""
    if not rep.ok:
        raise NotASubgroup(f"{what}: " + "; ".join(c.line() for c in rep.failures()))


def _blow(h: HopfPresentation, centre: Ideal, gens, power: int, name: str) -> BlowupResult:
    carried = [g for g in gens
               if not g.is_scalar() and not h.relations.contains(g)]
    names = fresh_xi_names(h.ring, len(carried))
    ring_b = h.ring.extend(tuple(names))
    gens_b = [g.in_ring(ring_b) for g in h.relations.generators]
    for nm, a in zip(names, carried):
        gens_b.append(ring_b.var(nm).mul_pi(power) - a.in_ring(ring_b))
    rels_b = saturate_pi(Ideal(ring_b, gens_b))

    ring2_b = tensor_ring(ring_b, (PRIME1, PRIME2))
    rels2_b = tensor_ideal(rels_b, ring2_b, (PRIME1, PRIME2))

    comul_images = {v: h.comul.images[v].in_ring(ring2_b) for v in h.ring.variables}
    counit_images = {v: h.counit.images[v] for v in h.ring.variables}
    anti_images = {v: h.antipode.images[v].in_ring(ring_b) for v in h.ring.variables}
    for nm, a in zip(names, carried):
        comul_images[nm] = certified_pi_division(
            h.comul(a).in_ring(ring2_b), power, rels2_b)
        counit_images[nm] = SCALARS.scalar(h.eps_of(a).divide_pi(power))
        anti_images[nm] = certified_pi_division(
            h.antipode(a).in_ring(ring_b), power, rels_b)

    blown = HopfPresentation.from_images(name, ring_b, rels_b, comul_images,
                                         counit_images, anti_images)

    blown, eliminated = prune(blown)

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

    Extends the subgroup ideal along the projection and saturates at pi;
    the result is checked to be a Hopf ideal of the blown presentation.
    """
    base = b.projection.target
    gens = list(subgroup.in_ring(base.ring).generators)
    _flat_subgroup_checks(base, gens)
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
    fibre with the previous one.
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
        b = neron_blowup(current, centre)
        transformed = strict_transform(b, Ideal(current.ring, cur_gens))
        pull = b.projection.pullback
        before = current.relations.plus(cur_gens + [current.ring.pi()])
        after = transformed.plus([b.blown.ring.pi()])
        rep.add("centre fibre contracts to the previous one", stage,
                contract(pull, after).same_ideal(before))
        images = [pull(current.ring.var(v)) for v in current.ring.variables]
        onto = all(
            subalgebra_member(b.blown.ring.var(w), images, after) is not None
            for w in b.blown.ring.variables)
        rep.add("centre fibre is covered by the previous one", stage, onto)
        current = b.blown
        cur_gens = [g for g in transformed.basis()
                    if not b.blown.relations.contains(g)]
        if not cur_gens:
            cur_gens = list(transformed.basis())
    return rep
