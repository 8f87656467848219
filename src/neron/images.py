"""Schematic images of group morphisms and their saturation towers.

A morphism rho factors through the flat closed subgroup its pullback cuts
out of the target (the kernel of the pullback, saturated at pi).  Adjoining
the pi-divisible part of the coordinate ring step by step approximates the
pi-saturation of the image ring; the chain of special fibres of these data
is the mod-pi picture of the factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blowup import _lift_pullback, neron_blowup
from .groebner import Ideal, contract, saturate_pi
from .hopf import PRIME1, PRIME2, GroupMorphism, HopfPresentation, copy_into, prune, special_fibre
from .report import Report
from .ring import Substitution, format_poly


@dataclass
class ImageResult:
    group: HopfPresentation
    embed: GroupMorphism
    cover: GroupMorphism


@dataclass
class Diptych:
    image: ImageResult
    stages: list
    projections: list
    lifts: list
    stabilized: bool
    report: Report


@dataclass
class Triptych:
    diptych: Diptych
    saturated_fibre: HopfPresentation
    mod_pi_image: HopfPresentation
    image_fibre: HopfPresentation
    report: Report
    into: Substitution  # image coordinates -> the saturated fibre


def image_hopf(rho: GroupMorphism) -> ImageResult:
    """The flat closed subgroup of the target that rho lands in.

    Relations are the contraction of the source relations along the
    pullback, saturated at pi so the result is flat: the closure of the
    generic-fibre image.
    """
    tgt = rho.target
    kernel = contract(rho.pullback, rho.source.relations)
    group = tgt.with_relations(f"Im({rho.name})", saturate_pi(kernel))
    embed = GroupMorphism(f"{group.name}->{tgt.name}", group, tgt,
                          Substitution.identity(tgt.ring))
    cover = GroupMorphism(f"{rho.source.name}->{group.name}", rho.source, group,
                          rho.pullback)
    return ImageResult(group, embed, cover)


def _pruned_fibre(h: HopfPresentation):
    """Special fibre with forced variables eliminated; returns the fibre
    and the pullback of the original coordinates into it."""
    small, eliminated = prune(special_fibre(h))
    images = {v: eliminated[v] if v in eliminated else small.ring.var(v)
              for v in h.ring.variables}
    return small, Substitution(h.ring, small.ring, images)


def saturated_image(rho: GroupMorphism, steps: int) -> Diptych:
    """Grow the image by repeatedly adjoining its pi-divisible part.

    Each stage blows up the previous one at the contraction of the
    source's special-fibre ideal; the tower stabilizes when that
    contraction is the stage's own special fibre, meaning no coordinate
    of the source ring is a new pi-fold of a stage element.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    img = image_hopf(rho)
    src = rho.source
    rep = Report(f"image tower for {rho.name}")
    stages = [img.group]
    projections = []
    lifts = [img.cover]
    pull = img.cover.pullback
    stabilized = False
    fibre_ideal = src.fibre_ideal()
    for i in range(steps):
        current = stages[-1]
        centre = contract(pull, fibre_ideal)
        if centre.same_ideal(current.fibre_ideal()):
            stabilized = True
            rep.add("tower stabilized", f"stage {i}", True,
                    "centre is the whole special fibre")
            break
        b = neron_blowup(current, centre, f"{img.group.name}[{i + 1}]")
        pull = _lift_pullback(pull, b, src.relations,
                              f"stage {i + 1} lift fails")
        rep.add("stage adjoined pi-divisible coordinates", b.blown.name, True,
                ", ".join(b.adjoined))
        stages.append(b.blown)
        projections.append(b.projection)
        lifts.append(GroupMorphism(f"{src.name}->{b.blown.name}", src,
                                   b.blown, pull))
    else:
        centre = contract(pull, fibre_ideal)
        stabilized = centre.same_ideal(stages[-1].fibre_ideal())
        rep.add("tower stabilized", f"stage {steps}", stabilized,
                "" if stabilized else "the centre still exceeds the special fibre")
    for i, lift in enumerate(lifts):
        composed = lift.pullback
        for proj in reversed(projections[:i]):
            composed = proj.pullback.then(composed)
        ok = True
        for v in img.group.ring.variables:
            g = img.group.ring.var(v)
            d = src.relations.normal_form(composed(g) - rho.pullback(g))
            ok = ok and d.is_zero()
        rep.add("stage factors the morphism", stages[i].name, ok)
    return Diptych(img, stages, projections, lifts, stabilized, rep)


def triptych(rho: GroupMorphism, steps: int = 8) -> Triptych:
    """The three special-fibre groups of a morphism.

    The saturation tower's fibre maps onto the mod-pi image of the
    morphism, which sits as a closed subgroup inside the fibre of the
    schematic image; the middle term is certified to equal the image of
    the outer map.
    """
    dip = saturated_image(rho, steps)
    img = dip.image
    rep = Report(f"special fibres for {rho.name}")
    rep.extend(dip.report)

    image_fibre, _ = _pruned_fibre(img.group)

    last = dip.stages[-1]
    pull = Substitution.identity(img.group.ring)
    for proj in dip.projections:
        pull = pull.then(proj.pullback)
    saturated_fibre, to_fibre = _pruned_fibre(last)

    mod_pi_rels = contract(rho.pullback, rho.source.fibre_ideal())
    mod_pi_basis = mod_pi_rels.basis()
    mod_pi_image = img.group.with_relations(
        f"Im({rho.name}_k)", Ideal.with_basis(img.group.ring, mod_pi_basis, mod_pi_basis))

    into = pull.then(to_fibre)
    outer = contract(into, saturated_fibre.fibre_ideal())
    same = outer.same_ideal(mod_pi_rels)
    bad = ""
    if not same:
        bad = next((format_poly(g) for g in outer.basis()
                    if not mod_pi_rels.contains(g)),
                   next(format_poly(g) for g in mod_pi_rels.basis()
                        if not outer.contains(g)))
    rep.add("middle fibre is the image of the saturated fibre",
            mod_pi_image.name, same, bad)
    return Triptych(dip, saturated_fibre, mod_pi_image, image_fibre, rep, into)


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
