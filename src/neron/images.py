"""Schematic images of group morphisms and their saturation towers.

A morphism rho factors through the flat closed subgroup its pullback cuts
out of the target (the kernel of the pullback, saturated at pi).  Adjoining
the pi-divisible part of the coordinate ring step by step approximates the
pi-saturation of the image ring; the chain of special fibres of these data
is the mod-pi picture of the factorization.
"""

from __future__ import annotations

from collections import namedtuple

from .blowup import _lift_pullback, neron_blowup
from .groebner import Ideal, contract, saturate_pi
from .hopf import GroupMorphism, HopfPresentation, prune, special_fibre
from .report import Report
from .ring import Substitution, format_poly


ImageResult = namedtuple("ImageResult", "group embed cover")
# mod_pi_rels is the first centre: the contraction of the source's
# special-fibre ideal along rho, the relations of rho's mod-pi image
Diptych = namedtuple("Diptych", "image stages projections stabilized report mod_pi_rels")
# into maps the image coordinates to the saturated fibre
Triptych = namedtuple("Triptych", "diptych saturated_fibre mod_pi_image image_fibre report into")


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
    mod_pi_rels = centre = contract(pull, fibre_ideal)
    for i in range(steps):
        current = stages[-1]
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
        centre = contract(pull, fibre_ideal)
    else:
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
    return Diptych(img, stages, projections, stabilized, rep, mod_pi_rels)


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

    mod_pi_rels = dip.mod_pi_rels
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
