"""Finitely presented Hopf algebras over R = Q[pi]_(pi) and their checks.

A presentation fixes a polynomial ring over R, a relation ideal, and the
three structure maps as substitutions: comultiplication lands in a doubled
ring (one primed and one double-primed copy of each variable), the counit
lands in the scalar ring, the antipode is an endomorphism of the ring.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import UnknownVariable
from .groebner import Ideal, _Graph, saturate_pi
from .report import Report
from .ring import SCALARS, Poly, PolyRing, Substitution, format_poly

PRIME1 = "'"
PRIME2 = "''"
PRIME3 = "'''"


def tensor_ring(ring: PolyRing, suffixes) -> PolyRing:
    names = []
    for s in suffixes:
        names.extend(v + s for v in ring.variables)
    return PolyRing(tuple(names), ring.order)


def copy_into(f: Poly, ring_t: PolyRing, suffix: str) -> Poly:
    return f.in_ring(ring_t, {v: v + suffix for v in f.ring.variables})


def doubled(sub: Substitution) -> Substitution:
    """A substitution applied to both copies of a doubled ring."""
    ring2 = tensor_ring(sub.target, (PRIME1, PRIME2))
    return Substitution(tensor_ring(sub.source, (PRIME1, PRIME2)), ring2,
                        {v + s: copy_into(img, ring2, s)
                         for v, img in sub.images.items() for s in (PRIME1, PRIME2)})


def tensor_ideal(relations: Ideal, suffixes: tuple) -> Ideal:
    """Relations of a tensor power, one renamed copy per factor, in
    `tensor_ring(relations.ring, suffixes)`.

    Built once per relations object and suffixes and kept on it, so every
    presentation, blowup and check over it shares one tensor ideal, its
    basis and its packed divisors.  The ideal is seeded with the copies:
    each is a Groebner basis in the tensor ring, and the basis, built on
    first use, reduces only the pairs between copies.  When no leading
    term involves pi, the copies' leading terms live on disjoint variable
    blocks, the product criterion drops every such pair, and the basis is
    the copies sorted by lead.  A normal form of a member reduces to zero
    by the copies alone and builds no basis.  A certified pi-division
    reduces by the copies alone too, and builds the basis only when that
    remainder is not termwise divisible: for relations with no
    pi-torsion the ideal is pi-saturated (a tensor power of a flat
    algebra is flat), so such a quotient has the full route's normal
    form, though it is reduced modulo the copies only.  The copies are
    also the generators, so each relation is renamed once per copy.
    """
    kept = relations._derived.get(suffixes)
    if kept is None:
        ring_t = tensor_ring(relations.ring, suffixes)
        rel_basis = relations.basis()
        blocks = [[g.in_ring(ring_t, {v: v + s for v in relations.ring.variables})
                   for g in rel_basis] for s in suffixes]
        kept = Ideal.seeded(ring_t, [g for block in blocks for g in block], blocks)
        relations._derived[suffixes] = kept
    return kept


class HopfPresentation:
    __slots__ = ("name", "ring", "relations", "comul", "counit", "antipode")

    def __init__(self, name: str, ring: PolyRing, relations: Ideal, comul: Substitution,
                 counit: Substitution, antipode: Substitution):
        if comul.source != ring:
            raise UnknownVariable("comultiplication source ring mismatch")
        if comul.target != tensor_ring(ring, (PRIME1, PRIME2)):
            raise UnknownVariable("comultiplication target is not the doubled ring")
        for v in ring.variables:
            if v not in comul.images or v not in counit.images or v not in antipode.images:
                raise UnknownVariable(f"structure maps missing image of '{v}'")
        self.name = name
        self.ring = ring
        self.relations = relations
        self.comul = comul
        self.counit = counit
        self.antipode = antipode

    @classmethod
    def from_images(cls, name: str, ring: PolyRing, relations: Ideal,
                    comul, counit, antipode) -> "HopfPresentation":
        """A presentation from `{variable: image}` dicts: comultiplication
        images in the doubled ring, counit images in SCALARS, antipode
        images in `ring`."""
        return cls(name, ring, relations,
                   Substitution(ring, tensor_ring(ring, (PRIME1, PRIME2)), comul),
                   Substitution(ring, SCALARS, counit),
                   Substitution(ring, ring, antipode))

    def with_relations(self, name: str, relations: Ideal) -> "HopfPresentation":
        """The same structure maps over other relations."""
        return HopfPresentation(name, self.ring, relations, self.comul, self.counit, self.antipode)

    def doubled_ring(self) -> PolyRing:
        return self.comul.target

    def doubled_ideal(self) -> Ideal:
        return tensor_ideal(self.relations, (PRIME1, PRIME2))

    def tripled_ring(self) -> PolyRing:
        return tensor_ring(self.ring, (PRIME1, PRIME2, PRIME3))

    def tripled_ideal(self) -> Ideal:
        return tensor_ideal(self.relations, (PRIME1, PRIME2, PRIME3))

    def eps(self, v: str) -> Poly:
        return self.counit.images[v]

    def eps_of(self, f: Poly) -> Poly:
        return self.counit(f)

    def aug_gens(self):
        """Generators of the augmentation ideal: v - eps(v)."""
        out = []
        for v in self.ring.variables:
            out.append(self.ring.var(v) - self.eps(v).in_ring(self.ring))
        return out

    def fibre_ideal(self) -> Ideal:
        """The relations together with pi: the special fibre's ideal."""
        return self.relations.plus([self.ring.pi()])


class GroupMorphism:
    """Morphism of group schemes, recorded by its pullback on coordinates."""

    __slots__ = ("name", "source", "target", "pullback")

    def __init__(self, name: str, source: HopfPresentation, target: HopfPresentation,
                 pullback: Substitution):
        for v in target.ring.variables:
            if v not in pullback.images:
                raise UnknownVariable(f"pullback missing image of '{v}'")
        self.name = name
        self.source = source
        self.target = target
        self.pullback = pullback


def _legs(h: HopfPresentation, images):
    """Substitutions from the doubled ring to the base ring that put `images`
    on the primed copy (left leg) or on the double-primed copy (right leg)
    and the identity on the other: (eps x id) and (id x eps) for the counit
    values, the halves of m(S x id) and m(id x S) for the antipode."""
    ring2 = h.doubled_ring()
    left = {}
    right = {}
    for v in h.ring.variables:
        left[v + PRIME1] = images[v]
        left[v + PRIME2] = h.ring.var(v)
        right[v + PRIME1] = h.ring.var(v)
        right[v + PRIME2] = images[v]
    return Substitution(ring2, h.ring, left), Substitution(ring2, h.ring, right)


def _coassoc_legs(h: HopfPresentation):
    """(comul x id) and (id x comul) from the doubled into the tripled ring."""
    ring2 = h.doubled_ring()
    ring3 = h.tripled_ring()
    first = {}
    second = {}
    for v in h.ring.variables:
        dv = h.comul.images[v]
        first[v + PRIME1] = dv.in_ring(ring3)
        first[v + PRIME2] = ring3.var(v + PRIME3)
        second[v + PRIME1] = ring3.var(v + PRIME1)
        second[v + PRIME2] = dv.in_ring(ring3, {w + PRIME1: w + PRIME2 for w in h.ring.variables}
                                        | {w + PRIME2: w + PRIME3 for w in h.ring.variables})
    return Substitution(ring2, ring3, first), Substitution(ring2, ring3, second)


def comul_squared(h: HopfPresentation, f: Poly) -> Poly:
    """Apply comultiplication twice, landing in the tripled ring."""
    first, _ = _coassoc_legs(h)
    return first(h.comul(f))


def check_flat(h: HopfPresentation) -> Report:
    """Certify pi-torsion freeness: the relation ideal equals its pi-saturation."""
    rep = Report(f"flatness of {h.name}")
    sat = saturate_pi(h.relations)
    same = sat.same_ideal(h.relations)
    witness = ""
    if not same:
        extra = [g for g in sat.basis() if not h.relations.contains(g)]
        if extra:
            witness = format_poly(extra[0]) + " has a pi multiple in the ideal"
    rep.add("pi-saturated", h.name, same, witness)
    return rep


def check_hopf(h: HopfPresentation) -> Report:
    """Verify the Hopf axioms for a presentation, relation by relation, and
    its flatness (`check_flat`).

    Every identity is tested as membership in the relation ideal of the
    appropriate tensor power, so the checks are exact over R.
    """
    rep = Report(f"Hopf axioms for {h.name}")
    rels2 = h.doubled_ideal()
    rels3 = h.tripled_ideal()

    for i, r in enumerate(h.relations.generators):
        subject = f"relation {i + 1}"
        rep.vanishes("comultiplication respects relations", subject,
                     rels2.normal_form(h.comul(r)))
        rep.vanishes("counit kills relations", subject, h.eps_of(r))
        rep.vanishes("antipode respects relations", subject,
                     h.relations.normal_form(h.antipode(r)))

    left_eps, right_eps = _legs(h, {v: h.eps(v).in_ring(h.ring) for v in h.ring.variables})
    first, second = _coassoc_legs(h)
    s_left, s_right = _legs(h, h.antipode.images)
    for v in h.ring.variables:
        dv = h.comul.images[v]
        rep.vanishes("counit is left neutral", v,
                     h.relations.normal_form(left_eps(dv) - h.ring.var(v)))
        rep.vanishes("counit is right neutral", v,
                     h.relations.normal_form(right_eps(dv) - h.ring.var(v)))
        rep.vanishes("comultiplication is coassociative", v,
                     rels3.normal_form(first(dv) - second(dv)))
        target = h.eps(v).in_ring(h.ring)
        rep.vanishes("antipode is a left inverse", v,
                     h.relations.normal_form(s_left(dv) - target))
        rep.vanishes("antipode is a right inverse", v,
                     h.relations.normal_form(s_right(dv) - target))

    rep.extend(check_flat(h))
    return rep


def check_morphism(m: GroupMorphism) -> Report:
    """Verify that a pullback defines a morphism of group schemes."""
    rep = Report(f"morphism {m.name}: {m.source.name} -> {m.target.name}")
    src, tgt = m.source, m.target
    for i, r in enumerate(tgt.relations.generators):
        rep.vanishes("pullback respects relations", f"relation {i + 1}",
                     src.relations.normal_form(m.pullback(r)))
    rels2s = src.doubled_ideal()
    pull2 = doubled(m.pullback)
    for v in tgt.ring.variables:
        lhs = src.comul(m.pullback.images[v])
        rhs = pull2(tgt.comul.images[v])
        rep.vanishes("pullback intertwines comultiplication", v,
                     rels2s.normal_form(lhs - rhs))
        rep.vanishes("pullback intertwines counit", v,
                     src.eps_of(m.pullback.images[v]) - tgt.eps(v))
        rep.vanishes("pullback intertwines antipode", v, src.relations.normal_form(
            src.antipode(m.pullback.images[v]) - m.pullback(tgt.antipode.images[v])))
    return rep


def special_fibre(h: HopfPresentation) -> HopfPresentation:
    """The fibre over the residue field: set pi to zero everywhere."""
    ring = h.ring
    return HopfPresentation.from_images(
        h.name + "_k", ring, Ideal(ring, [g.set_pi_zero() for g in h.relations.generators]),
        {v: h.comul.images[v].set_pi_zero() for v in ring.variables},
        {v: h.eps(v).set_pi_zero() for v in ring.variables},
        {v: h.antipode.images[v].set_pi_zero() for v in ring.variables})


def generic_fibre(h: HopfPresentation) -> HopfPresentation:
    """The fibre over the fraction field: saturate the relations at pi."""
    return h.with_relations(h.name + "_K", saturate_pi(h.relations))


ReduceResult = namedtuple("ReduceResult", "presentation level trivial report")


def reduce_mod(h: HopfPresentation, n: int) -> ReduceResult:
    """Base change to R/(pi^(n+1)); reports whether the quotient group is trivial."""
    if n < 0:
        raise ValueError("modulus must be nonnegative")
    ring = h.ring
    cut = ring.pi() ** (n + 1)
    rels = h.relations.plus([cut])
    out = h.with_relations(f"{h.name}_mod{n}", rels)
    rep = Report(f"{h.name} mod pi^{n + 1} trivial")
    for v in ring.variables:
        rep.vanishes("coordinate is constant", v,
                     rels.normal_form(ring.var(v) - h.eps(v).in_ring(ring)))
    return ReduceResult(out, n, rep.ok, rep)


def hopf_ideal_report(h: HopfPresentation, gens, pi_power: int = 0) -> Report:
    """Check that an ideal is a Hopf ideal contained in the augmentation ideal.

    With pi_power = k > 0 the conditions are tested modulo pi^k; with k = 1
    this is the precondition for a single blowup step, and with k = 0 the
    conditions hold over the base, as flat closed subgroups require.
    """
    where = f" mod pi^{pi_power}" if pi_power else ""
    rep = Report(f"Hopf ideal conditions{where} in {h.name}")
    ring = h.ring
    ring2 = h.doubled_ring()
    side = []
    for g in gens:
        side.append(copy_into(g, ring2, PRIME1))
        side.append(copy_into(g, ring2, PRIME2))
    if pi_power:
        side.append(ring2.pi(pi_power))
    rels2 = h.doubled_ideal().plus(side)
    inside = h.relations.plus(list(gens) + ([ring.pi(pi_power)] if pi_power else []))
    for i, g in enumerate(gens):
        subject = f"generator {i + 1}"
        e = h.eps_of(g)
        ok_e = e.pi_valuation() >= pi_power if pi_power else e.is_zero()
        rep.add("counit vanishes", subject, ok_e, "" if ok_e else format_poly(e))
        rep.vanishes("comultiplication stays in the two-sided span", subject,
                     rels2.normal_form(h.comul(g)))
        rep.vanishes("antipode preserves the ideal", subject,
                     inside.normal_form(h.antipode(g)))
    return rep


def quotient_presentation(h: HopfPresentation, gens, name: str) -> HopfPresentation:
    """Quotient by a Hopf ideal: same maps, enlarged relations."""
    return h.with_relations(name, h.relations.plus(gens))


def _prune_relations(relations: Ideal):
    """Eliminate variables that a lex relation ideal expresses in the others.

    A variable w can go when the reduced lex basis holds w - g.  No term
    of a reduced basis is divisible by another element's lead, and none
    of an element's tail by its own, so every such g and every other
    element is free of every solved w.  One simultaneous substitution is
    therefore the chain of one-at-a-time ones, and the other elements,
    which it leaves alone, are the reduced lex basis of the smaller ideal:
    no element turns solvable after a step, and the result keeps that
    basis.  The normal form of any f modulo `relations` is free of every
    solved w, so it is the normal form of its substitution modulo the
    smaller ideal.  The smaller ideal is `relations` read in fewer
    variables, so when `relations` is its own pi-saturation, so is the
    smaller ideal, and it is marked so.  Returns the smaller ideal
    (`relations` itself when nothing is solved), each eliminated
    variable's expression in the survivors in basis order, and the
    substitution onto the smaller ring.
    """
    ring = relations.ring
    if ring.order.kind != "lex":
        raise ValueError("pruning requires the lex order")
    solved = {}
    kept = []
    for g in relations.basis():
        m = g.lead_monomial()
        if sum(m[:-1]) == 1 and m[-1] == 0:
            solved[ring.variables[m.index(1)]] = -g.tail()
        else:
            kept.append(g)
    if not solved:
        return relations, {}, Substitution.identity(ring)
    small = ring.drop(solved)
    eliminated = {w: g.in_ring(small) for w, g in solved.items()}
    sub = Substitution(ring, small, {v: small.var(v) for v in small.variables} | eliminated)
    kept = [g.in_ring(small) for g in kept]
    pruned = Ideal.with_basis(small, kept, kept)
    if relations._derived.get(saturate_pi) is relations:
        pruned._derived[saturate_pi] = pruned
    return pruned, eliminated, sub


def prune(h: HopfPresentation):
    """Eliminate variables that the relations express in the others.

    The relations are pruned by `_prune_relations`, the step that
    `blowup` shares, and the structure maps follow the substitution.
    Returns the smaller presentation (h itself when nothing is solved)
    and, in basis order, each eliminated variable's expression in the
    survivors.
    """
    relations, eliminated, sub = _prune_relations(h.relations)
    if not eliminated:
        return h, {}
    small, push = sub.target, doubled(sub)
    pruned = HopfPresentation.from_images(
        h.name, small, relations,
        {v: push(h.comul.images[v]) for v in small.variables},
        {v: h.counit.images[v] for v in small.variables},
        {v: sub(h.antipode.images[v]) for v in small.variables})
    return pruned, eliminated


def isomorphism_report(m: GroupMorphism) -> Report:
    """Certify that a morphism is an isomorphism of group schemes.

    The pullback must be a bijective ring map: injectivity is contraction
    of the source relations being exactly the target relations, and
    surjectivity is every source coordinate lying in the image subalgebra.
    One walk of the pullback's graph ideal decides both.
    """
    rep = check_morphism(m)
    src, tgt = m.source, m.target
    graph = _Graph.of(m.pullback, src.relations)
    rep.add("pullback is injective", tgt.name,
            graph.contraction().same_ideal(tgt.relations))
    for v in src.ring.variables:
        rep.add("pullback is surjective", v, graph.member(src.ring.var(v)) is not None)
    return rep
