"""Deterministic Buchberger kernel over Q with pi as the smallest variable.

Selection follows the normal strategy (sugar degree, then the order key of the
pair lcm, then pair index), so identical inputs always walk the same path and
produce the same reduced basis.  The pending pairs sit in a heap over that key,
so each selection pops the minimum instead of scanning every pair, and each
polynomial computes its leading monomial once (`Poly.lead_monomial`).
Membership can track cofactors through the whole loop, which is what certified
division by pi powers and the blowup structure maps rely on.

Bases are built only when a decision needs one.  The kernel can start from
blocks of its input that are Groebner bases already (the renamed copies in a
tensor power of an ideal), marking the pairs inside each block done, so only
the pairs between blocks are reduced; the product criterion drops every such
pair whose leading monomials share no variable (Gebauer-Moeller 1988).  An
ideal whose basis is not built yet answers a normal form by dividing by what
it holds first, and builds the basis only when that leaves a remainder.  The
reduced basis and the normal forms are unique, so every answer is the one a
basis from scratch gives.  Tracked bases and membership certificates always
walk from the generators.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_LIMITS, Limits
from .errors import DivisionObstruction, ResourceLimit, UnknownVariable
from .ring import (
    Poly,
    PolyRing,
    Substitution,
    elim_order,
    format_poly,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


def _reduce_full(f: Poly, basis, track: bool = False):
    """Full multivariate division; returns (remainder, quotients or None).

    Divisors are scanned in list order, the first whose leading term divides
    wins, so the result is deterministic for a fixed basis list.
    """
    ring = f.ring
    key = ring.order.key
    lead = [(g.lead_monomial(), g.lead_coeff()) for g in basis]
    work = dict(f.terms)
    rem = {}
    quots = [{} for _ in basis] if track else None
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for i, (lm, lc) in enumerate(lead):
            if mono_divides(lm, m):
                qm = mono_div(m, lm)
                qc = c / lc
                for gm, gc in basis[i].terms.items():
                    if gm == lm:
                        continue
                    t = mono_mul(qm, gm)
                    val = work.get(t, Fraction(0)) - qc * gc
                    if val:
                        work[t] = val
                    else:
                        work.pop(t, None)
                if track:
                    quots[i][qm] = quots[i].get(qm, Fraction(0)) + qc
                break
        else:
            rem[m] = c
    return Poly(ring, rem), ([Poly(ring, q) for q in quots] if track else None)


def _buchberger(gens, ring: PolyRing, limits: Limits, track: bool, blocks=()):
    """Core loop; returns (basis, representations w.r.t. gens or None).

    `blocks` gives the sizes of consecutive runs at the start of `gens` that
    are each a Groebner basis already, with no zero element: the pairs
    inside a run have standard representations, so they start out done and
    are never reduced.
    """
    basis = []
    reps = []
    sugars = []

    def insert(p: Poly, rep):
        lc = p.lead_coeff()
        p = p.monic()
        if track:
            rep = [r.scale(Fraction(1) / lc) for r in rep]
        basis.append(p)
        reps.append(rep)
        sugars.append(p.total_degree())
        return len(basis) - 1

    unit = [ring.zero() for _ in gens] if track else None
    for pos, g in enumerate(gens):
        if g.is_zero():
            continue
        rep = None
        if track:
            rep = list(unit)
            rep[pos] = ring.one()
        insert(g, rep)

    # Pending pairs as a heap of (sugar, order key of lcm, i, j).  Each entry
    # is unique by (i, j) and leaves only when selected, so popping gives the
    # same sequence as taking the minimum of the whole pair set each time.
    pairs = []
    done = set()
    start = 0
    for size in blocks:
        done.update((i, j) for j in range(start, start + size) for i in range(start, j))
        start += size

    def push_pairs(j):
        lj = basis[j].lead_monomial()
        for i in range(j):
            if (i, j) in done:
                continue
            li = basis[i].lead_monomial()
            lcm = mono_lcm(li, lj)
            d = mono_degree(lcm)
            sugar = max(sugars[i] + d - mono_degree(li), sugars[j] + d - mono_degree(lj))
            heapq.heappush(pairs, (sugar, ring.order.key(lcm), i, j))

    for j in range(len(basis)):
        push_pairs(j)

    reduced_count = 0
    while pairs:
        sugar, _, i, j = heapq.heappop(pairs)
        done.add((i, j))
        li, lj = basis[i].lead_monomial(), basis[j].lead_monomial()
        lcm = mono_lcm(li, lj)
        if lcm == mono_mul(li, lj):
            continue
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if not mono_divides(basis[k].lead_monomial(), lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                skip = True
                break
        if skip:
            continue
        reduced_count += 1
        if reduced_count > limits.max_pairs:
            raise ResourceLimit(
                f"pair budget {limits.max_pairs} exhausted", pairs=reduced_count
            )
        # Basis elements are monic, so the S-pair needs no coefficients.
        ti = ring.monomial(mono_div(lcm, li))
        tj = ring.monomial(mono_div(lcm, lj))
        s = ti * basis[i] - tj * basis[j]
        srep = None
        if track:
            srep = [ti * a - tj * b for a, b in zip(reps[i], reps[j])]
        h, quots = _reduce_full(s, basis, track)
        if h.is_zero():
            continue
        if h.total_degree() > limits.max_degree:
            raise ResourceLimit(
                f"degree budget {limits.max_degree} exceeded by a basis element",
                pairs=reduced_count,
                degree=h.total_degree(),
            )
        hrep = None
        if track:
            hrep = [
                sr - sum((q * reps[t][col] for t, q in enumerate(quots) if q), ring.zero())
                for col, sr in enumerate(srep)
            ]
        hs = max(
            sugar,
            h.total_degree(),
        )
        idx = insert(h, hrep)
        sugars[idx] = hs
        push_pairs(idx)

    return _interreduce(basis, reps, ring, track)


def _interreduce(basis, reps, ring, track):
    order_key = ring.order.key
    idx = sorted(range(len(basis)), key=lambda i: order_key(basis[i].lead_monomial()))
    kept = []
    for i in idx:
        lm = basis[i].lead_monomial()
        if any(mono_divides(basis[k].lead_monomial(), lm) for k in kept):
            continue
        kept.append(i)
    out = [basis[i] for i in kept]
    outreps = [reps[i] for i in kept] if track else None
    for pos in range(len(out)):
        others = out[:pos] + out[pos + 1 :]
        nf, quots = _reduce_full(out[pos], others, track)
        if track:
            otherreps = outreps[:pos] + outreps[pos + 1 :]
            rep = outreps[pos]
            for t, q in enumerate(quots):
                if q:
                    rep = [r - q * orr for r, orr in zip(rep, otherreps[t])]
            lc = nf.lead_coeff()
            outreps[pos] = [r.scale(Fraction(1) / lc) for r in rep]
        out[pos] = nf.monic()
    pack = sorted(range(len(out)), key=lambda i: order_key(out[i].lead_monomial()))
    final = tuple(out[i] for i in pack)
    finalreps = [outreps[i] for i in pack] if track else None
    return final, finalreps


@dataclass
class MembershipCertificate:
    """Outcome of an ideal membership test with exact cofactors on success."""

    member: bool
    cofactors: list | None
    remainder: Poly


class Ideal:
    """Finitely generated ideal with a cached reduced basis.

    The basis is built on first use.  Until then a normal form first divides
    by the elements the ideal already holds (its seed blocks, or else its
    nonzero generators): a zero remainder proves membership, so the answer
    is zero without any basis.
    """

    __slots__ = ("ring", "generators", "_basis", "_tracked", "_seed", "_saturation")

    def __init__(self, ring: PolyRing, generators):
        self.ring = ring
        gens = []
        for g in generators:
            if not isinstance(g, Poly):
                g = ring.scalar(g)
            if g.ring != ring:
                g = g.in_ring(ring)
            gens.append(g)
        self.generators = tuple(gens)
        self._basis = None
        self._tracked = None
        self._seed = None
        self._saturation = None

    @classmethod
    def with_basis(cls, ring: PolyRing, generators, basis) -> "Ideal":
        ideal = cls(ring, generators)
        ideal._basis = tuple(basis)
        return ideal

    @classmethod
    def seeded(cls, ring: PolyRing, generators, blocks) -> "Ideal":
        """The ideal of `generators`, also generated by the union of
        `blocks`, each of which is a reduced Groebner basis already; its
        basis starts from the blocks and only works through the pairs
        between them."""
        ideal = cls(ring, generators)
        ideal._seed = tuple(tuple(block) for block in blocks)
        return ideal

    def _held(self):
        """The elements held before the basis is built, and the sizes of
        the leading runs of them that are Groebner bases."""
        if self._seed is None:
            return [g for g in self.generators if not g.is_zero()], ()
        return [g for block in self._seed for g in block], tuple(map(len, self._seed))

    def basis(self, limits: Limits = DEFAULT_LIMITS):
        if self._basis is None:
            held, blocks = self._held()
            self._basis, _ = _buchberger(held, self.ring, limits, False, blocks)
        return self._basis

    def tracked_basis(self, limits: Limits = DEFAULT_LIMITS):
        if self._tracked is None:
            self._tracked = _buchberger(list(self.generators), self.ring, limits, True)
        return self._tracked

    def normal_form(self, f: Poly, limits: Limits = DEFAULT_LIMITS) -> Poly:
        if f.ring != self.ring:
            f = f.in_ring(self.ring)
        if self._basis is None:
            f, _ = _reduce_full(f, self._held()[0])
            if f.is_zero():
                return f
        rem, _ = _reduce_full(f, list(self.basis(limits)))
        return rem

    def contains(self, f: Poly, limits: Limits = DEFAULT_LIMITS) -> bool:
        return self.normal_form(f, limits).is_zero()

    def is_zero(self, limits: Limits = DEFAULT_LIMITS) -> bool:
        return not self.basis(limits)

    def is_unit(self, limits: Limits = DEFAULT_LIMITS) -> bool:
        b = self.basis(limits)
        return len(b) == 1 and b[0] == self.ring.one()

    def same_ideal(self, other: "Ideal", limits: Limits = DEFAULT_LIMITS) -> bool:
        if self.ring.variables != other.ring.variables:
            return False
        return all(self.contains(g, limits) for g in other.generators) and all(
            other.contains(g, limits) for g in self.generators
        )

    def plus(self, extra) -> "Ideal":
        return Ideal(self.ring, list(self.generators) + list(extra))

    def in_ring(self, ring: PolyRing, rename=None) -> "Ideal":
        return Ideal(ring, [g.in_ring(ring, rename) for g in self.generators])

    def __repr__(self):
        inner = ", ".join(format_poly(g) for g in self.generators)
        return f"({inner})"


def membership(f: Poly, ideal: Ideal, limits: Limits = DEFAULT_LIMITS) -> MembershipCertificate:
    """Decide f in ideal; on success return cofactors over the generators.

    The cofactor identity sum(cofactor_i * generator_i) == f is re-checked by
    direct arithmetic before returning, so a returned certificate is a proof.
    """
    if f.ring != ideal.ring:
        f = f.in_ring(ideal.ring)
    basis, reps = ideal.tracked_basis(limits)
    rem, quots = _reduce_full(f, list(basis), True)
    if not rem.is_zero():
        return MembershipCertificate(False, None, rem)
    cof = [ideal.ring.zero() for _ in ideal.generators]
    for t, q in enumerate(quots):
        if q.is_zero():
            continue
        for col in range(len(cof)):
            cof[col] = cof[col] + q * reps[t][col]
    check = sum((c * g for c, g in zip(cof, ideal.generators)), ideal.ring.zero())
    if check != f:
        raise AssertionError("cofactor bookkeeping produced a wrong certificate")
    return MembershipCertificate(True, cof, rem)


_TAG = "_t"


def _fresh_names(base: str, count: int, taken) -> list:
    names = []
    seen = set(taken)
    i = 1
    while len(names) < count:
        cand = f"{base}{i}"
        if cand not in seen:
            names.append(cand)
            seen.add(cand)
        i += 1
    return names


def saturate(ideal: Ideal, f: Poly, limits: Limits = DEFAULT_LIMITS) -> Ideal:
    """Saturation (ideal : f^infinity) via a Rabinowitsch tag variable."""
    ring = ideal.ring
    if f.ring != ring:
        f = f.in_ring(ring)
    (tag,) = _fresh_names(_TAG, 1, ring.variables)
    big = ring.prepend((tag,), elim_order(1))
    gens = [g.in_ring(big) for g in ideal.generators]
    gens.append(big.one() - big.var(tag) * f.in_ring(big))
    basis, _ = _buchberger(gens, big, limits, False)
    keep = [g for g in basis if g.ring.index(tag) == 0 and all(m[0] == 0 for m in g.terms)]
    return Ideal(ring, [g.in_ring(ring) for g in keep])


def saturate_pi(ideal: Ideal, limits: Limits = DEFAULT_LIMITS) -> Ideal:
    """(ideal : pi^infinity), computed once per ideal object and kept on it;
    a saturation is its own saturation."""
    if ideal._saturation is None:
        sat = saturate(ideal, ideal.ring.pi(), limits)
        sat._saturation = sat
        ideal._saturation = sat
    return ideal._saturation


def eliminate(ideal: Ideal, drop, limits: Limits = DEFAULT_LIMITS) -> Ideal:
    """Intersection with the subring omitting the dropped variables."""
    drop = [v for v in ideal.ring.variables if v in set(drop)]
    if not drop:
        return Ideal(ideal.ring, list(ideal.generators))
    keep = [v for v in ideal.ring.variables if v not in set(drop)]
    big = PolyRing(tuple(drop) + tuple(keep), elim_order(len(drop)))
    gens = [g.in_ring(big) for g in ideal.generators]
    basis, _ = _buchberger(gens, big, limits, False)
    ndrop = len(drop)
    small = PolyRing(tuple(keep), ideal.ring.order)
    out = []
    for g in basis:
        if all(not any(m[:ndrop]) for m in g.terms):
            out.append(g.in_ring(small))
    return Ideal(small, out)


def contract(phi: Substitution, ideal_target: Ideal, limits: Limits = DEFAULT_LIMITS) -> Ideal:
    """Preimage of an ideal of the target presentation under a substitution.

    The target ideal should already include the target ring's relations when a
    presented quotient is intended.
    """
    A = phi.source
    B = phi.target
    if ideal_target.ring != B:
        raise UnknownVariable("contract: ideal does not live in the substitution target")
    for v in A.variables:
        if v not in phi.images:
            raise UnknownVariable(f"contract needs a total substitution; {v!r} has no image")
    suffix = "@"
    while any(suffix in v for v in B.variables):
        suffix += "@"
    rename = {v: v + suffix for v in B.variables}
    bnames = tuple(rename[v] for v in B.variables)
    big = PolyRing(bnames + A.variables, elim_order(len(bnames)))
    gens = [g.in_ring(big, rename) for g in ideal_target.generators]
    for v in A.variables:
        gens.append(big.var(v) - phi.images[v].in_ring(big, rename))
    basis, _ = _buchberger(gens, big, limits, False)
    nb = len(bnames)
    out = []
    for g in basis:
        if all(not any(m[:nb]) for m in g.terms):
            out.append(g.in_ring(A))
    return Ideal(A, out)


def subalgebra_member(
    f: Poly,
    gens,
    relations: Ideal,
    limits: Limits = DEFAULT_LIMITS,
    tags=None,
):
    """Search for f as a polynomial in `gens` modulo `relations`.

    Returns the witness expression over the tag ring (one variable per
    generator) or None when undecided at the configured bounds.  A present
    answer is always correct; absence is not a refutation.
    """
    ring = relations.ring
    if f.ring != ring:
        f = f.in_ring(ring)
    if tags is None:
        tags = _fresh_names("_z", len(gens), ring.variables)
    big = PolyRing(ring.variables + tuple(tags), elim_order(ring.nvars))
    idgens = [g.in_ring(big) for g in relations.generators]
    for tag, g in zip(tags, gens):
        idgens.append(big.var(tag) - g.in_ring(big))
    basis, _ = _buchberger(idgens, big, limits, False)
    rem, _ = _reduce_full(f.in_ring(big), list(basis))
    n = ring.nvars
    if any(any(m[:n]) for m in rem.terms):
        return None
    small = PolyRing(tuple(tags))
    return rem.in_ring(small)


def certified_pi_division(
    f: Poly, power: int, modulus: Ideal, limits: Limits = DEFAULT_LIMITS
) -> Poly:
    """Find d with pi^power * d == f modulo the ideal, or raise.

    First tries the termwise route on the normal form; otherwise extracts the
    pi^power cofactor from a membership certificate.
    """
    nf = modulus.normal_form(f, limits)
    if nf.pi_valuation() >= power:
        return nf.divide_pi(power)
    ring = modulus.ring
    widened = Ideal(ring, [ring.pi(power)] + list(modulus.basis(limits)))
    cert = membership(nf, widened, limits)
    if not cert.member:
        raise DivisionObstruction(
            f"pi^{power} does not divide modulo the relations", witness=format_poly(nf)
        )
    return modulus.normal_form(cert.cofactors[0], limits)
