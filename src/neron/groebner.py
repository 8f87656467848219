"""Deterministic Buchberger kernel over Q with pi as the smallest variable.

Selection follows the normal strategy (sugar degree, then the order key of the
pair lcm, then pair index), so identical inputs always walk the same path and
produce the same reduced basis.  The pending pairs sit in a heap over that key,
so each selection pops the minimum instead of scanning every pair.
Membership can track cofactors through the whole loop, which is what certified
division by pi powers and the blowup structure maps rely on.

Inside the kernel (`_buchberger`, `_interreduce` and the division behind
`_reduce_full`) a monomial is one int with a fixed-width field per slot and
per block degree (`_Packing`, after Monagan-Pearce 2007 and
Bachmann-Schoenemann 1998): a product is one add, divisibility one subtract
and mask, and the order key one xor.  Polynomials enter and leave as `Poly`s
with tuple monomials.  A product or lcm that outgrows its field restarts the
walk or the division with wider fields; the width decides nothing, so the
pairs reduced and every resource limit are the same at any width.  An ideal
keeps its divisors packed at each width it has divided at (`_Divisors`), so
repeated normal forms pack its basis once per width.

Coefficients are those of `ring`: an int when integral, else a Fraction.
Basis elements are kept monic, so the leads of an S-pair cancel with no
division; the kernel's only divisions are by a lead coefficient, when an
element joins the basis and when `_divide` takes a quotient term, and
both go through `ring.quotient`, so integer data stays in ints.

Bases are built only when a decision needs one.  The kernel can start from
blocks of its input that are Groebner bases already (the renamed copies in a
tensor power of an ideal), marking the pairs inside each block done, so only
the pairs between blocks are reduced; the product criterion drops every such
pair whose leading monomials share no variable (Gebauer-Moeller 1988).  An
ideal whose basis is not built yet answers a normal form by dividing by what
it holds first, and builds the basis only when that leaves a remainder.  The
reduced basis and the normal forms are unique, so every answer is the one a
basis from scratch gives.  A certified pi-division modulo a seeded ideal
divides by the blocks first too, and returns that remainder's quotient
when pi^k divides it termwise: an exact quotient, reduced modulo the
blocks, whose normal form is the full route's answer in a pi-saturated
ideal.  Tracked bases and membership certificates always walk from the
generators.

Every walk spends the budget active when it starts (`config.budget`), so
a basis built lazily honours the scope of its first use, not the scope
its ideal was made in.

Saturation walks once, in lex with its tag variable first: that order
eliminates the tag and is lex on the rest, so in a lex ring the tag-free
part of the reduced basis is the saturation's reduced basis, and the
result keeps it.  A saturation at pi makes pi a unit modulo the tag ideal,
so that walk divides each element it adds by its power of pi, and the
degree budget meets the element without it.  An ideal with at most one
nonzero generator g saturates at pi with no walk: pi is prime in
Q[pi][x], so the saturation is (g / pi^v), v the pi valuation of g, and
its reduced basis is g / pi^v made monic, what the walk would return.
Elimination and contraction walk in their block orders and build their
basis in the ring's order on first use.  A contraction along a map and
membership in the subalgebra its images generate walk the same graph
ideal, so one walk (`_Graph`) answers both.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from functools import lru_cache
from operator import mul

from .config import ACTIVE
from .errors import DivisionObstruction, ResourceLimit, UnknownVariable
from .ring import LEX, Poly, PolyRing, Substitution, elim_order, format_poly, quotient


class _Overflow(Exception):
    """A packed exponent outgrew its field; the caller repacks wider."""


class _Packing:
    """The monomials of one ring as ints, every field `bits` wide.

    Each slot, pi included, and each block's total degree gets a field of
    `bits` value bits with a zero guard bit above them.  Fields from the top:

        lex        x1 ... xn, pi, deg
        grevlex    deg, pi, xn ... x1
        elim(s)    deg1, xs ... x1, deg2, pi, xn ... x(s+1)

    An empty elimination block has no fields.  The key `P ^ flip` inverts
    the value bits of every slot under a degree field, which turns each
    grevlex block's reversed comparison into plain integer order, so keys
    compare as `Order.key` does.  A product is one add, a quotient one
    subtract, and a divides b exactly when b - a has no guard bit set.
    Products and lcms check the guard bits and raise `_Overflow`; packing
    cannot overflow, since the width is chosen from the degrees packed.
    """

    __slots__ = ("bits", "guard", "slot_mask", "flip", "mults", "shifts", "blocks")

    def __init__(self, order, nvars: int, bits: int):
        width = bits + 1
        value = (1 << bits) - 1
        slots = list(range(nvars + 1))
        # Fields from the bottom, and per block the positions of its degree
        # field and of its lowest slot field, and its slot count.
        if order.kind not in ("lex", "grevlex", "elim"):
            raise ValueError(f"unknown order kind {order.kind!r}")
        if order.kind == "lex":
            fields = ["deg"] + slots[::-1]
            runs = [(0, 1, len(slots))]
        else:
            split = order.split if order.kind == "elim" else 0
            fields, runs = [], []
            for block in (slots[split:], slots[:split]):
                if block:
                    runs.append((len(fields) + len(block), len(fields), len(block)))
                    fields += block + ["deg"]
        shifts = [0] * len(slots)
        mults = [0] * len(slots)
        for d, lo, count in runs:
            for pos in range(lo, lo + count):
                shifts[fields[pos]] = pos * width
                mults[fields[pos]] = (1 << (pos * width)) + (1 << (d * width))
        self.bits = bits
        self.guard = sum(1 << (pos * width + bits) for pos in range(len(fields)))
        self.slot_mask = sum(value << s for s in shifts)
        self.flip = 0 if order.kind == "lex" else self.slot_mask
        self.mults = tuple(mults)
        self.shifts = tuple(shifts)
        # Per block: its degree field, its lowest slot field, the mask of its
        # slot fields, and the multiplier that sums them into the top one.
        self.blocks = tuple(
            (d * width, lo * width, (1 << (count * width)) - 1,
             sum(1 << (k * width) for k in range(count)), (count - 1) * width)
            for d, lo, count in runs)

    def pack(self, mono) -> int:
        return sum(map(mul, mono, self.mults))

    def unpack(self, packed: int) -> tuple:
        value = (1 << self.bits) - 1
        return tuple((packed >> s) & value for s in self.shifts)

    def degree(self, packed: int) -> int:
        """Total degree, pi included; the key of a monomial has the same."""
        value = (1 << self.bits) - 1
        return sum((packed >> b[0]) & value for b in self.blocks)

    def lcm(self, a: int, b: int) -> int:
        """Field-wise max of the slots, with each block's degree summed again."""
        bits = self.bits
        ge = ((a | self.guard) - b) & self.guard
        ge -= ge >> bits
        out = (b ^ ((a ^ b) & ge)) & self.slot_mask
        wide = (2 << bits) - 1
        for d, lo, mask, ones, top in self.blocks:
            deg = ((((out >> lo) & mask) * ones) >> top) & wide
            if deg >> bits:
                raise _Overflow
            out |= deg << d
        return out

    def keyed(self, f: Poly) -> dict:
        """The terms of f keyed by the order key of their monomials."""
        flip, pack = self.flip, self.pack
        return {pack(m) ^ flip: c for m, c in f.terms.items()}

    def element(self, terms: dict) -> tuple:
        """(lead, lead coefficient, tail) of keyed terms, in packed monomials;
        the form `_divide` takes its divisors in."""
        flip = self.flip
        top = max(terms)
        return top ^ flip, terms[top], [(k ^ flip, c) for k, c in terms.items() if k != top]

    def poly(self, ring: PolyRing, terms: dict) -> Poly:
        """The `Poly` of keyed terms."""
        flip, unpack = self.flip, self.unpack
        return Poly(ring, {unpack(k ^ flip): c for k, c in terms.items()})


# Layouts are immutable and a run uses few ring shapes, so each is built once.
_packing = lru_cache(maxsize=128)(_Packing)


def _field_bits(polys) -> int:
    """The narrowest field width, at least 7 bits, that holds every total
    degree of the given polynomials, in the steps that widening takes: each
    doubles a field, guard bit included."""
    top = max((max(map(sum, f.terms), default=0) for f in polys), default=0)
    bits = 7
    while top >> bits:
        bits = 2 * bits + 1
    return bits


def _subtract(pk: _Packing, work: dict, q: int, qc, tail):
    """work -= qc * x^q * tail, on keyed terms, with qc None for 1; the one
    place the kernel multiplies monomials, so where a product can overflow."""
    guard, flip = pk.guard, pk.flip
    for p, c in tail:
        t = q + p
        if t & guard:
            raise _Overflow
        t ^= flip
        if qc is not None:
            c *= qc
        val = work.get(t)
        if val is None:
            work[t] = -c
        elif val == c:
            del work[t]
        else:
            work[t] = val - c


def _divide(pk: _Packing, work: dict, divisors, quots=None) -> dict:
    """Divide keyed terms by (lead, lead coefficient, tail) divisors; the
    remainder comes back keyed, and `quots` collects keyed quotients.

    Divisors are scanned in list order, the first whose leading term divides
    wins, so the result is deterministic for a fixed list.
    """
    guard, flip = pk.guard, pk.flip
    rem = {}
    while work:
        k = max(work)
        c = work.pop(k)
        m = k ^ flip
        for n, (lead, lc, tail) in enumerate(divisors):
            q = m - lead
            if q & guard:
                continue
            qc = c if lc == 1 else quotient(c, lc)
            _subtract(pk, work, q, qc, tail)
            if quots is not None:
                quots[n][q ^ flip] = qc
            break
        else:
            rem[k] = c
    return rem


class _Divisors:
    """A fixed list of divisors, packed once per field width on first use.

    `bits` is the narrowest width that holds them; a division by them runs
    at that width or at the dividend's, whichever is wider."""

    __slots__ = ("polys", "bits", "_packed")

    def __init__(self, polys):
        self.polys = tuple(polys)
        self.bits = _field_bits(self.polys)
        self._packed = {}

    def packed(self, pk: _Packing) -> list:
        """The divisors as (lead, lead coefficient, tail) at `pk`'s width."""
        out = self._packed.get(pk.bits)
        if out is None:
            out = self._packed[pk.bits] = [pk.element(pk.keyed(g)) for g in self.polys]
        return out


def _reduce_full(f: Poly, divisors, track: bool = False):
    """Full multivariate division by `_Divisors` or a list of `Poly`s;
    returns (remainder, quotients or None).

    Divisors are scanned in list order, the first whose leading term divides
    wins, so the result is deterministic for a fixed basis list.
    """
    if not isinstance(divisors, _Divisors):
        divisors = _Divisors(divisors)
    ring = f.ring
    bits = max(_field_bits([f]), divisors.bits)
    while True:
        pk = _packing(ring.order, ring.nvars, bits)
        quots = [{} for _ in divisors.polys] if track else None
        try:
            rem = _divide(pk, pk.keyed(f), divisors.packed(pk), quots)
        except _Overflow:
            bits = 2 * bits + 1
            continue
        out = pk.poly(ring, rem)
        return out, ([pk.poly(ring, q) for q in quots] if track else None)


def _buchberger(gens, ring: PolyRing, track: bool, blocks=(), pi_unit: bool = False):
    """Core loop; returns (basis, representations w.r.t. gens or None).

    `blocks` gives the sizes of consecutive runs at the start of `gens` that
    are each a Groebner basis already, with no zero element: the pairs
    inside a run have standard representations, so they start out done and
    are never reduced.  `pi_unit` says that pi is a unit modulo the ideal
    of `gens`, as in a saturation at pi, so an element h/pi^k lies in the
    ideal with h: each reduced S-pair is divided by its pi power and
    reduced again before it joins the basis or meets the degree budget.
    The ideal, hence the reduced basis, is the same; it needs `track` off.
    A walk whose exponents outgrow their fields starts again with wider
    ones; the width decides nothing, so the walk is the same.
    """
    bits = _field_bits(gens)
    while True:
        try:
            return _walk(gens, ring, track, blocks, pi_unit,
                         _packing(ring.order, ring.nvars, bits))
        except _Overflow:
            bits = 2 * bits + 1


def _walk(gens, ring: PolyRing, track: bool, blocks, pi_unit: bool, pk: _Packing):
    """`_buchberger` at one field width; raises `_Overflow` if it is too narrow.

    A basis element is (lead, 1, tail) in packed monomials, and `negated`
    keeps each tail with its signs flipped, for the S-pairs."""
    limits = ACTIVE.get()
    guard, flip = pk.guard, pk.flip
    basis = []
    negated = []
    leads = []
    degrees = []
    reps = []
    sugars = []

    def insert(terms: dict, rep, sugar: int):
        lead, lc, tail = pk.element(terms)
        if lc != 1:
            tail = [(p, quotient(c, lc)) for p, c in tail]
            if track:
                rep = [r.scale(quotient(1, lc)) for r in rep]
        basis.append((lead, 1, tail))
        negated.append([(p, -c) for p, c in tail])
        leads.append(lead)
        degrees.append(pk.degree(lead))
        reps.append(rep)
        sugars.append(sugar)

    unit = [ring.zero() for _ in gens] if track else None
    for pos, g in enumerate(gens):
        if g.is_zero():
            continue
        rep = None
        if track:
            rep = list(unit)
            rep[pos] = ring.one()
        terms = pk.keyed(g)
        insert(terms, rep, max(map(pk.degree, terms)))

    # Pending pairs as a heap of (sugar, order key of lcm, i, j, lcm).  Each
    # entry is unique by (i, j) and leaves only when selected, so popping
    # gives the same sequence as taking the minimum of the pair set each time.
    pairs = []
    done = set()
    start = 0
    for size in blocks:
        done.update((i, j) for j in range(start, start + size) for i in range(start, j))
        start += size

    def push_pairs(j):
        lj, dj, sj = leads[j], degrees[j], sugars[j]
        for i in range(j):
            if (i, j) in done:
                continue
            lcm = pk.lcm(leads[i], lj)
            d = pk.degree(lcm)
            sugar = max(sugars[i] + d - degrees[i], sj + d - dj)
            heapq.heappush(pairs, (sugar, lcm ^ flip, i, j, lcm))

    for j in range(len(basis)):
        push_pairs(j)

    reduced_count = 0
    while pairs:
        sugar, _, i, j, lcm = heapq.heappop(pairs)
        done.add((i, j))
        li, lj = leads[i], leads[j]
        if lcm == li + lj:
            continue
        skip = False
        for k, lk in enumerate(leads):
            if (lcm - lk) & guard or k == i or k == j:
                continue
            if (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done:
                skip = True
                break
        if skip:
            continue
        reduced_count += 1
        if reduced_count > limits.max_pairs:
            raise ResourceLimit(
                f"pair budget {limits.max_pairs} exhausted", pairs=reduced_count
            )
        # Basis elements are monic, so their leads cancel and the S-pair is
        # ti * tail_i - tj * tail_j, with no coefficients to divide by.
        ti, tj = lcm - li, lcm - lj
        s = {}
        _subtract(pk, s, ti, None, negated[i])
        _subtract(pk, s, tj, None, basis[j][2])
        quots = [{} for _ in basis] if track else None
        h = _divide(pk, s, basis, quots)
        if pi_unit:
            h = _strip_pi(pk, h, basis)
        if not h:
            continue
        degree = max(map(pk.degree, h))
        if degree > limits.max_degree:
            raise ResourceLimit(
                f"degree budget {limits.max_degree} exceeded by a basis element",
                pairs=reduced_count,
                degree=degree,
            )
        hrep = None
        if track:
            mi = ring.monomial(pk.unpack(ti))
            mj = ring.monomial(pk.unpack(tj))
            qpolys = [pk.poly(ring, q) if q else None for q in quots]
            hrep = [
                mi * a - mj * b
                - sum((q * reps[t][col] for t, q in enumerate(qpolys) if q), ring.zero())
                for col, (a, b) in enumerate(zip(reps[i], reps[j]))
            ]
        insert(h, hrep, max(sugar, degree))
        push_pairs(len(basis) - 1)

    return _interreduce(pk, basis, reps, ring, track)


def _strip_pi(pk: _Packing, h: dict, basis) -> dict:
    """Keyed terms h, divided by the largest power of pi dividing them and
    reduced by `basis` again, until no power of pi divides them."""
    flip, shift, step = pk.flip, pk.shifts[-1], pk.mults[-1]
    value = (1 << pk.bits) - 1
    while h:
        k = min(((p ^ flip) >> shift) & value for p in h)
        if not k:
            break
        h = _divide(pk, {((p ^ flip) - k * step) ^ flip: c for p, c in h.items()}, basis)
    return h


def _interreduce(pk: _Packing, basis, reps, ring: PolyRing, track: bool):
    """The reduced basis as `Poly`s, in increasing order of leading term.

    Leading terms of a minimal basis divide no other, so reducing an
    element changes only its tail: it stays monic and keeps its place.
    """
    guard, flip = pk.guard, pk.flip
    idx = sorted(range(len(basis)), key=lambda i: basis[i][0] ^ flip)
    kept = []
    for i in idx:
        lead = basis[i][0]
        if any(not (lead - basis[k][0]) & guard for k in kept):
            continue
        kept.append(i)
    out = [basis[i] for i in kept]
    outreps = [reps[i] for i in kept] if track else None
    for pos in range(len(out)):
        lead, _, tail = out[pos]
        others = out[:pos] + out[pos + 1 :]
        quots = [{} for _ in others] if track else None
        nf = _divide(pk, {p ^ flip: c for p, c in tail}, others, quots)
        if track:
            otherreps = outreps[:pos] + outreps[pos + 1 :]
            rep = outreps[pos]
            for t, q in enumerate(quots):
                if q:
                    q = pk.poly(ring, q)
                    rep = [r - q * orr for r, orr in zip(rep, otherreps[t])]
            outreps[pos] = rep
        out[pos] = (lead, 1, [(k ^ flip, c) for k, c in nf.items()])
    unpack = pk.unpack
    final = []
    for lead, _, tail in out:
        terms = {unpack(lead): 1}
        for p, c in tail:
            terms[unpack(p)] = c
        final.append(Poly(ring, terms))
    return tuple(final), outreps


MembershipCertificate = namedtuple("MembershipCertificate", "member cofactors remainder")
MembershipCertificate.__doc__ = ("Outcome of an ideal membership test with exact "
                                 "cofactors on success.")


class Ideal:
    """Finitely generated ideal with a cached reduced basis.

    The basis is built on first use.  Until then a normal form first divides
    by the elements the ideal already holds (`held_remainder`: its seed
    blocks, or else its nonzero generators): a zero remainder proves
    membership, so the answer is zero without any basis.  A certified
    pi-division modulo a seeded ideal takes the same remainder and, when
    it is divisible by the power, its quotient, with no basis; otherwise
    it reduces that remainder by the basis, not f again.  Both divisor
    lists are kept packed (`_held_divisors`, `_basis_divisors`), so
    repeated normal forms pack each once per field width.
    """

    __slots__ = ("ring", "generators", "_basis", "_tracked", "_seed", "_saturation",
                 "_held_divisors", "_basis_divisors")

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
        self._held_divisors = None
        self._basis_divisors = None

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

    def basis(self):
        if self._basis is None:
            held, blocks = self._held()
            self._basis, _ = _buchberger(held, self.ring, False, blocks)
        return self._basis

    def tracked_basis(self):
        if self._tracked is None:
            self._tracked = _buchberger(list(self.generators), self.ring, True)
        return self._tracked

    def held_remainder(self, f: Poly) -> Poly:
        """f, in the ideal's ring, reduced by the elements held before the
        basis is built; f minus the result lies in the ideal."""
        if f.ring != self.ring:
            f = f.in_ring(self.ring)
        if self._held_divisors is None:
            self._held_divisors = _Divisors(self._held()[0])
        rem, _ = _reduce_full(f, self._held_divisors)
        return rem

    def normal_form(self, f: Poly) -> Poly:
        if self._basis is None:
            f = self.held_remainder(f)
            if f.is_zero():
                return f
        return self._basis_remainder(f)

    def _basis_remainder(self, f: Poly) -> Poly:
        """f reduced by the reduced basis, built if it is not yet."""
        if f.ring != self.ring:
            f = f.in_ring(self.ring)
        basis = self.basis()
        if self._basis_divisors is None:
            self._basis_divisors = _Divisors(basis)
        rem, _ = _reduce_full(f, self._basis_divisors)
        return rem

    def contains(self, f: Poly) -> bool:
        return self.normal_form(f).is_zero()

    def is_zero(self) -> bool:
        return not self.basis()

    def same_ideal(self, other: "Ideal") -> bool:
        if self.ring.variables != other.ring.variables:
            return False
        return all(self.contains(g) for g in other.generators) and all(
            other.contains(g) for g in self.generators
        )

    def plus(self, extra) -> "Ideal":
        return Ideal(self.ring, list(self.generators) + list(extra))

    def in_ring(self, ring: PolyRing, rename=None) -> "Ideal":
        return Ideal(ring, [g.in_ring(ring, rename) for g in self.generators])

    def __repr__(self):
        inner = ", ".join(format_poly(g) for g in self.generators)
        return f"({inner})"


def membership(f: Poly, ideal: Ideal) -> MembershipCertificate:
    """Decide f in ideal; on success return cofactors over the generators.

    The cofactor identity sum(cofactor_i * generator_i) == f is re-checked by
    direct arithmetic before returning, so a returned certificate is a proof.
    """
    if f.ring != ideal.ring:
        f = f.in_ring(ideal.ring)
    basis, reps = ideal.tracked_basis()
    rem, quots = _reduce_full(f, basis, True)
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


def _eliminate(gens, big: PolyRing, front: int, small: PolyRing,
               pi_unit: bool = False) -> Ideal:
    """The ideal of `gens` in `big`, whose order eliminates its first `front`
    variables, intersected with the subring free of them and moved into
    `small`.  By the Elimination Theorem, the basis elements free of those
    variables generate the intersection; they are the result's generators,
    in increasing order of leading term.  `pi_unit` is passed to the walk."""
    basis, _ = _buchberger(gens, big, False, pi_unit=pi_unit)
    return Ideal(small, [g.in_ring(small) for g in basis
                         if all(not any(m[:front]) for m in g.terms)])


def _pi_content_free(held) -> list:
    """The reduced lex basis of (g) : pi^infinity for the nonzero generators
    `held`, at most one g, with no walk: pi is prime in Q[pi][x], so it is
    g / pi^v, v = `g.pi_valuation()`, made monic in lex.  When v > 0 the
    degree budget meets g / pi^v, the element a walk would add."""
    if not held:
        return []
    (g,) = held
    v = g.pi_valuation()
    if v:
        g = g.divide_pi(v)
        degree = max(map(sum, g.terms))
        limits = ACTIVE.get()
        if degree > limits.max_degree:
            raise ResourceLimit(
                f"degree budget {limits.max_degree} exceeded by a basis element",
                degree=degree)
    return [g.scale(quotient(1, g.terms[max(g.terms)]))]


def saturate(ideal: Ideal, f: Poly) -> Ideal:
    """Saturation (ideal : f^infinity) via a Rabinowitsch tag variable.

    The walk is in lex with the tag first, which eliminates the tag and is
    lex on the rest.  In a lex ring the tag-free part of its reduced basis
    is therefore the result's reduced basis, and the result keeps it.  When
    f is pi, pi is a unit modulo the tag ideal, so the walk divides the pi
    powers out of what it adds; and an ideal with at most one nonzero
    generator saturates at pi in closed form (`_pi_content_free`), with
    the same result and no walk."""
    ring = ideal.ring
    if f.ring != ring:
        f = f.in_ring(ring)
    held = [g for g in ideal.generators if not g.is_zero()]
    if len(held) <= 1 and f == ring.pi():
        gens = _pi_content_free(held)
    else:
        (tag,) = _fresh_names(_TAG, 1, ring.variables)
        big = ring.prepend((tag,), LEX)
        gens = [g.in_ring(big) for g in held]
        gens.append(big.one() - big.var(tag) * f.in_ring(big))
        gens = _eliminate(gens, big, 1, ring, pi_unit=f == ring.pi()).generators
    if ring.order == LEX:
        return Ideal.with_basis(ring, gens, gens)
    return Ideal(ring, gens)


def saturate_pi(ideal: Ideal) -> Ideal:
    """(ideal : pi^infinity), computed once per ideal object and kept on it;
    a saturation is its own saturation."""
    if ideal._saturation is None:
        sat = saturate(ideal, ideal.ring.pi())
        sat._saturation = sat
        ideal._saturation = sat
    return ideal._saturation


class _Graph:
    """The graph ideal of a map into R/J, walked once.

    The map sends the variables of `source` to `images` in R = J's ring.
    The walk takes J's generators and then v - image(v) for each source
    variable v, in R's variables renamed apart and then the source's, in
    the order that eliminates R's.  A contraction along the map and a
    membership test in the subalgebra the images generate walk this one
    ideal, whatever the variables are named, so one `_Graph` serves a
    contraction and any number of memberships.  By the Elimination
    Theorem the basis elements free of R's variables generate the
    preimage of J (`contraction`).  f is a polynomial in the images modulo
    J exactly when its normal form is free of R's variables, and that
    remainder, read in the source variables, is a witness (`member`).
    """

    __slots__ = ("source", "ring", "rename", "basis", "_divisors")

    def __init__(self, source: PolyRing, images, ideal: Ideal):
        target = ideal.ring
        suffix = "@"
        while any(suffix in v for v in target.variables + source.variables):
            suffix += "@"
        self.source = source
        self.rename = rename = {v: v + suffix for v in target.variables}
        self.ring = big = PolyRing(tuple(rename.values()) + source.variables,
                                   elim_order(target.nvars))
        gens = [g.in_ring(big, rename) for g in ideal.generators]
        for v, image in zip(source.variables, images):
            gens.append(big.var(v) - image.in_ring(big, rename))
        self.basis, _ = _buchberger(gens, big, False)
        self._divisors = _Divisors(self.basis)

    @classmethod
    def of(cls, phi: Substitution, ideal_target: Ideal) -> "_Graph":
        """The graph of a total substitution into the ring of the ideal."""
        if ideal_target.ring != phi.target:
            raise UnknownVariable("contract: ideal does not live in the substitution target")
        for v in phi.source.variables:
            if v not in phi.images:
                raise UnknownVariable(f"contract needs a total substitution; {v!r} has no image")
        return cls(phi.source, [phi.images[v] for v in phi.source.variables], ideal_target)

    @classmethod
    def tagged(cls, gens, relations: Ideal) -> "_Graph":
        """The graph of the map sending fresh tags, one per generator, to
        `gens`; its `member` decides the subalgebra they generate."""
        tags = _fresh_names("_z", len(gens), relations.ring.variables)
        return cls(PolyRing(tuple(tags)), gens, relations)

    def _free(self, g: Poly) -> bool:
        front = len(self.rename)
        return all(not any(m[:front]) for m in g.terms)

    def contraction(self) -> Ideal:
        """The preimage of the ideal, generated by the basis elements free
        of the target variables, in increasing order of leading term."""
        return Ideal(self.source, [g.in_ring(self.source) for g in self.basis
                                   if self._free(g)])

    def member(self, f: Poly):
        """f, an element of the target ring, as a polynomial in the images
        modulo the ideal, or None when it is not one."""
        rem, _ = _reduce_full(f.in_ring(self.ring, self.rename), self._divisors)
        return rem.in_ring(self.source) if self._free(rem) else None


def contract(phi: Substitution, ideal_target: Ideal) -> Ideal:
    """Preimage of an ideal of the target presentation under a substitution.

    The target ideal should already include the target ring's relations when a
    presented quotient is intended.  One walk of the graph ideal (`_Graph`);
    a caller that also asks which target elements lie in the subalgebra
    the images generate asks the same `_Graph`.
    """
    return _Graph.of(phi, ideal_target).contraction()


def certified_pi_division(f: Poly, power: int, modulus: Ideal) -> Poly:
    """Find d with pi^power * d == f modulo the ideal, or raise.

    A seeded modulus whose basis is not built yet (the doubled ideal of
    `hopf.tensor_ideal`, seeded with its two copies) first reduces f by
    the copies alone (`Ideal.held_remainder`).  When that remainder is
    termwise divisible by pi^power, its quotient is the answer and no
    basis is built: f minus the remainder lies in the ideal, so
    pi^power * d == f holds exactly.  Such a d is reduced modulo the
    copies, not modulo the whole basis, and its normal form is the full
    route's answer: the ideal J of a tensor power of a flat algebra is
    pi-saturated, so all exact quotients agree modulo J; and a standard
    monomial divided by pi stays standard, so NF_J(f) / pi^power, when
    termwise, is NF_J(d).

    Otherwise the termwise route runs on the normal form (reducing the
    held remainder by the basis, not f again), and last the pi^power
    cofactor is extracted from a membership certificate.
    """
    if modulus._seed is not None and modulus._basis is None:
        rem = modulus.held_remainder(f)
        if rem.pi_valuation() >= power:
            return rem.divide_pi(power)
        nf = modulus._basis_remainder(rem)
    else:
        nf = modulus.normal_form(f)
    if nf.pi_valuation() >= power:
        return nf.divide_pi(power)
    ring = modulus.ring
    widened = Ideal(ring, [ring.pi(power)] + list(modulus.basis()))
    cert = membership(nf, widened)
    if not cert.member:
        raise DivisionObstruction(
            f"pi^{power} does not divide modulo the relations", witness=format_poly(nf)
        )
    return modulus.normal_form(cert.cofactors[0])
