"""Comodule matrices and the faithful representations of blown-up groups.

A representation is stored by its matrix of coordinate functions: the
comultiplication of an entry must be the corresponding entry of the
matrix product of the primed and double-primed copies, and the counit
of the matrix must be the identity.
"""

from __future__ import annotations

from .blowup import BlowupResult, universal_lift
from .errors import (DivisionObstruction, NotASubgroup, NotFiniteDimensional,
                     ShapeMismatch)
from .groebner import Ideal, certified_pi_division, membership, subalgebra_member
from .hopf import (PRIME1, PRIME2, PRIME3, GroupMorphism, HopfPresentation,
                   comul_squared, copy_into, quotient_presentation, tensor_ring)
from .linalg import independent_rows, solve
from .matrix import mat_block, mat_det, mat_id, mat_in_ring, mat_mul, mat_zero
from .report import Report
from .ring import Poly, Substitution, format_poly


class RepMatrix:
    """A comodule matrix over a group; without a determinant witness, one
    is searched for within the active budget (`config.budget`)."""

    __slots__ = ("group", "entries", "det_inverse_witness")

    def __init__(self, group: HopfPresentation, entries: list, det_inverse_witness: Poly = None):
        ring = group.ring
        n = len(entries)
        coerced = []
        for row in entries:
            if len(row) != n:
                raise ShapeMismatch("representation matrix must be square")
            coerced.append([e.in_ring(ring) if isinstance(e, Poly) else ring.scalar(e)
                            for e in row])
        self.group = group
        self.entries = coerced
        if det_inverse_witness is None:
            self.det_inverse_witness = self._find_witness()
        elif isinstance(det_inverse_witness, Poly):
            self.det_inverse_witness = det_inverse_witness.in_ring(ring)
        else:
            self.det_inverse_witness = ring.scalar(det_inverse_witness)

    @property
    def size(self) -> int:
        return len(self.entries)

    def det(self) -> Poly:
        if not self.entries:
            return self.group.ring.one()
        return mat_det(self.entries)

    def _find_witness(self) -> Poly:
        ring = self.group.ring
        if not self.entries:
            return ring.one()
        d = self.det()
        rels = self.group.relations
        cert = membership(ring.one(), rels.plus([d]))
        if not cert.member:
            raise DivisionObstruction(
                "determinant is not invertible modulo the relations",
                witness=format_poly(d))
        return rels.normal_form(cert.cofactors[len(rels.generators)])


def validate_rep(m: RepMatrix) -> Report:
    """Check the comodule axioms and the determinant witness exactly."""
    h = m.group
    rep = Report(f"comodule axioms for a rank-{m.size} matrix over {h.name}")
    if m.size == 0:
        rep.add("empty matrix", h.name, True)
        return rep
    ring2 = h.doubled_ring()
    rels2 = h.doubled_ideal()
    left = mat_in_ring(m.entries, ring2, {v: v + PRIME1 for v in h.ring.variables})
    right = mat_in_ring(m.entries, ring2, {v: v + PRIME2 for v in h.ring.variables})
    prod = mat_mul(left, right)
    for i in range(m.size):
        for j in range(m.size):
            rep.vanishes("comultiplication matches matrix product", f"entry {i + 1},{j + 1}",
                         rels2.normal_form(h.comul(m.entries[i][j]) - prod[i][j]))
            rep.vanishes("counit is the identity matrix", f"entry {i + 1},{j + 1}",
                         h.eps_of(m.entries[i][j]) - (1 if i == j else 0))
    rep.vanishes("determinant witness inverts the determinant", h.name,
                 h.relations.normal_form(m.det() * m.det_inverse_witness - 1))
    return rep


class FaithfulResult:
    __slots__ = ("verdict", "undecided", "report")

    def __init__(self, verdict: str, undecided: list, report: Report):
        self.verdict = verdict
        self.undecided = undecided
        self.report = report


def verify_faithful(m: RepMatrix) -> FaithfulResult:
    """Decide whether the entries generate the coordinate ring.

    Three-valued: "faithful" when every presentation variable is reached,
    "not-at-bound" when some membership is undecided at the configured
    bounds, "fail" when the matrix is not a comodule at all.  Membership
    search is a semi-decision, so "not-at-bound" is not a refutation.
    """
    base = validate_rep(m)
    if not base.ok:
        return FaithfulResult("fail", [], base)
    h = m.group
    gens = [e for row in m.entries for e in row] + [m.det_inverse_witness]
    rep = Report(f"generation of {h.name} by matrix entries")
    undecided = []
    for v in h.ring.variables:
        expr = subalgebra_member(h.ring.var(v), gens, h.relations)
        rep.add("variable generated by entries", v, expr is not None)
        if expr is None:
            undecided.append(v)
    verdict = "faithful" if not undecided else "not-at-bound"
    return FaithfulResult(verdict, undecided, rep)


def stabilizer_ideal(v: RepMatrix, column: int = 1) -> Ideal:
    """Ideal of the mod-pi stabilizer of a coordinate line: pi and the
    off-diagonal entries of the chosen column."""
    if not 1 <= column <= v.size:
        raise ValueError(f"no column {column} in a rank-{v.size} matrix")
    ring = v.group.ring
    gens = [ring.pi()]
    for i in range(v.size):
        if i != column - 1:
            gens.append(v.entries[i][column - 1])
    return Ideal(ring, gens)


def _pull_entries(v: RepMatrix, b: BlowupResult):
    pull = b.projection.pullback
    return [[pull(e) for e in row] for row in v.entries]


def identity_blowup_rep(v: RepMatrix, b: BlowupResult) -> RepMatrix:
    """Double a representation across the blowup of the unit section.

    The output acts on the fibre product of the lattice with the trivial
    lattice of the same rank: block a on the original part, the certified
    divisions (a - 1)/pi in the upper right, identity in the lower right.
    """
    base = b.projection.target
    if v.group.ring != base.ring:
        raise ShapeMismatch("representation does not live over the blown-down group")
    rels = list(base.relations.generators)
    unit = Ideal(base.ring, [base.ring.pi()] + base.aug_gens() + rels)
    full = Ideal(base.ring, list(b.centre.generators) + rels)
    if not full.same_ideal(unit):
        raise NotASubgroup("blowup centre is not the unit section of the fibre")
    blown = b.blown
    a = _pull_entries(v, b)
    r = v.size
    prime = [[certified_pi_division(a[i][j] - (1 if i == j else 0), b.level,
                                    blown.relations)
              for j in range(r)] for i in range(r)]
    top = mat_block([[a, prime]])
    bottom = mat_block([[mat_zero(blown.ring, r, r), mat_id(blown.ring, r)]])
    entries = top + bottom
    witness = b.projection.pullback(v.det_inverse_witness)
    return RepMatrix(blown, entries, witness)


def scaling_conjugation_report(v: RepMatrix, b: BlowupResult, doubled: RepMatrix) -> Report:
    """Certify that the doubled matrix is the conjugate of v + trivial.

    The scaling matrix beta has pi on the diagonal and the identity in the
    upper-right block; beta * doubled = (v + trivial) * beta holds exactly
    modulo the blown relations, with no pi inverted.
    """
    blown = doubled.group
    ring = blown.ring
    r = v.size
    a = _pull_entries(v, b)
    pi_id = [[ring.pi(b.level) if i == j else ring.zero() for j in range(r)]
             for i in range(r)]
    beta = mat_block([[pi_id, mat_id(ring, r)],
                      [mat_zero(ring, r, r), pi_id]])
    plain = mat_block([[a, mat_zero(ring, r, r)],
                       [mat_zero(ring, r, r), mat_id(ring, r)]])
    lhs = mat_mul(beta, doubled.entries)
    rhs = mat_mul(plain, beta)
    rep = Report("conjugation by the scaling matrix")
    for i in range(2 * r):
        for j in range(2 * r):
            rep.vanishes("scaled conjugation identity", f"entry {i + 1},{j + 1}",
                         blown.relations.normal_form(lhs[i][j] - rhs[i][j]))
    return rep


def _permuted(v: RepMatrix, column: int):
    idx = column - 1
    order = [idx] + [i for i in range(v.size) if i != idx]
    return [[v.entries[order[i]][order[j]] for j in range(v.size)] for i in range(v.size)]


def _check_line_centre(v: RepMatrix, b: BlowupResult, column: int):
    base = b.projection.target
    if v.group.ring != base.ring:
        raise ShapeMismatch("representation does not live over the blown-down group")
    stab = stabilizer_ideal(v, column)
    centre_full = Ideal(base.ring, list(b.centre.generators)
                        + list(base.relations.generators))
    for g in stab.generators:
        if not centre_full.contains(g):
            raise NotASubgroup(
                "blowup centre does not stabilize the chosen line: "
                + format_poly(g) + " is not in the centre")


def line_blowup_rep(v: RepMatrix, b: BlowupResult, e: RepMatrix = None,
                    column: int = 1) -> RepMatrix:
    """Glue a representation to a covering one across a line-stabilizer blowup.

    The output acts on the fibre product over the line: the original block
    is rescaled through the fresh variables, and the covering matrix sits
    in the lower right.  The covering matrix must restrict to the line on
    its first basis vector: its first row is congruent to that of the
    original matrix modulo pi.
    """
    _check_line_centre(v, b, column)
    blown = b.blown
    ring = blown.ring
    if e is None:
        e = RepMatrix(blown, [[ring.one()]], ring.one())
    if e.group.ring != ring:
        raise ShapeMismatch("covering representation does not live over the blown group")
    a = [[b.projection.pullback(x) for x in row] for row in _permuted(v, column)]
    r, s = v.size, e.size
    a_prime = [certified_pi_division(a[i][0], 1, blown.relations)
               for i in range(1, r)]
    c = []
    try:
        c.append(certified_pi_division(e.entries[0][0] - a[0][0], 1,
                                       blown.relations))
        for j in range(1, s):
            c.append(certified_pi_division(e.entries[0][j], 1, blown.relations))
    except DivisionObstruction as exc:
        raise ShapeMismatch(
            "covering matrix does not restrict to the line on its first "
            "basis vector: " + exc.witness) from exc
    top_right = [[-c[j] for j in range(s)]]
    for i in range(1, r):
        top_right.append([a_prime[i - 1]] + [ring.zero()] * (s - 1))
    entries = mat_block([[a, top_right],
                         [mat_zero(ring, s, r), e.entries]])
    witness = b.projection.pullback(v.det_inverse_witness) * e.det_inverse_witness
    return RepMatrix(blown, entries, witness)


def rescaled_rep(v: RepMatrix, b: BlowupResult, column: int = 1):
    """Rescale a representation through a line-stabilizer blowup.

    Returns the rescaled matrix (first row multiplied by pi off the
    diagonal, first column divided by pi below it) together with the
    direct sum of the original and the rescaled matrix, both over the
    blown group.
    """
    _check_line_centre(v, b, column)
    blown = b.blown
    ring = blown.ring
    a = [[b.projection.pullback(x) for x in row] for row in _permuted(v, column)]
    r = v.size
    out = [row[:] for row in a]
    for j in range(1, r):
        out[0][j] = a[0][j].mul_pi()
    for i in range(1, r):
        out[i][0] = certified_pi_division(a[i][0], 1, blown.relations)
    witness = b.projection.pullback(v.det_inverse_witness)
    rescaled = RepMatrix(blown, out, witness)
    original = RepMatrix(blown, a, witness)
    return rescaled, direct_sum(original, rescaled)


def direct_sum(v: RepMatrix, w: RepMatrix) -> RepMatrix:
    if v.group.ring != w.group.ring:
        raise ShapeMismatch("direct sum needs representations of the same group")
    ring = v.group.ring
    entries = mat_block([[v.entries, mat_zero(ring, v.size, w.size)],
                         [mat_zero(ring, w.size, v.size), w.entries]])
    return RepMatrix(v.group, entries, v.det_inverse_witness * w.det_inverse_witness)


def sum_faithful(rho: RepMatrix, sigma: RepMatrix, b: BlowupResult,
                 quotient: GroupMorphism, a_blowup: BlowupResult) -> RepMatrix:
    """Representation of the blowup at a flat normal subgroup's fibre.

    The subgroup is cut out by the augmentation ideal of the quotient
    group pulled back along the quotient morphism; sigma lives over the
    blowup of the quotient at its unit section and is transported along
    the universal lift, then summed with the pullback of rho.
    """
    g = b.projection.target
    if quotient.source.ring != g.ring:
        raise ShapeMismatch("quotient morphism does not start at the blown-down group")
    if sigma.group.ring != a_blowup.blown.ring:
        raise ShapeMismatch("second representation does not live over the blown quotient")
    aq = quotient.target
    expected = Ideal(g.ring, [g.ring.pi()]
                     + [quotient.pullback(x) for x in aq.aug_gens()])
    if not b.centre.same_ideal(expected):
        raise NotASubgroup(
            "blowup centre is not the fibre of the quotient's kernel")
    composite = GroupMorphism(f"{b.blown.name}->{aq.name}", b.blown, aq,
                              quotient.pullback.then(b.projection.pullback))
    lifted = universal_lift(composite, a_blowup)
    moved = [[lifted.pullback(x) for x in row] for row in sigma.entries]
    rho_up = RepMatrix(b.blown, _pull_entries(rho, b),
                       b.projection.pullback(rho.det_inverse_witness))
    sig_up = RepMatrix(b.blown, moved, lifted.pullback(sigma.det_inverse_witness))
    return direct_sum(rho_up, sig_up)


class ConormalData:
    __slots__ = ("group", "basis", "matrix")

    def __init__(self, group: HopfPresentation, basis: list, matrix: list):
        self.group = group
        self.basis = basis
        self.matrix = matrix

    def rep(self) -> RepMatrix:
        return RepMatrix(self.group, self.matrix)


def conormal_rep(gk: HopfPresentation, subgroup: Ideal) -> ConormalData:
    """Conjugation action of a fibre subgroup on its conormal space.

    The space is the subgroup ideal modulo its product with the
    augmentation ideal, over the residue field; the coaction sends a
    class f to the middle factor of the double comultiplication with the
    antipode of the outer factors multiplied into the subgroup's
    coordinate ring.
    """
    ring = gk.ring
    gens = list(subgroup.in_ring(ring).generators)
    for g in gens:
        if gk.eps_of(g).set_pi_zero() != 0:
            raise NotASubgroup("ideal is not contained in the augmentation ideal mod pi")
    pi = ring.pi()
    aug = gk.aug_gens()
    fibre_rels = list(gk.relations.generators) + [pi]
    small = Ideal(ring, fibre_rels + [a * g for a in aug for g in gens])
    cls = [small.normal_form(g) for g in gens]

    support = sorted({m for f in cls for m in f.terms},
                     key=ring.order.key, reverse=True)
    col = {m: i for i, m in enumerate(support)}
    rows = [{col[m]: cf for m, cf in f.terms.items()} for f in cls]
    keep = independent_rows(rows, len(support))
    basis = [cls[i] for i in keep]
    basis_rows = [rows[i] for i in keep]

    quot = quotient_presentation(gk, gens + [pi], gk.name + "/H")
    if not basis:
        return ConormalData(quot, [], [])

    big = tensor_ring(ring, ("", "~"))
    ring3 = gk.tripled_ring()
    images = {}
    for w in ring.variables:
        images[w + PRIME1] = copy_into(gk.antipode.images[w], big, "~")
        images[w + PRIME2] = big.var(w)
        images[w + PRIME3] = big.var(w + "~")
    twist = Substitution(ring3, big, images)

    mod_gens = [f.in_ring(big) for f in small.generators]
    mod_gens += [copy_into(f, big, "~") for f in fibre_rels + gens]
    modulus = Ideal(big, mod_gens)

    t = len(basis)
    out = [[ring.zero() for _ in range(t)] for _ in range(t)]
    nmain = ring.nvars
    matrix = [{} for _ in support]  # column k of the basis rows, as a row
    for i, row in enumerate(basis_rows):
        for k, cf in row.items():
            matrix[k][i] = cf
    for jcol, f in enumerate(basis):
        reduced = modulus.normal_form(twist(comul_squared(gk, f)))
        groups: dict = {}
        for m, cf in reduced.terms.items():
            main = m[:nmain] + (m[-1],)
            groups.setdefault(m[nmain:-1], {})[main] = cf
        for hmono, coeffs in sorted(groups.items()):
            part = small.normal_form(Poly(ring, dict(coeffs)))
            rhs = [0] * len(support)
            for m, cf in part.terms.items():
                if m not in col:
                    raise NotFiniteDimensional(
                        "coaction leaves the span of the subgroup generators")
                rhs[col[m]] = cf
            lam = solve(matrix, rhs, t)
            if lam is None:
                raise NotFiniteDimensional(
                    "coaction leaves the span of the subgroup generators")
            hpoly = Poly(ring, {hmono + (0,): 1})
            for i in range(t):
                if lam[i]:
                    out[i][jcol] = out[i][jcol] + hpoly.scale(lam[i])
    total = Ideal(ring, fibre_rels + gens)
    out = [[total.normal_form(x) for x in row] for row in out]
    return ConormalData(quot, basis, out)
