"""Stock presentations: tori, vector groups, linear groups, products."""

from __future__ import annotations

from .errors import UnknownVariable
from .groebner import Ideal
from .hopf import PRIME1, PRIME2, SCALARS, HopfPresentation, tensor_ring
from .matrix import mat_adjugate, mat_det, mat_mul
from .ring import PolyRing


def _build(name, variables, relations, comul_images, counit_values,
           antipode_images) -> HopfPresentation:
    ring = PolyRing(tuple(variables))
    ring2 = tensor_ring(ring, (PRIME1, PRIME2))
    return HopfPresentation.from_images(
        name, ring, Ideal(ring, [r(ring) for r in relations]),
        {v: comul_images[v](ring2) for v in ring.variables},
        {v: SCALARS.scalar(counit_values[v]) for v in ring.variables},
        {v: antipode_images[v](ring) for v in ring.variables})


def multiplicative_group(u: str = "u", v: str = "v", name: str = "Gm") -> HopfPresentation:
    """The torus: u invertible with inverse v."""
    return _build(
        name, (u, v),
        [lambda R: R.var(u) * R.var(v) - 1],
        {u: lambda R2: R2.var(u + PRIME1) * R2.var(u + PRIME2),
         v: lambda R2: R2.var(v + PRIME1) * R2.var(v + PRIME2)},
        {u: 1, v: 1},
        {u: lambda R: R.var(v), v: lambda R: R.var(u)})


def additive_group(x: str = "x", name: str = "Ga") -> HopfPresentation:
    return _build(
        name, (x,), [],
        {x: lambda R2: R2.var(x + PRIME1) + R2.var(x + PRIME2)},
        {x: 0},
        {x: lambda R: -R.var(x)})


def twisted_multiplicative(n: int) -> HopfPresentation:
    """Units congruent to 1 mod pi^n, in the coordinates u = 1 + pi^n x.

    The group law is x + y + pi^n x y; at n = 0 this is the torus in
    shifted coordinates, and the generic fibre is always the torus.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    x, y = "x", "y"
    return _build(
        f"Gm^({n})", (x, y),
        [lambda R: R.var(x) + R.var(y) + (R.var(x) * R.var(y)).mul_pi(n)],
        {x: lambda R2: R2.var(x + PRIME1) + R2.var(x + PRIME2)
            + (R2.var(x + PRIME1) * R2.var(x + PRIME2)).mul_pi(n),
         y: lambda R2: R2.var(y + PRIME1) + R2.var(y + PRIME2)
            + (R2.var(y + PRIME1) * R2.var(y + PRIME2)).mul_pi(n)},
        {x: 0, y: 0},
        {x: lambda R: R.var(y), y: lambda R: R.var(x)})


def roots_of_unity(k: int) -> HopfPresentation:
    """Kernel of the k-th power map on the torus."""
    if k < 1:
        raise ValueError("order must be positive")
    name = f"mu{k}"
    base = multiplicative_group(name=name)
    rels = base.relations.plus([base.ring.var("u") ** k - 1])
    return base.with_relations(name, rels)


def trivial_group() -> HopfPresentation:
    return _build("E", (), [], {}, {}, {})


def _entry(i: int, j: int) -> str:
    return f"a{i + 1}{j + 1}"


def _linear(r: int, det: str | None, name: str) -> HopfPresentation:
    """r x r matrices with determinant 1 (det None) or with the extra
    variable det inverting the determinant."""
    if r < 1:
        raise ValueError("size must be positive")
    cells = [(i, j) for i in range(r) for j in range(r)]
    names = [_entry(i, j) for i, j in cells] + ([det] if det is not None else [])
    ring = PolyRing(tuple(names))
    ring2 = tensor_ring(ring, (PRIME1, PRIME2))
    a = [[ring.var(_entry(i, j)) for j in range(r)] for i in range(r)]
    a1 = [[ring2.var(_entry(i, j) + PRIME1) for j in range(r)] for i in range(r)]
    a2 = [[ring2.var(_entry(i, j) + PRIME2) for j in range(r)] for i in range(r)]
    prod = mat_mul(a1, a2)
    adj = mat_adjugate(a)
    comul = {_entry(i, j): prod[i][j] for i, j in cells}
    counit = {_entry(i, j): SCALARS.scalar(1 if i == j else 0) for i, j in cells}
    if det is None:
        rels = [mat_det(a) - 1]
        anti = {_entry(i, j): adj[i][j] for i, j in cells}
    else:
        rels = [mat_det(a) * ring.var(det) - 1]
        comul[det] = ring2.var(det + PRIME1) * ring2.var(det + PRIME2)
        counit[det] = SCALARS.scalar(1)
        anti = {_entry(i, j): adj[i][j] * ring.var(det) for i, j in cells}
        anti[det] = mat_det(a)
    return HopfPresentation.from_images(name, ring, Ideal(ring, rels), comul, counit, anti)


def general_linear(r: int = 2) -> HopfPresentation:
    """Invertible r x r matrices; the extra variable d inverts the determinant."""
    return _linear(r, "d", f"GL{r}")


def special_linear(r: int = 2) -> HopfPresentation:
    return _linear(r, None, f"SL{r}")


def borel2() -> HopfPresentation:
    """Invertible upper triangular 2 x 2 matrices; e inverts the diagonal."""
    a11, a12, a22, det = "a11", "a12", "a22", "e"
    return _build(
        "B2", (a11, a12, a22, det),
        [lambda R: R.var(a11) * R.var(a22) * R.var(det) - 1],
        {a11: lambda R2: R2.var(a11 + PRIME1) * R2.var(a11 + PRIME2),
         a12: lambda R2: R2.var(a11 + PRIME1) * R2.var(a12 + PRIME2)
             + R2.var(a12 + PRIME1) * R2.var(a22 + PRIME2),
         a22: lambda R2: R2.var(a22 + PRIME1) * R2.var(a22 + PRIME2),
         det: lambda R2: R2.var(det + PRIME1) * R2.var(det + PRIME2)},
        {a11: 1, a12: 0, a22: 1, det: 1},
        {a11: lambda R: R.var(a22) * R.var(det),
         a12: lambda R: -R.var(a12) * R.var(det),
         a22: lambda R: R.var(a11) * R.var(det),
         det: lambda R: R.var(a11) * R.var(a22)})


def product(h1: HopfPresentation, h2: HopfPresentation) -> HopfPresentation:
    """Direct product; the variable names must be disjoint."""
    if set(h1.ring.variables) & set(h2.ring.variables):
        raise UnknownVariable("product factors share variable names")
    name = f"{h1.name}x{h2.name}"
    ring = PolyRing(h1.ring.variables + h2.ring.variables)
    ring2 = tensor_ring(ring, (PRIME1, PRIME2))
    rels = Ideal(ring, [g.in_ring(ring) for g in h1.relations.generators]
                 + [g.in_ring(ring) for g in h2.relations.generators])
    factors = [(h, v) for h in (h1, h2) for v in h.ring.variables]
    return HopfPresentation.from_images(
        name, ring, rels,
        {v: h.comul.images[v].in_ring(ring2) for h, v in factors},
        {v: h.counit.images[v] for h, v in factors},
        {v: h.antipode.images[v].in_ring(ring) for h, v in factors})
