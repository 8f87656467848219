"""The coefficient convention of `neron.ring`: an int when integral, a
Fraction otherwise, never a float.

Polynomial arithmetic is checked against a Fraction-only reference kept
here, the CLI is watched for float coefficients end to end, and ladder
rungs larger than any snapshot are pinned to their recorded stdout.
"""

import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from neron.cli import main
from neron.groebner import Ideal, membership
from neron.ring import (GREVLEX, LEX, SCALARS, Poly, PolyRing, Substitution, elim_order,
                        quotient, rational)

LADDER = json.loads((Path(__file__).resolve().parent / "ladder_stdout.json")
                    .read_text(encoding="utf-8"))


# -- a Fraction-only reference on {monomial: Fraction} dicts -------------------


def ref(f: Poly) -> dict:
    return {m: Fraction(c) for m, c in f.terms.items()}


def ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return {m: c for m, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def ref_one(nvars: int) -> dict:
    return {(0,) * (nvars + 1): Fraction(1)}


def ref_pow(a: dict, n: int, nvars: int) -> dict:
    out = ref_one(nvars)
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_scale(a: dict, q) -> dict:
    return {m: c * Fraction(q) for m, c in a.items() if c * Fraction(q)}


def ref_in_ring(a: dict, source: PolyRing, target: PolyRing, rename: dict) -> dict:
    out = {}
    for m, c in a.items():
        mono = [0] * target.nvars + [m[-1]]
        for name, e in zip(source.variables, m):
            if e:
                mono[target.index(rename.get(name, name))] += e
        key = tuple(mono)
        out[key] = out.get(key, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def ref_substitute(images: dict, source: PolyRing, target: PolyRing, a: dict) -> dict:
    out = {}
    for m, c in a.items():
        term = {(0,) * target.nvars + (m[-1],): c}
        for name, e in zip(source.variables, m):
            term = ref_mul(term, ref_pow(images[name], e, target.nvars))
        out = ref_add(out, term)
    return out


# -- strategies ----------------------------------------------------------------

SOURCE = PolyRing(("x", "y"))
TARGET = PolyRing(("a", "b", "c"))


def coefficients(integral: bool):
    whole = st.integers(-4, 4)
    if integral:
        return whole
    part = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return whole | part.filter(lambda q: q.denominator != 1)


def polys(ring: PolyRing, integral: bool, top: int = 2):
    mono = st.tuples(*([st.integers(0, top)] * ring.nvars), st.integers(0, 2))
    return st.dictionaries(mono, coefficients(integral), max_size=4).map(
        lambda t: Poly(ring, t))


def assert_exact(p: Poly, integral: bool):
    """No float; ints only, when every input was integral."""
    for c in p.terms.values():
        assert type(c) in ((int,) if integral else (int, Fraction)), (c, type(c))


def assert_normalised(p: Poly):
    """Every integral coefficient is an int, as a division site leaves it."""
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


class TestNormalisers:
    def test_rational_and_quotient(self):
        assert type(rational(Fraction(6, 3))) is int and rational(Fraction(6, 3)) == 2
        assert rational(Fraction(1, 2)) == Fraction(1, 2)
        assert type(rational(True)) is int
        assert type(quotient(6, 3)) is int and quotient(6, 3) == 2
        assert type(quotient(-6, 4)) is Fraction and quotient(-6, 4) == Fraction(-3, 2)
        assert type(quotient(Fraction(4, 3), Fraction(2, 3))) is int
        assert quotient(1, Fraction(2, 5)) == Fraction(5, 2)


class TestAgainstFractionReference:
    @given(data=st.data(), integral=st.booleans(),
           order=st.sampled_from([LEX, GREVLEX, elim_order(1)]))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_poly_arithmetic(self, data, integral, order):
        R = PolyRing(SOURCE.variables, order)
        f, g = data.draw(polys(R, integral)), data.draw(polys(R, integral))
        n = data.draw(st.integers(0, 3))
        results = [
            (f + g, ref_add(ref(f), ref(g))),
            (f - g, ref_add(ref(f), ref(g), -1)),
            (f * g, ref_mul(ref(f), ref(g))),
            (f ** n, ref_pow(ref(f), n, R.nvars)),
            (f + 3, ref_add(ref(f), ref_scale(ref_one(R.nvars), 3))),
        ]
        for got, want in results:
            assert ref(got) == want
            assert_exact(got, integral)
        q = data.draw(coefficients(data.draw(st.booleans())))
        got = f.scale(q)
        assert ref(got) == ref_scale(ref(f), q)
        assert_normalised(got)
        rename = {"x": "a", "y": "a"}  # terms meet, so in_ring adds them
        got = (f * g).in_ring(TARGET, rename)
        assert ref(got) == ref_in_ring(ref_mul(ref(f), ref(g)), R, TARGET, rename)
        assert_exact(got, integral)

    @given(data=st.data(), integral=st.booleans())
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_substitution(self, data, integral):
        images = {v: data.draw(polys(TARGET, integral, 1)) for v in SOURCE.variables}
        phi = Substitution(SOURCE, TARGET, images)
        ref_images = {v: ref(p) for v, p in images.items()}
        for f in data.draw(st.lists(polys(SOURCE, integral), min_size=1, max_size=3)):
            got = phi(f)
            assert ref(got) == ref_substitute(ref_images, SOURCE, TARGET, ref(f))
            assert_exact(got, integral)


class TestKernelDivisions:
    @given(data=st.data(), order=st.sampled_from([LEX, GREVLEX]))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_no_float(self, data, order):
        # Integer generators with lead coefficients other than 1: the held
        # division, the monic basis and the tracked cofactors all divide.
        R = PolyRing(SOURCE.variables, order)
        gens = data.draw(st.lists(polys(R, True), min_size=1, max_size=2))
        f = data.draw(polys(R, True))
        ideal = Ideal(R, gens)
        out = [ideal.normal_form(f), *ideal.basis(), ideal.normal_form(f)]
        cert = membership(f, Ideal(R, gens))
        out += [cert.remainder, *(cert.cofactors or [])]
        for p in out:
            assert_exact(p, False)


class TestScalar:
    def test_holds_ints(self):
        s = (SCALARS.scalar(Fraction(4, 2)) + SCALARS.pi().scale(Fraction(1, 2))).scale(2)
        assert s.terms == {(0,): 4, (1,): 1}
        assert all(type(c) is int for c in s.terms.values())
        assert type(SCALARS.pi(2).scale(Fraction(3)).terms[2,]) is int
        assert type(s.set_pi_zero().terms[0,]) is int


# -- the CLI end to end --------------------------------------------------------

WATCHED = [
    "check-hopf gm.grp",
    "check-hopf gl2.grp",
    "check-hopf gm-twisted-2.grp",
    "blowup gm.grp --centre 'pi, u-1'",
    "auto-trunc gm.grp --level 3",
    "auto-trunc borel.grp --level 3",
    "dgal-diagnose exp.grp --levels 3",
    "dgal-diagnose log.grp --levels 3",
]


def _argv(golden_dir, line: str) -> list:
    argv = shlex.split(line)
    argv[1] = str(golden_dir / argv[1])
    return argv


@pytest.mark.parametrize("line", WATCHED)
def test_cli_makes_no_float_coefficient(monkeypatch, capsys, golden_dir, line):
    seen = set()
    init = Poly.__init__

    def wrapped(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen.update(map(type, self.terms.values()))

    monkeypatch.setattr(Poly, "__init__", wrapped)
    code = main(_argv(golden_dir, line))
    capsys.readouterr()
    assert code == 0
    assert int in seen
    assert seen <= {int, Fraction}, seen


@pytest.mark.parametrize("line", sorted(LADDER))
def test_ladder_rung_prints_recorded_stdout(capsys, golden_dir, line):
    code = main(_argv(golden_dir, line))
    assert code == 0
    assert capsys.readouterr().out == LADDER[line]
