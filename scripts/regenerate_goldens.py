#!/usr/bin/env python3
"""Rewrite the golden corpus, validating every file before it lands.

Each file below is checked to parse, to satisfy the axioms it claims
(Hopf, flatness, comodule, morphism compatibility), and to survive a
print/parse round trip, so the corpus cannot drift from the library.
Every file is checked before any is written: one failure writes none.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from neron.hopf import check_hopf, check_morphism
from neron.library import (additive_group, borel2, general_linear,
                           multiplicative_group, product, roots_of_unity,
                           twisted_multiplicative)
from neron.parser import parse, print_file
from neron.reps import RepMatrix, validate_rep

GOLDEN = ROOT / "golden"

FILES = {}

FILES["gm.grp"] = """\
# The torus: an invertible coordinate and its inverse.
group Gm {
  vars: u, v;
  relations: u*v - 1;
  comul: u -> u'*u'', v -> v'*v'';
  counit: u -> 1, v -> 1;
  antipode: u -> v, v -> u;
}
"""

FILES["ga.grp"] = """\
# The additive group of the base.
group Ga {
  vars: x;
  relations: ;
  comul: x -> x' + x'';
  counit: x -> 0;
  antipode: x -> -x;
}
"""

TWISTED = """\
# Units congruent to 1 modulo pi^{n}, in the coordinate u = 1 + pi^{n} x.
group "Gm^({n})" {{
  vars: x, y;
  relations: x + y + pi{p}*x*y;
  comul: x -> x' + x'' + pi{p}*x'*x'', y -> y' + y'' + pi{p}*y'*y'';
  counit: x -> 0, y -> 0;
  antipode: x -> y, y -> x;
}}
"""

for n in (1, 2, 3):
    FILES[f"gm-twisted-{n}.grp"] = TWISTED.format(n=n, p="" if n == 1 else f"^{n}")

FILES["gprime.grp"] = """\
# The dilatation of the torus at the unit section of its fibre, kept in
# three coordinates: u invertible with inverse w, and pi*v = u - 1.
group Gprime {
  vars: u, w, v;
  relations: u*w - 1, pi*v - u + 1;
  comul: u -> u'*u'', w -> w'*w'', v -> v'*u'' + v'';
  counit: u -> 1, w -> 1, v -> 0;
  antipode: u -> w, w -> u, v -> -v*w;
}

group Gm {
  vars: u, v;
  relations: u*v - 1;
  comul: u -> u'*u'', v -> v'*v'';
  counit: u -> 1, v -> 1;
  antipode: u -> v, v -> u;
}

# The projection: an isomorphism after inverting pi.
morphism rho {
  source: Gprime;
  target: Gm;
  pullback: u -> u, v -> w;
}
"""

FILES["gm-rep.grp"] = """\
group Gm {
  vars: u, v;
  relations: u*v - 1;
  comul: u -> u'*u'', v -> v'*v'';
  counit: u -> 1, v -> 1;
  antipode: u -> v, v -> u;
}

rep V {
  group: Gm;
  matrix: [[u]];
  witness: v;
}
"""

FILES["ga-rep.grp"] = """\
group Ga {
  vars: x;
  relations: ;
  comul: x -> x' + x'';
  counit: x -> 0;
  antipode: x -> -x;
}

rep W {
  group: Ga;
  matrix: [[1, x], [0, 1]];
  witness: 1;
}
"""

FILES["gl2.grp"] = """\
# Invertible 2 x 2 matrices; d inverts the determinant.
group GL2 {
  vars: a11, a12, a21, a22, d;
  relations: a11*a22*d - a12*a21*d - 1;
  comul: a11 -> a11'*a11'' + a12'*a21'',
         a12 -> a11'*a12'' + a12'*a22'',
         a21 -> a21'*a11'' + a22'*a21'',
         a22 -> a21'*a12'' + a22'*a22'',
         d -> d'*d'';
  counit: a11 -> 1, a12 -> 0, a21 -> 0, a22 -> 1, d -> 1;
  antipode: a11 -> a22*d, a12 -> -a12*d, a21 -> -a21*d, a22 -> a11*d,
            d -> a11*a22 - a12*a21;
}

rep std {
  group: GL2;
  matrix: [[a11, a12], [a21, a22]];
  witness: d;
}
"""

FILES["borel.grp"] = """\
# Invertible upper triangular 2 x 2 matrices; e inverts the determinant.
group B2 {
  vars: a11, a12, a22, e;
  relations: a11*a22*e - 1;
  comul: a11 -> a11'*a11'', a12 -> a11'*a12'' + a12'*a22'',
         a22 -> a22'*a22'', e -> e'*e'';
  counit: a11 -> 1, a12 -> 0, a22 -> 1, e -> 1;
  antipode: a11 -> a22*e, a12 -> -a12*e, a22 -> a11*e, e -> a11*a22;
}

rep std {
  group: B2;
  matrix: [[a11, a12], [0, a22]];
  witness: e;
}
"""

FILES["gmxga.grp"] = """\
# Product of the torus with the additive group.
group GmxGa {
  vars: u, v, x;
  relations: u*v - 1;
  comul: u -> u'*u'', v -> v'*v'', x -> x' + x'';
  counit: u -> 1, v -> 1, x -> 0;
  antipode: u -> v, v -> u, x -> -x;
}
"""

FILES["mu2-to-gm.grp"] = """\
# Square roots of unity inside the torus.
group mu2 {
  vars: u, v;
  relations: u*v - 1, u^2 - 1;
  comul: u -> u'*u'', v -> v'*v'';
  counit: u -> 1, v -> 1;
  antipode: u -> v, v -> u;
}

group Gm {
  vars: u, v;
  relations: u*v - 1;
  comul: u -> u'*u'', v -> v'*v'';
  counit: u -> 1, v -> 1;
  antipode: u -> v, v -> u;
}

morphism incl {
  source: mu2;
  target: Gm;
  pullback: u -> u, v -> v;
}
"""

FILES["exp.grp"] = """\
# The derivation acts on the frame by minus pi.
connection exp {
  base: affine-line;
  rank: 1;
  matrix: [[pi]];
}
"""

FILES["log.grp"] = """\
# The derivation acts on the frame by minus pi/x.
connection log {
  base: punctured-line;
  rank: 1;
  matrix: [[pi/x]];
}
"""

FILES["nilpotent.grp"] = """\
connection nilpotent {
  base: affine-line;
  rank: 2;
  matrix: [[0, 1], [0, 0]];
}
"""


def same_group(a, b) -> bool:
    return (a.ring.variables == b.ring.variables
            and list(a.relations.generators) == list(b.relations.generators)
            and a.comul.images == b.comul.images
            and a.counit.images == b.counit.images
            and a.antipode.images == b.antipode.images)


STOCK = {
    ("gm.grp", "Gm"): multiplicative_group(),
    ("ga.grp", "Ga"): additive_group(),
    ("gm-twisted-1.grp", "Gm^(1)"): twisted_multiplicative(1),
    ("gm-twisted-2.grp", "Gm^(2)"): twisted_multiplicative(2),
    ("gm-twisted-3.grp", "Gm^(3)"): twisted_multiplicative(3),
    ("gl2.grp", "GL2"): general_linear(2),
    ("borel.grp", "B2"): borel2(),
    ("gmxga.grp", "GmxGa"): product(multiplicative_group(), additive_group()),
    ("mu2-to-gm.grp", "mu2"): roots_of_unity(2),
}


def main() -> int:
    bad = 0
    for fname, text in sorted(FILES.items()):
        pf = parse(text)
        for gname, h in pf.groups.items():
            if not check_hopf(h).ok:
                print(f"{fname}: group {gname} fails verification")
                bad += 1
        for mname, m in pf.morphisms.items():
            if not check_morphism(m).ok:
                print(f"{fname}: morphism {mname} fails verification")
                bad += 1
        for rname, block in pf.reps.items():
            v = RepMatrix(block.group, block.entries, block.witness)
            if not validate_rep(v).ok:
                print(f"{fname}: rep {rname} fails verification")
                bad += 1
        again = parse(print_file(pf))
        for gname, h in pf.groups.items():
            if not same_group(h, again.groups[gname]):
                print(f"{fname}: group {gname} does not round trip")
                bad += 1
        for (want_file, gname), stock in STOCK.items():
            if want_file == fname and not same_group(pf.groups[gname], stock):
                print(f"{fname}: group {gname} drifted from the library")
                bad += 1
    if bad:
        print("nothing written")
        return 1
    GOLDEN.mkdir(exist_ok=True)
    for fname, text in sorted(FILES.items()):
        (GOLDEN / fname).write_text(text, encoding="utf-8")
        print(f"wrote golden/{fname}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
