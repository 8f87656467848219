#!/usr/bin/env python3
"""Validate the golden corpus in place.

Every golden/*.grp is checked to parse, to satisfy the axioms it claims
(Hopf, flatness, comodule, morphism compatibility), and to survive a
print/parse round trip.  Every group in STOCK must be in its file and
equal the library's, so the corpus cannot drift from the library.
Prints one line per failure and exits 1 if there is any, else 0:

    python scripts/check_goldens.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from neron.errors import NeronError
from neron.hopf import check_hopf, check_morphism
from neron.library import (additive_group, borel2, general_linear,
                           multiplicative_group, product, roots_of_unity,
                           twisted_multiplicative)
from neron.parser import parse, print_file
from neron.reps import RepMatrix, validate_rep

GOLDEN = ROOT / "golden"

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


def same_group(a, b) -> bool:
    return (a.ring.variables == b.ring.variables
            and list(a.relations.generators) == list(b.relations.generators)
            and a.comul.images == b.comul.images
            and a.counit.images == b.counit.images
            and a.antipode.images == b.antipode.images)


def failures(text: str, stock: dict) -> list:
    """What fails in one file's text; `stock` maps the names of the groups
    it must hold to the library's groups."""
    try:
        pf = parse(text)
    except NeronError as exc:
        return [f"does not parse: {exc}"]
    out = [f"group {g} fails verification"
           for g, h in pf.groups.items() if not check_hopf(h).ok]
    out += [f"morphism {m} fails verification"
            for m, mor in pf.morphisms.items() if not check_morphism(mor).ok]
    out += [f"rep {r} fails verification" for r, block in pf.reps.items()
            if not validate_rep(RepMatrix(block.group, block.entries, block.witness)).ok]
    again = parse(print_file(pf))
    out += [f"group {g} does not round trip"
            for g, h in pf.groups.items() if not same_group(h, again.groups[g])]
    for g, want in stock.items():
        if g not in pf.groups:
            out.append(f"group {g} is missing")
        elif not same_group(pf.groups[g], want):
            out.append(f"group {g} drifted from the library")
    return out


def main() -> int:
    paths = {p.name: p for p in sorted(GOLDEN.glob("*.grp"))}
    bad = [f"{f}: file is missing" for f in sorted({f for f, _ in STOCK} - set(paths))]
    for fname, path in paths.items():
        stock = {g: h for (f, g), h in STOCK.items() if f == fname}
        bad += [f"{fname}: {line}"
                for line in failures(path.read_text(encoding="utf-8"), stock)]
    for line in bad:
        print(line)
    print(f"{len(paths)} golden files checked, {len(bad)} failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
