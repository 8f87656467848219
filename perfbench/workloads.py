"""Job lists of the four benchmark workloads, generated from a seed.

Every workload is a fixed list of jobs that one pass runs in order.  The
seed only chooses among inputs of equal shape (job order, coefficients of
the generated connections, which mix draw is blown up twice), so two seeds
ask for about the same amount of work.  The input space is
finite and `record.py` enumerates all of it, which is how every job can be
checked against an output recorded from a known-good commit.

Module-level code builds plain data only: the setup probe imports this
file in a fresh interpreter before it imports `neron`.
"""

from __future__ import annotations

import random
import shlex
from itertools import product as _cartesian

WORKLOADS = ("corpus", "tower", "mix", "gauge")

# Passes whose timings the statistics use: the last WINDOW[w] complete
# passes of a run, which makes at least that many.  Earlier passes warm the
# interpreter up.  A fixed window
# keeps the sample count, and so the percentile the tail names, the same on
# every run of a workload.
WINDOW = {"corpus": 10, "tower": 4, "mix": 6, "gauge": 5}

# -- corpus -----------------------------------------------------------------

# Every subcommand on golden/, each run in text and in JSON.  Refuting jobs
# (exit 1 with a FAIL line or a "no" verdict) are valid requests and stay.
CORPUS = (
    "check-hopf gm.grp",
    "check-hopf borel.grp",
    "check-hopf gm-twisted-3.grp",
    "check-flat ga.grp",
    "check-flat gl2.grp",
    "check-morphism gprime.grp",
    "check-morphism mu2-to-gm.grp",
    "fibre gm.grp",
    "fibre gl2.grp",
    "reduce-mod gm-twisted-2.grp --modulus 1",
    "reduce-mod gm.grp --modulus 0",
    "blowup gm.grp --centre 'pi, u-1'",
    "blowup gmxga.grp --centre 'pi, x'",
    "partial-blowup gm.grp --ideal 'u-1' --level 1",
    "partial-blowup gmxga.grp --ideal x --level 0",
    "auto-trunc gm.grp --level 2",
    "auto-member ga.grp --element x/pi^5",
    "auto-member ga.grp --element '(x+1)/pi'",
    "standard-seq gprime.grp --depth 2",
    "strict-transform gmxga.grp --centre 'pi, u-1' --ideal x",
    "check-constancy gm.grp --ideal 'u-1, v-1' --depth 3",
    "rep-validate gm-rep.grp",
    "rep-validate borel.grp",
    "rep-faithful gm-rep.grp",
    "rep-faithful ga-rep.grp",
    "rep-blowup-identity gm-rep.grp --level 1",
    "rep-blowup-line borel.grp --column 2 --e-matrix '[[a22]]'",
    "rep-rescale borel.grp --column 2",
    "rep-sum gm-rep.grp V V",
    "conormal gm.grp --ideal 'u-1, v-1'",
    "conormal gmxga.grp --ideal 'u-1, v-1, x'",
    "image gprime.grp",
    "image mu2-to-gm.grp",
    "diptych gprime.grp",
    "triptych gprime.grp",
    "dgal-solve exp.grp --order 3",
    "dgal-solve nilpotent.grp --order 4",
    "dgal-trivial exp.grp --level 3",
    "dgal-trivial log.grp --level 1",
    "dgal-diagnose log.grp --levels 2",
    "dgal-diagnose nilpotent.grp --levels 2",
)

# Invalid requests are left out on purpose, because they exit 1 with no
# check line and the planned exit-code cleanup (bad requests exit 2) will
# change that; recording their exit code now would pin a behaviour due to
# change.  Two such requests:
#   rep-blowup-line borel.grp --column 1  (covering matrix misses the line)
#   blowup gm.grp --centre 'pi, u'        (centre is not a fibre subgroup)

# -- tower ------------------------------------------------------------------

# The scaling ladder: automatic truncations at the top rungs, and GmxGa one
# rung lower.  An odd job count puts the median and the tail inside one
# job's samples, not between two jobs' extremes.
TOWER = (("gm.grp", 8), ("gmxga.grp", 2), ("gmxga.grp", 3), ("borel.grp", 2),
         ("gl2.grp", 2))


def gm_relation(n: int) -> str:
    """Relation of the level-n automatic truncation of Gm, built by hand.

    Level n adjoins xi(2n-1) and xi(2n) with u = 1 + pi^n xi(2n-1) and
    v = 1 + pi^n xi(2n); uv = 1 then reads as below after dividing by pi^n.
    """
    a, b = f"xi{2 * n - 1}", f"xi{2 * n}"
    power = "pi" if n == 1 else f"pi^{n}"
    return f"{a}*{b}*{power} + {a} + {b}"


# -- mix --------------------------------------------------------------------

# Library groups, built by name so that a fresh interpreter can rebuild them.
GROUPS = {
    "Gm": ("multiplicative_group", ()),
    "Ga": ("additive_group", ()),
    "Gm1": ("twisted_multiplicative", (1,)),
    "Gm2": ("twisted_multiplicative", (2,)),
    "mu2": ("roots_of_unity", (2,)),
    "GmxGa": ("product", ("Gm", "Ga")),
    "B2": ("borel2", ()),
    "SL2": ("special_linear", (2,)),
    "GL2": ("general_linear", (2,)),
}

# (group, centre generators other than pi): closed flat subgroups of the
# special fibre, small enough that most draws take tens of milliseconds.
# Every pass draws the same menu items, so the ideals recur.
MIX_MENU = (
    ("Gm", ("u-1",)),
    ("Gm", ("u^2-1",)),
    ("Ga", ("x",)),
    ("Gm1", ("x",)),
    ("Gm2", ("x",)),
    ("mu2", ("u-1",)),
    ("GmxGa", ("u-1",)),
    ("GmxGa", ("x",)),
    ("GmxGa", ("u-1", "x")),
    ("B2", ("a12",)),
    ("SL2", ("a21",)),
    ("GL2", ("a21",)),
)
MIX_SHIFTS = (0, 1, -1)  # first generator g becomes g + shift*pi
MIX_DRAW_SHIFTS = (0, 0, 1, -1)  # the shifts of an item's draws in a pass
MIX_COPIES = len(MIX_DRAW_SHIFTS)


def mix_centre(gens, shift: int) -> str:
    first = gens[0]
    if shift:
        first = f"{first} {'+' if shift > 0 else '-'} {abs(shift)}*pi"
    return ", ".join(("pi", first) + tuple(gens[1:]))


def mix_key(item: int, shift: int, second: bool) -> str:
    group, gens = MIX_MENU[item]
    return f"{group} at ({mix_centre(gens, shift)})" + (" twice" if second else "")


# -- gauge ------------------------------------------------------------------

# Connection shapes: (base, matrix template, levels, format).  The seed
# fills {a} and {b} from GAUGE_COEFFS.  The shape fixes the size of every
# linear system; the coefficients still move a job's time by up to half,
# so each shape is drawn GAUGE_DRAWS times a pass to even that out.
GAUGE_SLOTS = (
    ("affine-line", "[[{a}*pi + {b}*pi*x]]", 3, "text"),
    ("affine-line", "[[{a}*pi^2*x^2 + {b}*pi]]", 3, "json"),
    ("punctured-line", "[[{a}*pi/x + {b}*pi]]", 3, "text"),
    ("punctured-line", "[[{a}*pi^2/x + {b}*pi^2]]", 3, "json"),
    ("affine-line", "[[0, {a}*pi], [{b}*pi*x, 0]]", 2, "text"),
    ("affine-line", "[[{a}*pi, pi*x], [0, {b}*pi]]", 2, "json"),
    ("punctured-line", "[[{a}*pi/x, 0], [pi, {b}*pi]]", 2, "text"),
    ("affine-line", "[[0, {a}*pi^2], [{b}*pi, 0]]", 3, "json"),
)
GAUGE_COEFFS = (2, -2, 3, -3)
GAUGE_DRAWS = 2  # connections drawn per shape and pass
GAUGE_FIXED = ("dgal-diagnose exp.grp --levels 10",)


def gauge_text(slot: int, a: int, b: int) -> str:
    base, template, _, _ = GAUGE_SLOTS[slot]
    matrix = template.format(a=a, b=b).replace("+ -", "- ").replace("1*pi", "pi")
    rank = matrix.count("[") - 1
    return (f"connection c{slot} {{\n  base: {base};\n  rank: {rank};\n"
            f"  matrix: {matrix};\n}}\n")


def gauge_name(slot: int, a: int, b: int) -> str:
    return f"gen/c{slot}_{a}_{b}.grp"


# -- job lists ----------------------------------------------------------------


def _cli(line: str, fmt: str = None):
    argv = shlex.split(line)
    if fmt is not None:
        argv += ["--format", fmt]
    return argv


def cli_jobs(name: str, seed: int):
    """Argument vectors for a CLI workload; file names are relative to the
    corpus directory (golden/) or, for generated files, to the work area."""
    rng = random.Random(f"{name}:{seed}")
    if name == "corpus":
        jobs = [_cli(line, fmt) for line in CORPUS for fmt in ("text", "json")]
    elif name == "tower":
        jobs = [["auto-trunc", f, "--level", str(n)] for f, n in TOWER]
    elif name == "gauge":
        jobs = [_cli(line) for line in GAUGE_FIXED]
        for slot, (_, _, levels, fmt) in enumerate(GAUGE_SLOTS):
            for _ in range(GAUGE_DRAWS):
                a, b = rng.choice(GAUGE_COEFFS), rng.choice(GAUGE_COEFFS)
                jobs.append(["dgal-diagnose", gauge_name(slot, a, b),
                             "--levels", str(levels), "--format", fmt])
    else:
        raise ValueError(f"{name} is not a CLI workload")
    rng.shuffle(jobs)
    return jobs


def mix_draws(seed: int):
    """(menu item, shift, second blowup) for each draw of a pass.

    Each item is drawn MIX_COPIES times, once per shift in MIX_DRAW_SHIFTS,
    and exactly one copy is blown up a second time, so a quarter of the
    draws are; the seed picks which copy, and the order.
    """
    rng = random.Random(f"mix:{seed}")
    draws = []
    for item in range(len(MIX_MENU)):
        twice = rng.randrange(MIX_COPIES)
        for copy, shift in enumerate(MIX_DRAW_SHIFTS):
            draws.append((item, shift, copy == twice))
    rng.shuffle(draws)
    return draws


def all_gauge_files():
    """Every generated connection any seed can ask for."""
    for slot in range(len(GAUGE_SLOTS)):
        for a, b in _cartesian(GAUGE_COEFFS, GAUGE_COEFFS):
            yield slot, a, b


def all_cli_jobs(name: str):
    """Every argument vector any seed can produce for a CLI workload."""
    if name == "gauge":
        jobs = [_cli(line) for line in GAUGE_FIXED]
        for slot, a, b in all_gauge_files():
            _, _, levels, fmt = GAUGE_SLOTS[slot]
            jobs.append(["dgal-diagnose", gauge_name(slot, a, b),
                         "--levels", str(levels), "--format", fmt])
        return jobs
    return cli_jobs(name, 0)


def all_mix_draws():
    for item in range(len(MIX_MENU)):
        for shift in MIX_SHIFTS:
            for second in (False, True):
                yield item, shift, second
