"""Command line front end over the presentation file format.

Exit codes: 0 verified / succeeded, 1 mathematical failure or refuted
check (the witness appears in the output), 2 usage or parse error,
3 resource budget exceeded.  Identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .blowup import (automatic_member, automatic_truncation, check_constancy,
                     neron_blowup, partial_blowup, standard_sequence,
                     strict_transform)
from .config import DEFAULT_LIMITS, Limits, budget
from .dgal import (check_gauge, formal_solution, galois_diagnostic,
                   triviality_mod)
from .errors import NeronError, ParseError, ResourceLimit, UndefinedName
from .groebner import Ideal
from .hopf import (check_flat, check_hopf, check_morphism, prune, reduce_mod,
                   special_fibre)
from .images import image_hopf, saturated_image, triptych
from .parser import (RepBlock, parse, parse_fraction, parse_matrix,
                     parse_poly, parse_poly_list, print_group, print_laurent)
from .report import Report
from .reps import (RepMatrix, conormal_rep, direct_sum, identity_blowup_rep,
                   line_blowup_rep, rescaled_rep, scaling_conjugation_report,
                   stabilizer_ideal, validate_rep, verify_faithful)
from .ring import format_poly

SCHEMA_VERSION = 1


def _limits(args) -> Limits:
    pairs, degree = args.max_pairs, args.degree_bound
    return Limits(DEFAULT_LIMITS.max_pairs if pairs is None else pairs,
                  DEFAULT_LIMITS.max_degree if degree is None else degree)


def _group_json(h) -> dict:
    return {
        "name": h.name,
        "vars": list(h.ring.variables),
        "relations": [format_poly(g) for g in h.relations.generators],
        "comul": {v: format_poly(h.comul.images[v]) for v in h.ring.variables},
        "counit": {v: format_poly(h.counit.images[v]) for v in h.ring.variables},
        "antipode": {v: format_poly(h.antipode.images[v]) for v in h.ring.variables},
    }


def _morphism_json(m) -> dict:
    return {
        "name": m.name,
        "source": m.source.name,
        "target": m.target.name,
        "pullback": {v: format_poly(m.pullback.images[v])
                     for v in m.target.ring.variables},
    }


def _rows_json(entries, fmt=format_poly):
    return [[fmt(e) for e in row] for row in entries]


def _matrix_lines(entries, head: str, fmt=format_poly):
    lines = [head]
    for row in entries:
        lines.append("  [" + ", ".join(fmt(e) for e in row) + "]")
    return lines


def _finish(args, ok: bool, report: Report, data: dict, lines) -> int:
    if args.format == "json":
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "ok": bool(ok),
            "report": report.to_json() if report is not None else None,
            "data": data,
        }
        sys.stdout.write(json.dumps(envelope, sort_keys=True, indent=2) + "\n")
    else:
        out = list(lines or [])
        if report is not None:
            out.extend(report.lines())
        if out:
            sys.stdout.write("\n".join(out) + "\n")
    return 0 if ok else 1


def _to_matrix(block: RepBlock) -> RepMatrix:
    return RepMatrix(block.group, block.entries, block.witness)


def _rep_payload(v: RepMatrix) -> dict:
    return {"group": v.group.name, "rows": _rows_json(v.entries),
            "witness": format_poly(v.det_inverse_witness)}


# Each handler takes its looked-up block (a RepMatrix for `rep` commands,
# the whole file for `rep-sum`) and the parsed arguments, and returns (ok,
# report, data, text lines) for `_finish`; `main` opens the flags' budget.


def cmd_check_hopf(h, args):
    rep = check_hopf(h)
    return rep.ok, rep, {"group": h.name}, None


def cmd_check_flat(h, args):
    rep = check_flat(h)
    return rep.ok, rep, {"group": h.name}, None


def cmd_check_morphism(m, args):
    rep = check_morphism(m)
    return rep.ok, rep, {"morphism": m.name}, None


def cmd_fibre(h, args):
    fibre = special_fibre(h)
    pruned, eliminated = prune(fibre)
    data = {"group": _group_json(pruned),
            "eliminated": {v: format_poly(f) for v, f in eliminated.items()}}
    return True, None, data, print_group(pruned).splitlines()


def cmd_reduce_mod(h, args):
    res = reduce_mod(h, args.modulus)
    lines = [f"trivial modulo pi^{args.modulus + 1}: "
             + ("yes" if res.trivial else "no")]
    data = {"trivial": res.trivial, "level": args.modulus,
            "group": _group_json(res.presentation)}
    return res.trivial, res.report, data, lines


def cmd_blowup(h, args):
    centre = Ideal(h.ring, parse_poly_list(args.centre, h.ring))
    b = neron_blowup(h, centre)
    lines = print_group(b.blown).splitlines()
    lines.append("centre: " + ", ".join(format_poly(g) for g in centre.generators))
    data = {"group": _group_json(b.blown),
            "centre": [format_poly(g) for g in centre.generators],
            "projection": _morphism_json(b.projection)}
    return b.report.ok, b.report, data, lines


def cmd_partial_blowup(h, args):
    sub = Ideal(h.ring, parse_poly_list(args.ideal, h.ring))
    b = partial_blowup(h, sub, args.level)
    lines = print_group(b.blown).splitlines()
    data = {"group": _group_json(b.blown), "level": args.level,
            "subgroup": [format_poly(g) for g in sub.generators],
            "projection": _morphism_json(b.projection)}
    return b.report.ok, b.report, data, lines


def cmd_auto_trunc(h, args):
    b = automatic_truncation(h, args.level)
    lines = print_group(b.blown).splitlines()
    data = {"group": _group_json(b.blown), "level": b.level,
            "projection": _morphism_json(b.projection)}
    return b.report.ok, b.report, data, lines


def cmd_auto_member(h, args):
    numerator, power = parse_fraction(args.element, h.ring)
    member = automatic_member(h, numerator, power)
    eps = h.eps_of(numerator)
    lines = [f"element: {format_poly(numerator)} / pi^{power}",
             f"counit numerator: {format_poly(eps)}",
             "member of the automatic blowup: " + ("yes" if member else "no")]
    data = {"member": member, "power": power,
            "numerator": format_poly(numerator),
            "counit_numerator": format_poly(eps)}
    return member, None, data, lines


def cmd_standard_seq(rho, args):
    seq = standard_sequence(rho, args.depth)
    lines = []
    stages = []
    for i, stage in enumerate(seq.stages):
        centre = [format_poly(g) for g in stage.centre.generators]
        lines.append(f"stage {i + 1}: {stage.group.name}")
        lines.append("  centre: " + ", ".join(centre))
        stages.append({"group": stage.group.name,
                       "vars": list(stage.group.ring.variables),
                       "relations": [format_poly(g)
                                     for g in stage.group.relations.generators],
                       "centre": centre})
    lines.append(f"lifted morphism: {seq.lifted.name}")
    data = {"depth": seq.depth, "stages": stages,
            "lifted": _morphism_json(seq.lifted)}
    return True, None, data, lines


def cmd_strict_transform(h, args):
    centre = Ideal(h.ring, parse_poly_list(args.centre, h.ring))
    sub = Ideal(h.ring, parse_poly_list(args.ideal, h.ring))
    b = neron_blowup(h, centre)
    t = strict_transform(b, sub)
    gens = [format_poly(g) for g in t.basis()]
    lines = ["strict transform: " + ", ".join(gens)]
    return True, None, {"generators": gens, "blown_group": b.blown.name}, lines


def cmd_check_constancy(h, args):
    sub = Ideal(h.ring, parse_poly_list(args.ideal, h.ring))
    rep = check_constancy(h, sub, args.depth)
    return rep.ok, rep, {"group": h.name, "depth": args.depth}, None


def cmd_rep_validate(v, args):
    rep = validate_rep(v)
    return rep.ok, rep, _rep_payload(v), _matrix_lines(v.entries, "matrix:")


def cmd_rep_faithful(v, args):
    res = verify_faithful(v)
    lines = [f"verdict: {res.verdict}"]
    if res.undecided:
        lines.append("undecided variables: " + ", ".join(res.undecided))
    data = {"verdict": res.verdict, "undecided": res.undecided}
    return res.verdict == "faithful", res.report, data, lines


def cmd_rep_blowup_identity(v, args):
    b = automatic_truncation(v.group, args.level)
    doubled = identity_blowup_rep(v, b)
    rep = validate_rep(doubled)
    rep.extend(scaling_conjugation_report(v, b, doubled))
    lines = _matrix_lines(doubled.entries, f"doubled matrix over {doubled.group.name}:")
    data = _rep_payload(doubled)
    data["level"] = args.level
    return rep.ok, rep, data, lines


def cmd_rep_blowup_line(v, args):
    if args.e_witness is not None and args.e_matrix is None:
        raise ValueError("--e-witness needs --e-matrix")
    b = neron_blowup(v.group, stabilizer_ideal(v, args.column))
    e = None
    if args.e_matrix is not None:
        entries = parse_matrix(args.e_matrix, b.blown.ring)
        witness = (parse_poly(args.e_witness, b.blown.ring)
                   if args.e_witness is not None else None)
        e = RepMatrix(b.blown, entries, witness)
    glued = line_blowup_rep(v, b, e, args.column)
    rep = validate_rep(glued)
    lines = _matrix_lines(glued.entries, f"glued matrix over {glued.group.name}:")
    data = _rep_payload(glued)
    data["column"] = args.column
    return rep.ok, rep, data, lines


def cmd_rep_rescale(v, args):
    b = neron_blowup(v.group, stabilizer_ideal(v, args.column))
    rescaled, summed = rescaled_rep(v, b, args.column)
    rep = validate_rep(rescaled)
    rep.extend(validate_rep(summed))
    lines = _matrix_lines(rescaled.entries,
                          f"rescaled matrix over {rescaled.group.name}:")
    lines.extend(_matrix_lines(summed.entries, "direct sum with the original:"))
    data = {"rescaled": _rep_payload(rescaled), "sum": _rep_payload(summed),
            "column": args.column}
    return rep.ok, rep, data, lines


def cmd_rep_sum(pf, args):
    v = _to_matrix(pf.lookup("rep", args.left))
    w = _to_matrix(pf.lookup("rep", args.right))
    s = direct_sum(v, w)
    rep = validate_rep(s)
    lines = _matrix_lines(s.entries, f"direct sum over {s.group.name}:")
    return rep.ok, rep, _rep_payload(s), lines


def cmd_conormal(h, args):
    gk = special_fibre(h)
    sub = Ideal(gk.ring, parse_poly_list(args.ideal, gk.ring))
    data_obj = conormal_rep(gk, sub)
    v = data_obj.rep()
    rep = validate_rep(v)
    basis = [format_poly(f) for f in data_obj.basis]
    lines = ["conormal basis: " + ", ".join(basis)]
    lines.extend(_matrix_lines(data_obj.matrix,
                               f"coaction matrix over {data_obj.group.name}:"))
    data = {"basis": basis, "group": _group_json(data_obj.group),
            "rows": _rows_json(data_obj.matrix)}
    return rep.ok, rep, data, lines


def cmd_image(rho, args):
    res = image_hopf(rho)
    lines = print_group(res.group).splitlines()
    data = {"group": _group_json(res.group),
            "embed": _morphism_json(res.embed),
            "cover": _morphism_json(res.cover)}
    return True, None, data, lines


def cmd_diptych(rho, args):
    d = saturated_image(rho, args.steps)
    lines = []
    stages = []
    for stage in [d.image.group] + d.stages:
        lines.append(f"stage: {stage.name}  vars: "
                     + ", ".join(stage.ring.variables))
        stages.append(_group_json(stage))
    lines.append("stabilized: " + ("yes" if d.stabilized else "no"))
    data = {"stages": stages, "stabilized": d.stabilized}
    return d.report.ok and d.stabilized, d.report, data, lines


def cmd_triptych(rho, args):
    t = triptych(rho, args.steps)
    lines = []
    for h in (t.saturated_fibre, t.mod_pi_image, t.image_fibre):
        lines.extend(print_group(h).splitlines())
        lines.append("")
    report = Report(f"triptych of {rho.name}")
    report.extend(t.report)
    data = {"saturated_fibre": _group_json(t.saturated_fibre),
            "mod_pi_image": _group_json(t.mod_pi_image),
            "image_fibre": _group_json(t.image_fibre),
            "stabilized": t.diptych.stabilized}
    return report.ok and t.diptych.stabilized, report, data, lines


def cmd_dgal_solve(c, args):
    y = formal_solution(c, args.order)
    lines = _matrix_lines(y, f"fundamental solution modulo x^{args.order + 1}:",
                          print_laurent)
    data = {"order": args.order, "rows": _rows_json(y, print_laurent)}
    return True, None, data, lines


def _entry_json(entry) -> dict:
    out = {"level": entry.level, "trivial": entry.trivial,
           "obstruction": list(entry.obstruction)}
    if entry.gauge is not None:
        out["gauge"] = _rows_json(entry.gauge, print_laurent)
    return out


def _entry_lines(data: dict):
    """Text of one level from its `_entry_json` data."""
    if data["trivial"]:
        rows = ["[" + ", ".join(row) + "]" for row in data["gauge"]]
        return [f"level {data['level']}: trivial, gauge " + ", ".join(rows)]
    lines = [f"level {data['level']}: not trivial"]
    for label in data["obstruction"]:
        lines.append(f"  inconsistent: {label}")
    return lines


def _replay_gauge(c, entry):
    if entry.trivial and not check_gauge(c, entry):
        raise NeronError("gauge replay failed")


def cmd_dgal_trivial(c, args):
    entry = triviality_mod(c, args.level, args.degree_bound)
    _replay_gauge(c, entry)
    data = _entry_json(entry)
    return entry.trivial, None, data, _entry_lines(data)


def cmd_dgal_diagnose(c, args):
    rep, level_report, verdict = galois_diagnostic(c, args.levels,
                                                   args.degree_bound)
    for entry in rep.levels.values():
        _replay_gauge(c, entry)
    levels = [_entry_json(rep.levels[n]) for n in range(args.levels + 1)]
    lines = []
    for level in levels:
        lines.extend(_entry_lines(level))
    lines.append(f"verdict: {verdict}")
    data = {"levels": levels,
            "trivial_through": rep.trivial_through(),
            "verdict": verdict}
    return True, level_report, data, lines


class _Subcommand:
    """One subcommand's parser, built when a call first dispatches to it.

    `build_parser` hands this class to argparse as the subparsers'
    `parser_class`, so `add_parser` files it under the command's name with
    the keyword arguments argparse would have built the parser from.  Help,
    usage errors and invalid-choice messages read only the names and help
    texts, so a tree builds the parser of a command only when a call names
    it, and then keeps it: `main`'s one tree builds each at most once.
    """

    parser = None

    def __init__(self, **kwargs):
        self.kwargs = kwargs
        self.row = None  # (block kind, handler, options) from the table

    def __getattr__(self, attr):
        # Reached only for what argparse asks of the subparser itself
        # (parse_known_args): build it once, then delegate.
        if self.parser is None:
            kind, func, options = self.row
            p = argparse.ArgumentParser(**self.kwargs)
            p.add_argument("file", help="presentation file")
            if kind is not None:
                p.add_argument("name", nargs="?", default=None,
                               help="block name (optional when unambiguous)")
            p.add_argument("--format", choices=("text", "json"), default="text")
            p.add_argument("--max-pairs", type=int, default=None,
                           help="basis computation pair budget")
            p.add_argument("--degree-bound", type=int, default=None,
                           help="degree budget (gauge window for dgal-* commands)")
            for flag, kwargs in options:
                p.add_argument(flag, **kwargs)
            p.set_defaults(func=func, kind=kind)
            self.parser = p
        return getattr(self.parser, attr)


_COLUMN = ("--column", dict(type=int, default=1))
_STEPS = ("--steps", dict(type=int, default=8))

# (name, block kind or None for the whole file, handler, help, options).
# `main` calls the handler that the module holds under the name of the one
# listed, so that a patched handler is the one called, even through a
# parser built before the patch.
_COMMANDS = (
    ("check-hopf", "group", cmd_check_hopf,
     "verify the Hopf algebra axioms", ()),
    ("check-flat", "group", cmd_check_flat,
     "certify flatness over the base", ()),
    ("check-morphism", "morphism", cmd_check_morphism,
     "verify a pullback is a Hopf algebra map", ()),
    ("fibre", "group", cmd_fibre, "pruned special fibre of a group", ()),
    ("reduce-mod", "group", cmd_reduce_mod, "base change to R/(pi^(n+1))",
     [("--modulus", dict(type=int, required=True,
                         help="reduce modulo pi^(modulus+1)"))]),
    ("blowup", "group", cmd_blowup, "dilatation at a subgroup of the fibre",
     [("--centre", dict(required=True, help="generators of the centre "
                                            "ideal, comma separated"))]),
    ("partial-blowup", "group", cmd_partial_blowup,
     "dilatation at a flat subgroup reduced mod pi^(level+1)",
     [("--ideal", dict(required=True,
                       help="generators of the flat subgroup ideal")),
      ("--level", dict(type=int, default=0))]),
    ("auto-trunc", "group", cmd_auto_trunc,
     "level-n truncation of the automatic blowup",
     [("--level", dict(type=int, default=1))]),
    ("auto-member", "group", cmd_auto_member,
     "membership of f/pi^m in the automatic blowup",
     [("--element", dict(required=True,
                         help="an element such as \"x/pi^2\""))]),
    ("standard-seq", "morphism", cmd_standard_seq,
     "standard sequence of blowups factoring a morphism",
     [("--depth", dict(type=int, default=3))]),
    ("strict-transform", "group", cmd_strict_transform,
     "flat transform of a subgroup through a blowup",
     [("--centre", dict(required=True)), ("--ideal", dict(required=True))]),
    ("check-constancy", "group", cmd_check_constancy,
     "watch a subgroup's fibre along repeated blowups",
     [("--ideal", dict(required=True)),
      ("--depth", dict(type=int, default=3))]),
    ("rep-validate", "rep", cmd_rep_validate,
     "check the comodule axioms", ()),
    ("rep-faithful", "rep", cmd_rep_faithful,
     "decide whether matrix entries generate the coordinate ring", ()),
    ("rep-blowup-identity", "rep", cmd_rep_blowup_identity,
     "double a representation across a unit-section blowup",
     [("--level", dict(type=int, default=1))]),
    ("rep-blowup-line", "rep", cmd_rep_blowup_line,
     "glue a representation across a line-stabilizer blowup",
     [_COLUMN,
      ("--e-matrix", dict(default=None, help="covering matrix over the "
                                             "blown group, e.g. \"[[a22]]\"")),
      ("--e-witness", dict(default=None, help="inverse-determinant "
                                              "witness for the covering matrix"))]),
    ("rep-rescale", "rep", cmd_rep_rescale,
     "rescale a representation through a line-stabilizer blowup", [_COLUMN]),
    ("rep-sum", None, cmd_rep_sum, "direct sum of two representations",
     [("left", {}), ("right", {})]),
    ("conormal", "group", cmd_conormal,
     "conjugation action on the conormal space of a fibre subgroup",
     [("--ideal", dict(required=True,
                       help="generators of the subgroup ideal in the fibre"))]),
    ("image", "morphism", cmd_image, "flat schematic image of a morphism", ()),
    ("diptych", "morphism", cmd_diptych,
     "image and its saturation tower", [_STEPS]),
    ("triptych", "morphism", cmd_triptych,
     "special fibres of the image, its saturation, and the mod-pi image",
     [_STEPS]),
    ("dgal-solve", "connection", cmd_dgal_solve,
     "truncated fundamental solution at the origin",
     [("--order", dict(type=int, default=3))]),
    ("dgal-trivial", "connection", cmd_dgal_trivial,
     "search for a trivializing gauge modulo pi^(level+1)",
     [("--level", dict(type=int, default=0))]),
    ("dgal-diagnose", "connection", cmd_dgal_diagnose,
     "triviality levels and the blowup depth they evidence",
     [("--levels", dict(type=int, default=3))]),
)


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser tree for every subcommand in `_COMMANDS`."""
    root = argparse.ArgumentParser(
        prog="neron",
        description="Flat group schemes over a discrete valuation ring, "
                    "presented as Hopf algebras.")
    sub = root.add_subparsers(dest="command", required=True,
                              parser_class=_Subcommand)
    for name, kind, func, text, options in _COMMANDS:
        sub.add_parser(name, help=text).row = (kind, func, options)
    return root


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one tree `main` parses with, built on its first call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    func = globals()[args.func.__name__]
    try:
        with open(args.file, encoding="utf-8") as fh:
            block = parse(fh.read())
        if args.kind is not None:
            block = block.lookup(args.kind, args.name)
        with budget(_limits(args)):
            if args.kind == "rep":
                block = _to_matrix(block)
            return _finish(args, *func(block, args))
    except (OSError, ValueError, ParseError, UndefinedName) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except NeronError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
