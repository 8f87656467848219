"""Text format round trips, error positions, and the command line."""

import argparse
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import validate

from neron import cli, dgal
from neron.cli import build_parser, main
from neron.config import ACTIVE, DEFAULT_LIMITS
from neron.errors import ParseError, UndefinedName
from neron.hopf import check_hopf
from neron.library import general_linear, special_linear, twisted_multiplicative
from neron.dgal import LINE, PUNCTURED, Connection
from neron.parser import (_MAX_NESTING, parse, parse_fraction, parse_matrix,
                          parse_poly, parse_poly_list, print_connection, print_file,
                          print_group)
from neron.ring import Poly, PolyRing, format_poly

from test_goldens import load_script
from test_ring import small_polys

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent
     / "src" / "neron" / "schema" / "report.v1.json").read_text())


# a group over which the rep blocks in the tables below are read
GROUP_X = ("group G { vars: x; relations: ; comul: x -> x'+x''; counit: x -> 0; "
           "antipode: x -> -x; }\n")


def same_group(a, b) -> bool:
    return (a.ring.variables == b.ring.variables
            and list(a.relations.generators) == list(b.relations.generators)
            and a.comul.images == b.comul.images
            and a.counit.images == b.counit.images
            and a.antipode.images == b.antipode.images)


# the terms {(x exponent, pi exponent): rational} of a connection entry over LINE
LAURENT_TERMS = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(0, 3)),
    st.fractions(min_value=-9, max_value=9, max_denominator=7), max_size=5)


@st.composite
def laurent_connections(draw):
    """Rank-1 and rank-2 punctured-line connections over LINE."""
    r = draw(st.integers(1, 2))
    return Connection(PUNCTURED, [[Poly(LINE, draw(LAURENT_TERMS)) for _ in range(r)]
                                  for _ in range(r)])


class TestParse:
    def test_groups_match_stock(self, golden):
        for (fname, gname), stock in load_script().STOCK.items():
            assert same_group(golden(fname).groups[gname], stock), gname

    def test_quoted_names_and_morphism(self, golden):
        pf = golden("gprime.grp")
        rho = pf.morphisms["rho"]
        assert rho.source.name == "Gprime"
        assert rho.target.name == "Gm"
        assert format_poly(rho.pullback.images["v"]) == "w"

    def test_rep_block(self, golden):
        pf = golden("gm-rep.grp")
        block = pf.reps["V"]
        assert [[format_poly(e) for e in row] for row in block.entries] == [["u"]]
        assert format_poly(block.witness) == "v"

    def test_connection_blocks(self, golden):
        pf = golden("exp.grp")
        c = pf.connections["exp"]
        assert c.base == "affine-line"
        assert c.rank == 1
        pf = golden("log.grp")
        assert pf.connections["log"].base == "punctured-line"
        pf = golden("nilpotent.grp")
        assert pf.connections["nilpotent"].rank == 2

    def test_fractions_and_lists(self):
        ring = PolyRing(("u", "v"))
        num, m = parse_fraction("u/pi^3", ring)
        assert format_poly(num) == "u" and m == 3
        num, m = parse_fraction("(u+1)/pi", ring)
        assert format_poly(num) == "u + 1" and m == 1
        assert [format_poly(f) for f in parse_poly_list("pi, u-1", ring)] == [
            "pi", "u - 1"]
        assert format_poly(parse_poly("1/2*u^2 - 3", ring)) == "1/2*u^2 - 3"
        rows = parse_matrix("[[u, 0], [0, v]]", ring)
        assert [[format_poly(e) for e in r] for r in rows] == [
            ["u", "0"], ["0", "v"]]
        # an expression means its value, however its fractions are written
        for text, value in [("pi/pi", "1"), ("pi*(u/pi)", "u"),
                            ("u/pi - u/pi", "0"), ("u/(1/pi)", "u*pi")]:
            assert format_poly(parse_poly(text, ring)) == value, text
        num, m = parse_fraction("pi*(u-1)/pi^3", ring)
        assert format_poly(num) == "u - 1" and m == 2
        # the line keeps its nested divisors too
        pf = parse("connection c { base: punctured-line; matrix: [[x/(1/x)]]; }")
        assert pf.connections["c"].matrix == [[LINE.monomial((2, 0))]]

    @given(f=small_polys(PolyRing(("u", "v"))), k=st.integers(0, 4))
    @settings(max_examples=60, derandomize=True)
    def test_fractions_in_lowest_terms(self, f, k):
        ring = f.ring
        num, m = parse_fraction(f"({format_poly(f)})/pi^{k}", ring)
        assert num.mul_pi(k) == f.mul_pi(m)  # num / pi^m == f / pi^k
        assert m == 0 or num.pi_valuation() == 0
        g = parse_poly(f"pi^{k}*({format_poly(f)})/pi^{k}", ring)
        assert g == f
        assert all(e >= 0 for h in (num, g) for mono in h.terms for e in mono)

    @pytest.mark.parametrize("bad,kind,message", [
        ("group G { vars: pi; }", ParseError,
         "1:1: block is missing the 'comul' key"),
        ("group G { vars: x; relations: x*w; comul: x -> x'+x''; "
         "counit: x -> 0; antipode: x -> -x; }", ParseError,
         "1:33: unknown variable 'w' here"),
        ("group G {\n  vars: x;\n  junk: 1;\n}", ParseError,
         "3:9: unknown key 'junk'"),
        ("morphism f { source: A; target: B; pullback: ; }", UndefinedName,
         "morphism 'f' references an undefined group"),
        ("group G { vars: x; relations: x/pi; comul: x -> x'+x''; "
         "counit: x -> 0; antipode: x -> -x; }", ParseError,
         "pi cannot appear in a denominator here"),
        ("connection E { base: affine-line; matrix: [[pi/x]]; }", ParseError,
         "affine-line connection entries cannot involve 1/x"),
        ("connection E { base: affine-line; rank: 2; matrix: [[0]]; }",
         ParseError, "declared rank 2 but the matrix is 1 x 1"),
        ("connection E { base: affine-line; matrix: []; }", ParseError,
         "1:1: connection matrix must have rank at least 1"),
        ("group G { vars: x; relations: ; comul: x -> x'+x''; counit: x -> 0; "
         "antipode: x -> -x; comul: x -> x'; }", ParseError,
         "duplicate key 'comul'"),
        # tokens are ASCII: any other character is rejected where it stands
        ("group G { vars: \u00e9; }", ParseError,
         "1:17: unexpected character '\u00e9'"),
        ("group G { vars: x; relations: x\u00b2; }", ParseError,
         "1:32: unexpected character '\u00b2'"),
        ("\u0663", ParseError, "1:1: unexpected character '\u0663'"),
        ("group\u00a0G { }", ParseError, "1:6: unexpected character '\\xa0'"),
        ("group G { vars: @; }", ParseError, "1:17: unexpected character '@'"),
        # the end of a text that ends in a comment is where the comment starts
        ("group G { vars: x;   # trailing comment", ParseError,
         "1:22: expected 'name', found ''"),
        # a newline escaped inside a quoted name starts a line too, so the
        # '@' on the third line is reported there
        ('group "a\\\nb" { vars: x;\n @', ParseError,
         "3:2: unexpected character '@'"),
        ('group "abc', ParseError, "1:7: unterminated string"),
        ('group "ab\nc" { }', ParseError, "1:7: unterminated string"),
        # a tab and a CR take one column each
        ("group G {\t\r@", ParseError, "1:12: unexpected character '@'"),
        # commas between list items are optional: this matrix is 2 x 2
        ("connection E { base: affine-line; rank: 3; matrix: [[0 x] [pi, 0],]; }",
         ParseError, "1:1: declared rank 3 but the matrix is 2 x 2"),
        # a rep matrix that is not square is rejected at its block, as a
        # connection matrix is
        (GROUP_X + "rep V { group: G; matrix: [[x, 0]]; }", ParseError,
         "2:1: matrix must be square"),
        (GROUP_X + "\n rep V { group: G; matrix: [[x, 0], [0]]; }", ParseError,
         "3:2: matrix must be square"),
        ("connection E { base: affine-line; matrix: [[0, x]]; }", ParseError,
         "1:1: connection matrix must be square"),
        # a connection entry is in x and pi, and divides by c*x^e alone;
        # the x exponents are checked first, which decides x/(1+pi)
        *[(f"connection E {{ base: punctured-line; matrix: [[{entry}]]; }}",
           ParseError, message) for entry, message in [
              ("y", "1:48: connection entries use only 'x' and 'pi'"),
              ("1/(x+1)", "1:49: can only divide by rationals and powers of x"),
              ("x/0", "1:49: can only divide by rationals and powers of x"),
              ("x/pi", "1:49: cannot divide by pi"),
              ("x/(1+pi)", "1:49: cannot divide by pi"),
          ]],
    ])
    def test_rejects_with_position(self, bad, kind, message):
        with pytest.raises(kind) as exc:
            parse(bad)
        assert message in str(exc.value)

    @pytest.mark.parametrize("parser, text, where", [
        (parse_poly, "u + (v/2)/pi", "1:10"),
        (parse_poly_list, "pi, (u-1)/pi^2", "1:10"),
        (parse_matrix, "[[u, 0], [1, v/pi]]", "1:15"),
        # the first `/` in the text, not the inner one evaluation reaches first
        (parse_poly, "1/(pi^2/pi)/pi^3", "1:2"),
    ], ids=lambda a: getattr(a, "__name__", None))
    def test_pi_denominator_points_at_its_division(self, parser, text, where):
        with pytest.raises(ParseError) as exc:
            parser(text, PolyRing(("u", "v")))
        assert str(exc.value) == f"{where}: pi cannot appear in a denominator here"

    def test_commas_between_items_are_optional(self):
        ring = PolyRing(("u", "v"))
        assert (parse_matrix("[[u v] [0, v],]", ring)
                == parse_matrix("[[u, v], [0, v]]", ring))
        assert parse_poly_list("pi u-1,", ring) == parse_poly_list("pi, u-1", ring)

    def test_long_sums_parse_like_short_ones(self):
        # chains far longer than the interpreter's recursion limit
        ring = PolyRing(("u", "v"))
        long = " + ".join(["1/2000*u*v/pi"] * 2000) + " - 1"
        assert parse_fraction(long, ring) == parse_fraction("u*v/pi - 1", ring)
        entry = " - ".join(["x"] + ["1/2000*pi*x^2"] * 2000)
        pf = parse(f"connection c {{ base: affine-line; matrix: [[{entry}]]; }}")
        short = parse("connection c { base: affine-line; matrix: [[x - pi*x^2]]; }")
        assert pf.connections["c"].matrix == short.connections["c"].matrix

    def test_one_legged_comul_parses_but_fails_axioms(self):
        pf = parse("group G { vars: x; relations: ; comul: x -> x'; "
                   "counit: x -> 0; antipode: x -> -x; }")
        assert not check_hopf(pf.groups["G"]).ok


class TestPrint:
    @pytest.mark.parametrize("name", [
        "gm.grp", "ga.grp", "gm-twisted-2.grp", "gprime.grp", "gm-rep.grp",
        "ga-rep.grp", "gl2.grp", "borel.grp", "gmxga.grp", "mu2-to-gm.grp",
        "exp.grp", "log.grp", "nilpotent.grp"])
    def test_round_trip(self, golden_dir, name):
        text = (golden_dir / name).read_text()
        pf = parse(text)
        printed = print_file(pf)
        again = parse(printed)
        assert again.order == pf.order
        for gname, h in pf.groups.items():
            assert same_group(again.groups[gname], h)
        for mname, m in pf.morphisms.items():
            assert again.morphisms[mname].pullback.images == m.pullback.images
        for rname, r in pf.reps.items():
            assert again.reps[rname].entries == r.entries
            assert again.reps[rname].witness == r.witness
        for cname, c in pf.connections.items():
            assert again.connections[cname].matrix == c.matrix
        # printing is a normal form: a second pass changes nothing
        assert print_file(again) == printed

    def test_print_group_quotes_odd_names(self):
        t = twisted_multiplicative(2)
        assert print_group(t).startswith('group "Gm^(2)" {')

    def test_print_linear_groups(self):
        # no golden file holds SL2 or GL3; these pin the library constructors
        assert print_group(special_linear(2)) == (
            "group SL2 {\n"
            "  vars: a11, a12, a21, a22;\n"
            "  relations: a11*a22 - a12*a21 - 1;\n"
            "  comul: a11 -> a11'*a11'' + a12'*a21'', a12 -> a11'*a12'' + a12'*a22'', "
            "a21 -> a21'*a11'' + a22'*a21'', a22 -> a21'*a12'' + a22'*a22'';\n"
            "  counit: a11 -> 1, a12 -> 0, a21 -> 0, a22 -> 1;\n"
            "  antipode: a11 -> a22, a12 -> -a12, a21 -> -a21, a22 -> a11;\n"
            "}")
        assert print_group(general_linear(3)) == (
            "group GL3 {\n"
            "  vars: a11, a12, a13, a21, a22, a23, a31, a32, a33, d;\n"
            "  relations: a11*a22*a33*d - a11*a23*a32*d - a12*a21*a33*d + a12*a23*a31*d "
            "+ a13*a21*a32*d - a13*a22*a31*d - 1;\n"
            "  comul: a11 -> a11'*a11'' + a12'*a21'' + a13'*a31'', "
            "a12 -> a11'*a12'' + a12'*a22'' + a13'*a32'', "
            "a13 -> a11'*a13'' + a12'*a23'' + a13'*a33'', "
            "a21 -> a21'*a11'' + a22'*a21'' + a23'*a31'', "
            "a22 -> a21'*a12'' + a22'*a22'' + a23'*a32'', "
            "a23 -> a21'*a13'' + a22'*a23'' + a23'*a33'', "
            "a31 -> a31'*a11'' + a32'*a21'' + a33'*a31'', "
            "a32 -> a31'*a12'' + a32'*a22'' + a33'*a32'', "
            "a33 -> a31'*a13'' + a32'*a23'' + a33'*a33'', d -> d'*d'';\n"
            "  counit: a11 -> 1, a12 -> 0, a13 -> 0, a21 -> 0, a22 -> 1, a23 -> 0, "
            "a31 -> 0, a32 -> 0, a33 -> 1, d -> 1;\n"
            "  antipode: a11 -> a22*a33*d - a23*a32*d, a12 -> -a12*a33*d + a13*a32*d, "
            "a13 -> a12*a23*d - a13*a22*d, a21 -> -a21*a33*d + a23*a31*d, "
            "a22 -> a11*a33*d - a13*a31*d, a23 -> -a11*a23*d + a13*a21*d, "
            "a31 -> a21*a32*d - a22*a31*d, a32 -> -a11*a32*d + a12*a31*d, "
            "a33 -> a11*a22*d - a12*a21*d, "
            "d -> a11*a22*a33 - a11*a23*a32 - a12*a21*a33 + a12*a23*a31 "
            "+ a13*a21*a32 - a13*a22*a31;\n"
            "}")

    @given(f=small_polys(PolyRing(("u", "v"))))
    @settings(max_examples=60, derandomize=True)
    def test_poly_text_round_trip(self, f):
        assert parse_poly(format_poly(f), f.ring) == f

    @given(c=laurent_connections())
    @settings(max_examples=60, derandomize=True)
    def test_laurent_text_round_trip(self, c):
        back = parse(print_connection("C", c)).connections["C"]
        assert back.matrix == c.matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCliExitCodes:
    def test_verified_checks(self, capsys, golden_dir):
        for args in (["check-hopf", "gm.grp"],
                     ["check-flat", "ga.grp"],
                     ["check-morphism", "gprime.grp"],
                     ["fibre", "gm.grp"],
                     ["auto-trunc", "gm.grp", "--level", "2"],
                     ["auto-member", "ga.grp", "--element", "x/pi^5"],
                     ["check-constancy", "gm.grp", "--ideal", "u-1, v-1",
                      "--depth", "3"],
                     ["rep-validate", "gm-rep.grp"],
                     ["rep-faithful", "gm-rep.grp"],
                     ["image", "gprime.grp"],
                     ["diptych", "gprime.grp"],
                     ["dgal-solve", "exp.grp", "--order", "3"],
                     ["dgal-trivial", "exp.grp", "--level", "3"]):
            args = args[:1] + [str(golden_dir / args[1])] + args[2:]
            code, out, _ = run(capsys, *args)
            assert code == 0, (args, out)

    def test_refuted_checks_exit_one(self, capsys, golden_dir):
        for args in (["reduce-mod", "gm.grp", "--modulus", "0"],
                     ["auto-member", "ga.grp", "--element", "(x+1)/pi"],
                     ["dgal-trivial", "log.grp", "--level", "1"]):
            args = args[:1] + [str(golden_dir / args[1])] + args[2:]
            code, out, _ = run(capsys, *args)
            assert code == 1, (args, out)

    def test_rank_zero_connection_exits_two(self, capsys, tmp_path):
        path = tmp_path / "rank0.grp"
        path.write_text("connection c { base: affine-line; matrix: []; }\n")
        for args in (["dgal-trivial", "--level", "1"],
                     ["dgal-diagnose", "--levels", "1"],
                     ["dgal-solve", "--order", "2"]):
            code, out, err = run(capsys, args[0], str(path), *args[1:])
            assert code == 2, args
            assert out == ""
            assert err.startswith("error:") and "rank at least 1" in err
            assert "Traceback" not in err

    def test_non_square_matrix_exits_two(self, capsys, golden_dir, tmp_path):
        path = tmp_path / "non-square.grp"
        path.write_text(GROUP_X + "rep V {\n  group: G;\n  matrix: [[x, x]];\n}\n")
        code, out, err = run(capsys, "rep-validate", str(path))
        assert (code, out) == (2, "")
        assert err == "error: 2:1: matrix must be square\n"
        code, out, err = run(capsys, "rep-blowup-line", str(golden_dir / "borel.grp"),
                             "--column", "2", "--e-matrix", " [[a22, a22]]")
        assert (code, out) == (2, "")
        assert err == "error: 1:2: matrix must be square\n"

    def test_rank_zero_covering_matrix_exits_two(self, capsys, golden_dir):
        code, out, err = run(capsys, "rep-blowup-line", str(golden_dir / "borel.grp"),
                             "--column", "1", "--e-matrix", "[]")
        assert (code, out) == (2, "")
        assert err == "error: covering matrix must have rank at least 1\n"

    def test_covering_witness_needs_its_matrix(self, capsys, golden_dir):
        code, out, err = run(capsys, "rep-blowup-line", str(golden_dir / "borel.grp"),
                             "--column", "2", "--e-witness", "a11*e")
        assert (code, out, err) == (2, "", "error: --e-witness needs --e-matrix\n")

    def test_empty_covering_texts_are_parsed(self, capsys, golden_dir):
        # an empty --e-matrix is a matrix text that fails to parse, not an
        # absent one, with or without a witness; so is an empty --e-witness
        argv = ("rep-blowup-line", str(golden_dir / "borel.grp"), "--column", "2")
        for extra, where in ((("--e-matrix", ""), "1:1: expected '['"),
                             (("--e-matrix", "", "--e-witness", "a11*e"),
                              "1:1: expected '['"),
                             (("--e-matrix", "[[a22]]", "--e-witness", ""),
                              "1:1: expected a value")):
            code, out, err = run(capsys, *argv, *extra)
            assert (code, out) == (2, ""), extra
            assert err.startswith(f"error: {where}"), (extra, err)

    def test_covering_witness_given_matches_the_search(self, capsys, golden_dir):
        # a11*e is the witness RepMatrix finds for [[a22]] over the blowup
        argv = ("rep-blowup-line", str(golden_dir / "borel.grp"), "--column", "2",
                "--e-matrix", "[[a22]]")
        searched = run(capsys, *argv)
        given = run(capsys, *argv, "--e-witness", "a11*e")
        assert searched[0] == 0
        assert given == searched

    def test_punctured_line_has_no_formal_solution(self, capsys, golden_dir):
        # no check is refuted: the request itself has no answer
        code, out, err = run(capsys, "dgal-solve", str(golden_dir / "log.grp"))
        assert (code, out) == (2, "")
        assert err.startswith("error: formal solutions are taken at the origin")

    def test_non_ascii_character_exits_two(self, capsys, golden_dir, tmp_path):
        path = tmp_path / "non-ascii.grp"
        path.write_text("group G {\n  vars: \u00e9;\n}\n", encoding="utf-8")
        code, out, err = run(capsys, "check-flat", str(path))
        assert (code, out) == (2, "")
        assert err == "error: 2:9: unexpected character '\u00e9'\n"
        code, out, err = run(capsys, "blowup", str(golden_dir / "gm.grp"),
                             "--centre", "pi, \u00e9")
        assert (code, out) == (2, "")
        assert err == "error: 1:5: unexpected character '\u00e9'\n"

    def test_pi_denominator_error_names_its_line(self, capsys, golden_dir, tmp_path):
        path = tmp_path / "pi-denominator.grp"
        path.write_text("# x/pi is not a polynomial\ngroup G {\n  vars: x;\n"
                        "  comul: x -> x'+x'';\n  relations: x/pi;\n"
                        "  counit: x -> 0;\n  antipode: x -> -x;\n}\n")
        code, out, err = run(capsys, "check-hopf", str(path))
        assert (code, out) == (2, "")
        assert err == "error: 5:15: pi cannot appear in a denominator here\n"
        code, out, err = run(capsys, "blowup", str(golden_dir / "gm.grp"),
                             "--centre", "pi, (u-1)/pi")
        assert (code, out) == (2, "")
        assert err == "error: 1:10: pi cannot appear in a denominator here\n"

    def test_long_relation_checks_flat(self, capsys, golden_dir, tmp_path):
        # u*v - 1 written as 5,000 equal parts
        parts = " + ".join(["1/5000*u*v"] * 5000)
        path = tmp_path / "long.grp"
        path.write_text((golden_dir / "gm.grp").read_text()
                        .replace("relations: u*v - 1;", f"relations: {parts} - 1;"))
        code, out, err = run(capsys, "check-flat", str(path))
        assert (code, err) == (0, "")
        assert "PASS" in out

    @pytest.mark.parametrize("nest", ["(" * 300 + "u" + ")" * 300,
                                      "-" * 3000 + "u"],
                             ids=["parentheses", "signs"])
    @pytest.mark.parametrize("where", ["relation", "centre"])
    def test_deep_nesting_exits_two(self, capsys, golden_dir, tmp_path, nest, where):
        path = golden_dir / "gm.grp"
        if where == "relation":
            # "  relations: " takes columns 1-13 of line 4
            path = tmp_path / "deep.grp"
            path.write_text((golden_dir / "gm.grp").read_text()
                            .replace("relations: u*v - 1;", f"relations: {nest};"))
            code, out, err = run(capsys, "check-flat", str(path))
            at = f"4:{14 + _MAX_NESTING}"
        else:
            code, out, err = run(capsys, "blowup", str(path), "--centre", f"pi, {nest}")
            at = f"1:{5 + _MAX_NESTING}"
        assert (code, out) == (2, "")
        assert err == f"error: {at}: expression nested deeper than {_MAX_NESTING} levels\n"

    def test_mathematical_failure_exits_one(self, capsys, golden_dir):
        code, _, err = run(capsys, "blowup", str(golden_dir / "gm.grp"),
                           "--centre", "pi, u")
        assert code == 1
        assert err.startswith("failure:")

    def test_usage_errors_exit_two(self, capsys, golden_dir):
        code, _, err = run(capsys, "check-hopf", str(golden_dir / "missing.grp"))
        assert code == 2
        assert err.startswith("error:")
        code, _, err = run(capsys, "blowup", str(golden_dir / "gm.grp"),
                           "--centre", "pi, q-1")
        assert code == 2

    @pytest.mark.parametrize("args", [
        ("dgal-solve", "exp.grp", "--order", "-5"),
        ("dgal-diagnose", "exp.grp", "--levels", "-1"),
        ("dgal-trivial", "exp.grp", "--level", "1", "--degree-bound", "-2"),
        ("check-hopf", "gm.grp", "--max-pairs", "-1"),
        ("blowup", "gm.grp", "--centre", "pi, u-1", "--degree-bound", "-1"),
        ("reduce-mod", "gm.grp", "--modulus", "-2"),
    ], ids=lambda a: a[0])
    def test_negative_counts_exit_two(self, capsys, golden_dir, args):
        code, out, err = run(capsys, args[0], str(golden_dir / args[1]), *args[2:])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "must be nonnegative" in err
        option = args[-2].lstrip("-")
        assert option in err or "resource budgets" in err

    @pytest.mark.parametrize("command", ["rep-rescale", "rep-blowup-line"])
    @pytest.mark.parametrize("column", ["0", "-1", "5"])
    def test_out_of_range_column_exits_two(self, capsys, golden_dir, command, column):
        code, out, err = run(capsys, command, str(golden_dir / "borel.grp"),
                             "--column", column)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and f"no column {column}" in err

    def test_zero_pair_budget_is_honoured(self, capsys, golden_dir):
        code, _, err = run(capsys, "blowup", str(golden_dir / "gl2.grp"),
                           "--centre", "pi, a12, a21, a11-1, a22-1",
                           "--max-pairs", "0")
        assert code == 3
        assert err.startswith("resource limit:")

    def test_tensor_ideal_walk_honours_the_pair_budget(self, capsys, golden_dir):
        # mu2's relation basis, which the doubled ideal is built from, reduces 4 pairs.
        path = str(golden_dir / "mu2-to-gm.grp")
        code, _, err = run(capsys, "check-morphism", path, "--max-pairs", "3")
        assert code == 3
        assert err == "resource limit: pair budget 3 exhausted\n"
        code, out, _ = run(capsys, "check-morphism", path, "--max-pairs", "4")
        assert code == 0
        assert out.startswith("morphism incl: mu2 -> Gm: PASS")

    def test_a_run_leaves_no_budget_behind(self, capsys, golden_dir):
        # `main` sets the flags' budget for one call only: after a run
        # stopped by --max-pairs 3, runs with no flag get the default, and
        # the morphism check that needs 4 pairs passes.
        path = str(golden_dir / "mu2-to-gm.grp")
        code, _, _ = run(capsys, "check-morphism", path, "--max-pairs", "3")
        assert code == 3
        assert ACTIVE.get() is DEFAULT_LIMITS
        code, _, _ = run(capsys, "check-hopf", str(golden_dir / "gm.grp"))
        assert code == 0
        code, _, _ = run(capsys, "check-morphism", path)
        assert code == 0

    def test_witness_search_honours_the_pair_budget(self, capsys, golden_dir, tmp_path):
        # Without its witness line, the determinant's inverse is found by a
        # tracked walk over (u*v - 1, u), which reduces pairs.
        text = (golden_dir / "gm-rep.grp").read_text(encoding="utf-8")
        path = tmp_path / "gm-rep.grp"
        path.write_text("".join(line for line in text.splitlines(True)
                                if "witness:" not in line), encoding="utf-8")
        code, out, err = run(capsys, "rep-validate", str(path), "--max-pairs", "0")
        assert (code, out) == (3, "")
        assert err == "resource limit: pair budget 0 exhausted\n"
        code, out, _ = run(capsys, "rep-validate", str(path))
        assert code == 0
        assert "PASS" in out

    def test_resource_limit_exits_three(self, capsys, golden_dir):
        code, _, err = run(capsys, "blowup", str(golden_dir / "gl2.grp"),
                           "--centre", "pi, a12, a21, a11-1, a22-1",
                           "--max-pairs", "1")
        assert code == 3
        assert err.startswith("resource limit:")

    def test_broken_gauge_fails_its_replay(self, capsys, golden_dir, monkeypatch):
        lifts = dgal._lifts

        def off_by_pi(*args):  # adds pi*x to entry (1,1) of each lifted gauge
            gauges = lifts(*args)
            for gauge in gauges.values():
                if gauge is not None:
                    gauge[0][0] = gauge[0][0] + dgal.LINE.var(dgal.X) * dgal.LINE.pi()
            return gauges

        monkeypatch.setattr(dgal, "_lifts", off_by_pi)
        for args in (["dgal-trivial", "--level", "2"],
                     ["dgal-diagnose", "--levels", "2"]):
            code, out, err = run(capsys, args[0], str(golden_dir / "exp.grp"),
                                 *args[1:])
            assert (code, out) == (1, ""), args
            assert err == "failure: gauge replay failed\n"

    def test_diagnose_completes_despite_obstruction(self, capsys, golden_dir):
        code, out, _ = run(capsys, "dgal-diagnose", str(golden_dir / "log.grp"),
                           "--levels", "2")
        assert code == 0
        assert "entry (1,1), coefficient of x^-1*pi^1" in out
        assert "trivial exactly below level 1" in out


class TestCliParser:
    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        # main's shared parser starts unbuilt, whatever ran before
        cli._parser.cache_clear()

    @staticmethod
    def count_parsers(monkeypatch) -> list:
        """The prog of every ArgumentParser built from here on."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return built

    def test_a_call_builds_only_the_parser_it_names(self, monkeypatch):
        built = self.count_parsers(monkeypatch)
        parser = build_parser()
        for _ in range(2):
            args = parser.parse_args(["check-hopf", "golden/gm.grp"])
        assert built == ["neron", "neron check-hopf"]
        assert (args.command, args.kind, args.format) == ("check-hopf", "group", "text")

    def test_main_builds_each_parser_once(self, monkeypatch, capsys, golden_dir):
        built = self.count_parsers(monkeypatch)
        gm = str(golden_dir / "gm.grp")
        for argv in (["check-hopf", gm], ["fibre", gm],
                     ["check-hopf", gm, "--format", "json"], ["fibre", gm]):
            assert main(argv) == 0
        assert built == ["neron", "neron check-hopf", "neron fibre"]

    def test_a_patched_handler_is_the_one_called(self, monkeypatch, capsys,
                                                 golden_dir):
        gm = str(golden_dir / "gm.grp")
        first = run(capsys, "check-hopf", gm)
        handler, seen = cli.cmd_check_hopf, []

        def patched(block, args):
            seen.append(block.name)
            return handler(block, args)

        monkeypatch.setattr(cli, "cmd_check_hopf", patched)
        assert run(capsys, "check-hopf", gm) == first
        assert seen == ["Gm"]

    def test_a_usage_error_leaves_the_parser_as_it_was(self, capsys, golden_dir):
        gm = str(golden_dir / "gm.grp")
        first = run(capsys, "check-hopf", gm)
        with pytest.raises(SystemExit) as exc:
            main(["check-hopf", gm, "--format", "xml"])
        assert exc.value.code == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err
        assert run(capsys, "check-hopf", gm) == first


class TestCliOutput:
    def test_identity_blowup_matrix(self, capsys, golden_dir):
        code, out, _ = run(capsys, "rep-blowup-identity",
                           str(golden_dir / "gm-rep.grp"), "--level", "1")
        assert code == 0
        assert "[xi1*pi + 1, xi1]" in out
        assert "[0, 1]" in out

    def test_triptych_names_all_three(self, capsys, golden_dir):
        code, out, _ = run(capsys, "triptych", str(golden_dir / "gprime.grp"))
        assert code == 0
        assert "Im(rho)[1]_k" in out
        assert "Im(rho_k)" in out
        assert "Im(rho)_k" in out

    def test_standard_sequence_prints_its_stage_centres(self, capsys, golden_dir):
        # each centre is a contraction, printed with the generators that
        # `contract` leaves, so this pins the order that walk runs in
        code, out, _ = run(capsys, "standard-seq", str(golden_dir / "gprime.grp"),
                           "--depth", "4")
        assert code == 0
        assert out == (
            "stage 1: Gm[1]\n"
            "  centre: pi, v - 1, u - 1\n"
            "stage 2: Gm[2]\n"
            "  centre: pi, xi1 + xi2\n"
            "stage 3: Gm[3]\n"
            "  centre: pi, xi2^2 - xi3\n"
            "stage 4: Gm[4]\n"
            "  centre: pi, -xi2*xi4 + xi3^2, xi2*xi3 - xi4, xi2^2 - xi3\n"
            "lifted morphism: rho[4]\n")

    def test_witness_printed_on_refutation(self, capsys, golden_dir):
        code, out, _ = run(capsys, "reduce-mod", str(golden_dir / "gm.grp"),
                           "--modulus", "0")
        assert code == 1
        assert "FAIL" in out


class TestCliJson:
    @pytest.mark.parametrize("args", [
        ("check-hopf", "gm.grp"),
        ("blowup", "gm.grp", "--centre", "pi, u-1"),
        ("triptych", "gprime.grp"),
        ("dgal-diagnose", "log.grp", "--levels", "1"),
        ("auto-member", "ga.grp", "--element", "x/pi^2"),
        ("rep-validate", "gm-rep.grp"),
    ], ids=lambda a: a[0])
    def test_envelope_matches_schema(self, capsys, golden_dir, args):
        argv = [args[0], str(golden_dir / args[1]), *args[2:], "--format", "json"]
        code, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        validate(payload, SCHEMA)
        assert payload["schema_version"] == 1
        assert payload["command"] == args[0]
        assert payload["ok"] == (code == 0)

    def test_byte_determinism(self, capsys, golden_dir):
        argv = ["triptych", str(golden_dir / "gprime.grp"), "--format", "json"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
