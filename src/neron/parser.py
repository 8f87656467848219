"""Text format for group presentations, morphisms, matrices and connections.

A file is a sequence of named blocks:

    group Gm {
      vars: u, v;
      relations: u*v - 1;
      comul: u -> u'*u'', v -> v'*v'';
      counit: u -> 1, v -> 1;
      antipode: u -> v, v -> u;
    }
    morphism rho { source: G2; target: Gm; pullback: u -> u, v -> v; }
    rep V { group: Gm; matrix: [[u]]; witness: v; }
    connection C { base: punctured-line; rank: 1; matrix: [[pi/x]]; }

Whitespace and newlines are free; `#` starts a comment; `pi` is reserved;
primed names appear only in comultiplication images.  Printing a parsed
file and parsing it back reproduces the same objects.

Text is read by two pieces.  One compiled token pattern (`_TOKEN`) splits
it into tokens; its character classes are all ASCII, so any other
character outside a quoted name is an `unexpected character` error at its
line:column.  One list reader (`_Parser.items`, and `_Parser.bracketed`
for square brackets) reads every list, with optional commas between items.

An expression means its value.  One evaluator (`_Parser.value`) reads it
in a group ring, where a divisor is c*pi^e, and on `dgal.LINE`, where it
is c*x^e; e may be negative, so `pi/pi` is 1 and `u/(1/pi)` is u*pi.
Inside the parser a value may carry a negative exponent in that slot,
but no negative pi exponent leaves it: `plain_poly` rejects a value with
pi in its denominator, and `parse_fraction` returns one in lowest terms.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .dgal import AFFINE, LINE, PUNCTURED, X, Connection, format_laurent
from .errors import ParseError, UndefinedName
from .groebner import Ideal
from .hopf import PRIME1, PRIME2, SCALARS, GroupMorphism, HopfPresentation, tensor_ring
from .ring import PI, Poly, PolyRing, Substitution, format_poly, quotient, rational

KEYWORDS = ("group", "morphism", "rep", "connection")
PLAIN_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Deepest nesting of parentheses and unary signs an expression may use.
# Parsing and evaluation take a few stack frames per level, so this bounds
# their stack; a chain of binary operators adds no level, however long.
_MAX_NESTING = 100


Token = namedtuple("Token", "kind text line column")


# One match is optional blanks and then one token; the alternatives are
# tried in order, and every character class is ASCII.  A character that no
# other alternative takes falls into `other`.
_TOKEN = re.compile(r"""[ \t\r]*(?:
    (?P<name>[A-Za-z_][A-Za-z0-9_]*'*)
  | (?P<arrow>->)
  | (?P<punct>[{}()\[\],;:+\-*/^])
  | (?P<newline>\n)
  | (?P<number>[0-9]+)
  | (?P<comment>\#[^\n]*)
  | (?P<string>"(?:[^"\\\n]|\\[\s\S])*")
  | (?P<other>[^ \t\r])
)""", re.VERBOSE)
_ESCAPE = re.compile(r"\\([\s\S])")


def _tokenize(text: str):
    """Tokens with their line and column.  A column counts characters from
    the last newline, so a tab and a CR each take one; a newline escaped
    inside a string starts a line as well."""
    tokens = []
    line, start = 1, 0  # start: offset of the current line's first character
    m = None
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        at = m.start(kind)
        if kind == "newline":
            line, start = line + 1, at + 1
        elif kind == "other":
            c = text[at]
            message = "unterminated string" if c == '"' else f"unexpected character {c!r}"
            raise ParseError(message, line, at - start + 1)
        elif kind != "comment":
            word = value = m.group(kind)
            if kind == "punct":
                kind = word
            elif kind == "string":
                value = _ESCAPE.sub(r"\1", word[1:-1])
            tokens.append(Token(kind, value, line, at - start + 1))
            if kind == "string" and "\n" in word:  # newlines escaped inside it
                line, start = line + word.count("\n"), at + word.rindex("\n") + 1
    # a trailing comment leaves the end of the text at the comment's start
    end = m.start("comment") if m is not None and m.lastgroup == "comment" else len(text)
    tokens.append(Token("eof", "", line, end - start + 1))
    return tokens


RepBlock = namedtuple("RepBlock", "name group entries witness", defaults=(None,))
RepBlock.__doc__ = "A comodule matrix as written, before any witness search runs."


class PresentationFile:
    __slots__ = ("groups", "morphisms", "reps", "connections", "order")

    def __init__(self):
        self.groups = {}
        self.morphisms = {}
        self.reps = {}
        self.connections = {}
        self.order = []

    def sole(self, kind: str):
        table = getattr(self, kind + "s")
        if len(table) != 1:
            raise UndefinedName(
                f"file defines {len(table)} {kind} blocks; name one explicitly")
        return next(iter(table.values()))

    def lookup(self, kind: str, name: str):
        table = getattr(self, kind + "s")
        if name is None:
            return self.sole(kind)
        if name not in table:
            raise UndefinedName(f"no {kind} block named {name!r}")
        return table[name]


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.blame = None  # see `plain_poly`

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, tok: Token, message: str):
        raise ParseError(message, tok.line, tok.column)

    def expect(self, kind: str) -> Token:
        t = self.next()
        if t.kind != kind:
            self.fail(t, f"expected {kind!r}, found {t.text!r}")
        return t

    def square(self, rows: list, at: Token) -> list:
        """`rows` itself when there are as many entries in each row as there
        are rows; otherwise an error at `at`, the token opening the matrix."""
        if any(len(row) != len(rows) for row in rows):
            self.fail(at, "matrix must be square")
        return rows

    def nest(self, tok: Token):
        """Enter one level of parentheses or unary sign, opened at `tok`."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            self.fail(tok, f"expression nested deeper than {_MAX_NESTING} levels")

    def items(self, end: str, item) -> list:
        """Read `item` until the `end` token, each optionally followed by a
        comma; the `end` token is left for the caller."""
        out = []
        while self.peek().kind != end:
            out.append(item())
            if self.peek().kind == ",":
                self.next()
        return out

    def bracketed(self, item) -> list:
        """A list of `item` in square brackets."""
        self.expect("[")
        out = self.items("]", item)
        self.expect("]")
        return out

    def block_name(self) -> str:
        t = self.next()
        if t.kind not in ("name", "string"):
            self.fail(t, f"expected a block name, found {t.text!r}")
        if t.kind == "name" and "'" in t.text:
            self.fail(t, "block names cannot carry primes")
        return t.text

    # expression nodes: ("num", q), ("name", text, token), and
    # ("add"|"sub"|"mul"|"div"|"pow"|"neg", ...)

    def expression(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            rhs = self.term()
            node = ("add" if op.kind == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.next()
            rhs = self.factor()
            node = ("mul" if op.kind == "*" else "div", node, rhs, op)
        return node

    def factor(self):
        t = self.peek()
        if t.kind in ("+", "-"):
            self.next()
            self.nest(t)
            inner = self.factor()
            self.depth -= 1
            return inner if t.kind == "+" else ("neg", inner)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind == "^":
            caret = self.next()
            e = self.expect("number")
            return ("pow", base, int(e.text), caret)
        return base

    def atom(self):
        t = self.next()
        if t.kind == "number":
            return ("num", int(t.text))
        if t.kind == "name":
            return ("name", t.text, t)
        if t.kind == "(":
            self.nest(t)
            node = self.expression()
            self.expect(")")
            self.depth -= 1
            return node
        self.fail(t, f"expected a value, found {t.text!r}")

    def value(self, node, ring: PolyRing) -> Poly:
        """The value of an expression over `ring`, in one walk of `_spine`;
        the exponent of its divisible variable (pi, or x on `LINE`) may be
        negative."""
        node, spine = _spine(node)
        kind = node[0]
        if kind == "num":
            f = ring.scalar(node[1])
        elif kind == "name":
            text, tok = node[1], node[2]
            if text == PI:
                f = ring.pi()
            elif text in ring.variables:
                f = ring.var(text)
            elif ring is LINE:
                self.fail(tok, f"connection entries use only {X!r} and 'pi'")
            else:
                self.fail(tok, f"unknown variable {text!r} here")
        elif kind == "neg":
            f = -self.value(node[1], ring)
        else:  # pow
            f = self.value(node[1], ring) ** node[2]
        terms = None  # a running sum's terms while the spine adds
        for node in spine:
            kind = node[0]
            b = self.value(node[2], ring)
            if kind in ("add", "sub"):
                if terms is None:
                    terms = dict(f.terms)
                for mono, c in b.terms.items():
                    if kind == "sub":
                        c = -c
                    terms[mono] = terms[mono] + c if mono in terms else c
                continue
            if terms is not None:
                f, terms = Poly(ring, terms), None
            f = f * b if kind == "mul" else self.divide(f, b, node[3])
        if terms is not None:
            f = Poly(ring, terms)
        return f

    def divide(self, f: Poly, b: Poly, op: Token) -> Poly:
        """f / b, where b must be one term c*v^e in the divisible variable
        v, e of any sign; the division shifts exponents.  On the line the
        exponents of x are checked first, which decides x/(1+pi)."""
        ring = f.ring
        line = ring is LINE
        v = 0 if line else ring.nvars  # the divisible slot
        bad = "can only divide by rationals or powers of pi"
        if len({mono[v] for mono in b.terms}) != 1:
            self.fail(op, "can only divide by rationals and powers of x" if line else bad)
        (mono, c), *rest = b.terms.items()
        if rest or any(mono[:v] + mono[v + 1:]):
            self.fail(op, "cannot divide by pi" if line else bad)
        e, q = mono[v], quotient(1, c)
        blame = self.blame
        if e > 0 and (blame is None or (op.line, op.column) < (blame.line, blame.column)):
            self.blame = op
        return Poly(ring, {m[:v] + (m[v] - e,) + m[v + 1:]: rational(a * q)
                           for m, a in f.terms.items()})

    def plain_poly(self, node, ring: PolyRing) -> Poly:
        """A polynomial whose value has no pi in a denominator; the error
        points at the first `/` in the text whose divisor carries pi, which
        `divide` keeps by position, since it meets inner divisors first."""
        self.blame = None
        f = self.value(node, ring)
        if f.pi_valuation() < 0:
            self.fail(self.blame, "pi cannot appear in a denominator here")
        return f


_CHAINS = ("add", "sub", "mul", "div")


def _spine(node):
    """The leaf at the bottom of a chain of binary nodes, and the chain's
    nodes from the bottom up.  The parser builds `a + b - c` and `a * b / c`
    left-deep, so walking this spine with a loop keeps the stack flat
    however long the chain is."""
    spine = []
    while node[0] in _CHAINS:
        spine.append(node)
        node = node[1]
    spine.reverse()
    return node, spine


class _FileParser(_Parser):
    def __init__(self, text: str):
        super().__init__(text)
        self.file = PresentationFile()

    def parse(self) -> PresentationFile:
        while self.peek().kind != "eof":
            t = self.next()
            if t.kind != "name" or t.text not in KEYWORDS:
                self.fail(t, "expected 'group', 'morphism', 'rep' or 'connection'")
            name = self.block_name()
            entries = self.block_entries(t)
            obj = getattr(self, "build_" + t.text)(name, entries, t)
            getattr(self.file, t.text + "s")[name] = obj
            self.file.order.append((t.text, name))
        return self.file

    def block_entries(self, opener: Token):
        self.expect("{")
        entries = {}
        while self.peek().kind != "}":
            key = self.expect("name")
            if key.text in entries:
                self.fail(key, f"duplicate key {key.text!r}")
            self.expect(":")
            entries[key.text] = (key, self.raw_value(key.text))
            self.expect(";")
        self.expect("}")
        return entries

    def raw_value(self, key: str):
        """Collect the value for a key, shape depending on the key."""
        if key in ("vars",):
            return self.items(";", lambda: self.expect("name"))
        if key in ("relations",):
            return self.items(";", self.expression)
        if key in ("comul", "counit", "antipode", "pullback"):
            return self.items(";", self.mapping)
        if key in ("matrix",):
            return self.bracketed(lambda: self.bracketed(self.expression))
        if key in ("source", "target", "group"):
            return self.block_name()
        if key in ("witness",):
            return self.expression()
        if key in ("base",):
            return self.dashed_name()
        if key in ("rank",):
            return int(self.expect("number").text)
        tok = self.peek()
        self.fail(tok, f"unknown key {key!r}")

    def mapping(self):
        key = self.expect("name")
        self.expect("arrow")
        return key, self.expression()

    def dashed_name(self):
        parts = [self.expect("name").text]
        while self.peek().kind == "-":
            self.next()
            parts.append(self.expect("name").text)
        return "-".join(parts)

    def take(self, entries, key, opener: Token, required: bool = True):
        if key not in entries:
            if required:
                self.fail(opener, f"block is missing the {key!r} key")
            return None
        return entries.pop(key)[1]

    def reject_extras(self, entries, kind: str):
        for key, (tok, _) in entries.items():
            self.fail(tok, f"{kind} blocks do not take a {key!r} key")

    def images_for(self, pairs, variables, ring, what: str):
        images = {}
        for key, node in pairs:
            v = key.text
            if v not in variables:
                self.fail(key, f"{what} names unknown variable {v!r}")
            if v in images:
                self.fail(key, f"{what} repeats variable {v!r}")
            images[v] = self.plain_poly(node, ring)
        for v in variables:
            if v not in images:
                raise UndefinedName(f"{what} is missing an image for {v!r}")
        return images

    def build_group(self, name, entries, opener) -> HopfPresentation:
        var_tokens = self.take(entries, "vars", opener)
        relations = self.take(entries, "relations", opener, required=False) or []
        comul = self.take(entries, "comul", opener)
        counit = self.take(entries, "counit", opener)
        antipode = self.take(entries, "antipode", opener)
        self.reject_extras(entries, "group")
        names = []
        for t in var_tokens:
            if t.text == "pi":
                self.fail(t, "'pi' is reserved for the uniformiser")
            if "'" in t.text:
                self.fail(t, "primed names are reserved for comultiplication")
            if t.text in names:
                self.fail(t, f"duplicate variable {t.text!r}")
            names.append(t.text)
        ring = PolyRing(tuple(names))
        ring2 = tensor_ring(ring, (PRIME1, PRIME2))
        rel_ideal = Ideal(ring, [self.plain_poly(r, ring) for r in relations])
        return HopfPresentation.from_images(
            name, ring, rel_ideal,
            self.images_for(comul, names, ring2, "comul"),
            self.images_for(counit, names, SCALARS, "counit"),
            self.images_for(antipode, names, ring, "antipode"))

    def build_morphism(self, name, entries, opener) -> GroupMorphism:
        source = self.file.groups.get(self.take(entries, "source", opener))
        target_name = self.take(entries, "target", opener)
        target = self.file.groups.get(target_name)
        pull = self.take(entries, "pullback", opener)
        self.reject_extras(entries, "morphism")
        if source is None or target is None:
            raise UndefinedName(f"morphism {name!r} references an undefined group")
        images = self.images_for(pull, target.ring.variables, source.ring, "pullback")
        return GroupMorphism(name, source, target,
                             Substitution(target.ring, source.ring, images))

    def build_rep(self, name, entries, opener) -> RepBlock:
        group_name = self.take(entries, "group", opener)
        matrix = self.take(entries, "matrix", opener)
        witness = self.take(entries, "witness", opener, required=False)
        self.reject_extras(entries, "rep")
        group = self.file.groups.get(group_name)
        if group is None:
            raise UndefinedName(f"rep {name!r} references an undefined group")
        rows = [[self.plain_poly(e, group.ring) for e in row]
                for row in self.square(matrix, opener)]
        wit = self.plain_poly(witness, group.ring) if witness else None
        return RepBlock(name, group, rows, wit)

    def build_connection(self, name, entries, opener) -> Connection:
        base = self.take(entries, "base", opener)
        rank = self.take(entries, "rank", opener, required=False)
        matrix = self.take(entries, "matrix", opener)
        self.reject_extras(entries, "connection")
        if base not in (AFFINE, PUNCTURED):
            self.fail(opener, f"base must be {AFFINE!r} or {PUNCTURED!r}")
        rows = [[self.value(e, LINE) for e in row] for row in matrix]
        try:
            conn = Connection(base, rows)
        except Exception as exc:
            self.fail(opener, str(exc))
        if rank is not None and rank != conn.rank:
            self.fail(opener, f"declared rank {rank} but the matrix is "
                      f"{conn.rank} x {conn.rank}")
        return conn


def parse(text: str) -> PresentationFile:
    return _FileParser(text).parse()


def parse_poly(text: str, ring: PolyRing) -> Poly:
    """One polynomial over the given ring; a value with pi in its
    denominator is rejected, so `pi/pi` is 1 and `u/pi` an error."""
    p = _Parser(text)
    node = p.expression()
    p.expect("eof")
    return p.plain_poly(node, ring)


def parse_fraction(text: str, ring: PolyRing):
    """An element of the generic fibre as (numerator, power), standing for
    numerator / pi^power in lowest terms: the power is 0 or the numerator
    is not divisible by pi, so `pi*u/pi^2` gives (u, 1)."""
    p = _Parser(text)
    node = p.expression()
    p.expect("eof")
    f = p.value(node, ring)
    power = max(0, -f.pi_valuation())  # 0 for f = 0, of valuation infinity
    return f.mul_pi(power), power


def parse_poly_list(text: str, ring: PolyRing):
    p = _Parser(text)
    return p.items("eof", lambda: p.plain_poly(p.expression(), ring))


def parse_matrix(text: str, ring: PolyRing):
    """A bracketed matrix [[...], ...] of polynomials over the given ring."""
    p = _Parser(text)
    start = p.peek()
    rows = p.bracketed(lambda: p.bracketed(p.expression))
    p.expect("eof")
    return [[p.plain_poly(e, ring) for e in row] for row in p.square(rows, start)]


def _name_text(name: str) -> str:
    if PLAIN_NAME.fullmatch(name) and name not in KEYWORDS:
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def print_laurent(f: Poly) -> str:
    """Render with at most one division, so the result parses back."""
    if not f.terms:
        return "0"
    low = min(e for e, _ in f.terms)
    if low >= 0:
        return format_laurent(f)
    num = format_laurent(Poly(LINE, {(e - low, p): c for (e, p), c in f.terms.items()}))
    if any(e != low for e, _ in f.terms):
        num = f"({num})"
    den = X if low == -1 else f"{X}^{-low}"
    return f"{num}/{den}"


def print_group(h: HopfPresentation) -> str:
    lines = [f"group {_name_text(h.name)} {{"]
    lines.append("  vars: " + ", ".join(h.ring.variables) + ";")
    rels = ", ".join(format_poly(g) for g in h.relations.generators)
    lines.append(f"  relations: {rels};")
    for label, sub in (("comul", h.comul), ("counit", h.counit),
                       ("antipode", h.antipode)):
        body = ", ".join(f"{v} -> {format_poly(sub.images[v])}"
                         for v in h.ring.variables)
        lines.append(f"  {label}: {body};")
    lines.append("}")
    return "\n".join(lines)


def print_morphism(m: GroupMorphism) -> str:
    lines = [f"morphism {_name_text(m.name)} {{"]
    lines.append(f"  source: {_name_text(m.source.name)};")
    lines.append(f"  target: {_name_text(m.target.name)};")
    body = ", ".join(f"{v} -> {format_poly(m.pullback.images[v])}"
                     for v in m.target.ring.variables)
    lines.append(f"  pullback: {body};")
    lines.append("}")
    return "\n".join(lines)


def print_rep(r: RepBlock) -> str:
    lines = [f"rep {_name_text(r.name)} {{"]
    lines.append(f"  group: {_name_text(r.group.name)};")
    rows = ", ".join("[" + ", ".join(format_poly(e) for e in row) + "]"
                     for row in r.entries)
    lines.append(f"  matrix: [{rows}];")
    if r.witness is not None:
        lines.append(f"  witness: {format_poly(r.witness)};")
    lines.append("}")
    return "\n".join(lines)


def print_connection(name: str, c: Connection) -> str:
    lines = [f"connection {_name_text(name)} {{"]
    lines.append(f"  base: {c.base};")
    lines.append(f"  rank: {c.rank};")
    rows = ", ".join("[" + ", ".join(print_laurent(e) for e in row) + "]"
                     for row in c.matrix)
    lines.append(f"  matrix: [{rows}];")
    lines.append("}")
    return "\n".join(lines)


def print_file(pf: PresentationFile) -> str:
    chunks = []
    for kind, name in pf.order:
        if kind == "group":
            chunks.append(print_group(pf.groups[name]))
        elif kind == "morphism":
            chunks.append(print_morphism(pf.morphisms[name]))
        elif kind == "rep":
            chunks.append(print_rep(pf.reps[name]))
        else:
            chunks.append(print_connection(name, pf.connections[name]))
    return "\n\n".join(chunks) + "\n"
