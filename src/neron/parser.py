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
"""

from __future__ import annotations

import re

from .dgal import AFFINE, PUNCTURED, Connection, LaurentPoly
from .errors import ParseError, UndefinedName
from .groebner import Ideal
from .hopf import PRIME1, PRIME2, SCALARS, GroupMorphism, HopfPresentation, tensor_ring
from .ring import Poly, PolyRing, Scalar, Substitution, format_poly, quotient

KEYWORDS = ("group", "morphism", "rep", "connection")
PLAIN_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
X = "x"

# Deepest nesting of parentheses and unary signs an expression may use.
# Parsing and evaluation take a few stack frames per level, so this bounds
# their stack; a chain of binary operators adds no level, however long.
_MAX_NESTING = 100


class Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


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
            word = m.group(kind)
            token = Token(kind, word, line, at - start + 1)
            if kind == "punct":
                token.kind = word
            elif kind == "string":
                token.text = _ESCAPE.sub(r"\1", word[1:-1])
                breaks = word.count("\n")  # newlines escaped inside it
                if breaks:
                    line, start = line + breaks, at + word.rindex("\n") + 1
            tokens.append(token)
    # a trailing comment leaves the end of the text at the comment's start
    end = m.start("comment") if m is not None and m.lastgroup == "comment" else len(text)
    tokens.append(Token("eof", "", line, end - start + 1))
    return tokens


class RepBlock:
    """A comodule matrix as written, before any witness search runs."""

    __slots__ = ("name", "group", "entries", "witness")

    def __init__(self, name: str, group: HopfPresentation, entries: list, witness: Poly = None):
        self.name = name
        self.group = group
        self.entries = entries
        self.witness = witness


class PresentationFile:
    __slots__ = ("groups", "morphisms", "reps", "connections", "order")

    def __init__(self, groups: dict = None, morphisms: dict = None, reps: dict = None,
                 connections: dict = None, order: list = None):
        self.groups = {} if groups is None else groups
        self.morphisms = {} if morphisms is None else morphisms
        self.reps = {} if reps is None else reps
        self.connections = {} if connections is None else connections
        self.order = [] if order is None else order

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

    def plain_poly(self, node, ring, allowed) -> Poly:
        """A polynomial with no pi in a denominator; the error points at
        the `/` whose denominator carries pi."""
        f, m = _eval_poly(node, ring, allowed)
        if m:
            self.fail(_pi_division(node, ring, allowed), "pi cannot appear in a denominator here")
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


def _eval_poly(node, ring: PolyRing, allowed):
    """Evaluate to (numerator, pi_power) standing for numerator / pi^power."""
    node, spine = _spine(node)
    kind = node[0]
    if kind == "num":
        f, m = ring.scalar(node[1]), 0
    elif kind == "name":
        text, tok = node[1], node[2]
        if text == "pi":
            f, m = ring.pi(), 0
        elif text not in allowed:
            raise ParseError(f"unknown variable {text!r} here", tok.line, tok.column)
        else:
            f, m = ring.var(text), 0
    elif kind == "neg":
        f, m = _eval_poly(node[1], ring, allowed)
        f = -f
    elif kind == "pow":
        f, m = _eval_poly(node[1], ring, allowed)
        f, m = f ** node[2], m * node[2]
    else:
        raise AssertionError(kind)
    terms = None  # a running sum's terms, over pi^m, while the spine adds
    for node in spine:
        kind = node[0]
        b, mb = _eval_poly(node[2], ring, allowed)
        if kind in ("add", "sub"):
            if terms is None:
                terms = dict(f.terms)
            if mb > m:
                terms = {mono[:-1] + (mono[-1] + mb - m,): c
                         for mono, c in terms.items()}
                m = mb
            shift = m - mb
            for mono, c in b.terms.items():
                if shift:
                    mono = mono[:-1] + (mono[-1] + shift,)
                if kind == "sub":
                    c = -c
                terms[mono] = terms[mono] + c if mono in terms else c
            continue
        if terms is not None:
            f, terms = Poly(ring, terms), None
        if kind == "mul":
            f, m = f * b, m + mb
            continue
        op = node[3]
        if mb:
            raise ParseError("nested fractions", op.line, op.column)
        s = b.as_scalar() if b.is_scalar() else None
        if s is None or len(s.coeffs) != 1:
            raise ParseError("can only divide by rationals or powers of pi", op.line, op.column)
        e, q = next(iter(s.coeffs.items()))
        f, m = f.scale(quotient(1, q)), m + e
    if terms is not None:
        f = Poly(ring, terms)
    return f, m


def _pi_division(node, ring, allowed):
    """The first `/` in `node`, in text order, whose denominator carries
    pi, or None; every division in `node` is one `_eval_poly` accepts."""
    spine = []
    while node[0] not in ("num", "name"):
        spine.append(node)
        node = node[1]
    for node in reversed(spine):
        if node[0] == "div" and _eval_poly(node[2], ring, allowed)[0].pi_valuation() > 0:
            return node[3]
        if node[0] in _CHAINS:
            found = _pi_division(node[2], ring, allowed)
            if found is not None:
                return found
    return None


def _eval_laurent(node):
    node, spine = _spine(node)
    kind = node[0]
    if kind == "num":
        f = LaurentPoly({0: node[1]})
    elif kind == "name":
        text, tok = node[1], node[2]
        if text == "pi":
            f = LaurentPoly({0: Scalar.pi_power(1)})
        elif text == X:
            f = LaurentPoly({1: 1})
        else:
            raise ParseError(f"connection entries use only {X!r} and 'pi'", tok.line, tok.column)
    elif kind == "neg":
        f = -_eval_laurent(node[1])
    elif kind == "pow":
        a = _eval_laurent(node[1])
        f = LaurentPoly({0: 1})
        for _ in range(node[2]):
            f = f * a
    else:
        raise AssertionError(kind)
    coeffs = None  # a running sum's coefficients while the spine adds
    for node in spine:
        kind = node[0]
        b = _eval_laurent(node[2])
        if kind in ("add", "sub"):
            if coeffs is None:
                coeffs = dict(f.coeffs)
            for e, c in b.coeffs.items():
                if kind == "sub":
                    c = -c
                coeffs[e] = coeffs[e] + c if e in coeffs else c
            continue
        if coeffs is not None:
            f, coeffs = LaurentPoly(coeffs), None
        if kind == "mul":
            f = f * b
            continue
        op = node[3]
        if len(b.coeffs) != 1:
            raise ParseError("can only divide by rationals and powers of x", op.line, op.column)
        e, s = next(iter(b.coeffs.items()))
        if list(s.coeffs) != [0]:
            raise ParseError("cannot divide by pi", op.line, op.column)
        q = s.coeffs[0]
        f = LaurentPoly({d - e: c * quotient(1, q) for d, c in f.coeffs.items()})
    if coeffs is not None:
        f = LaurentPoly(coeffs)
    return f


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

    def images_for(self, pairs, variables, ring, allowed, what: str):
        images = {}
        for key, node in pairs:
            v = key.text
            if v not in variables:
                self.fail(key, f"{what} names unknown variable {v!r}")
            if v in images:
                self.fail(key, f"{what} repeats variable {v!r}")
            images[v] = self.plain_poly(node, ring, allowed)
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
        allowed = set(names)
        allowed2 = {v + s for v in names for s in (PRIME1, PRIME2)}
        rel_ideal = Ideal(ring, [self.plain_poly(r, ring, allowed) for r in relations])
        return HopfPresentation.from_images(
            name, ring, rel_ideal,
            self.images_for(comul, names, ring2, allowed2, "comul"),
            self.images_for(counit, names, SCALARS, set(), "counit"),
            self.images_for(antipode, names, ring, allowed, "antipode"))

    def build_morphism(self, name, entries, opener) -> GroupMorphism:
        source = self.file.groups.get(self.take(entries, "source", opener))
        target_name = self.take(entries, "target", opener)
        target = self.file.groups.get(target_name)
        pull = self.take(entries, "pullback", opener)
        self.reject_extras(entries, "morphism")
        if source is None or target is None:
            raise UndefinedName(f"morphism {name!r} references an undefined group")
        images = self.images_for(pull, target.ring.variables, source.ring,
                                 set(source.ring.variables), "pullback")
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
        allowed = set(group.ring.variables)
        rows = [[self.plain_poly(e, group.ring, allowed) for e in row]
                for row in matrix]
        wit = self.plain_poly(witness, group.ring, allowed) if witness else None
        return RepBlock(name, group, rows, wit)

    def build_connection(self, name, entries, opener) -> Connection:
        base = self.take(entries, "base", opener)
        rank = self.take(entries, "rank", opener, required=False)
        matrix = self.take(entries, "matrix", opener)
        self.reject_extras(entries, "connection")
        if base not in (AFFINE, PUNCTURED):
            self.fail(opener, f"base must be {AFFINE!r} or {PUNCTURED!r}")
        rows = [[_eval_laurent(e) for e in row] for row in matrix]
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
    """One polynomial over the given ring; pi denominators are rejected."""
    p = _Parser(text)
    node = p.expression()
    p.expect("eof")
    return p.plain_poly(node, ring, set(ring.variables))


def parse_fraction(text: str, ring: PolyRing):
    """An element numerator / pi^power of the generic fibre."""
    p = _Parser(text)
    node = p.expression()
    p.expect("eof")
    return _eval_poly(node, ring, set(ring.variables))


def parse_poly_list(text: str, ring: PolyRing):
    p = _Parser(text)
    allowed = set(ring.variables)
    return p.items("eof", lambda: p.plain_poly(p.expression(), ring, allowed))


def parse_matrix(text: str, ring: PolyRing):
    """A bracketed matrix [[...], ...] of polynomials over the given ring."""
    p = _Parser(text)
    rows = p.bracketed(lambda: p.bracketed(p.expression))
    p.expect("eof")
    allowed = set(ring.variables)
    return [[p.plain_poly(e, ring, allowed) for e in row] for row in rows]


def _name_text(name: str) -> str:
    if PLAIN_NAME.fullmatch(name) and name not in KEYWORDS:
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def print_laurent(f: LaurentPoly) -> str:
    """Render with at most one division, so the result parses back."""
    from .dgal import format_laurent
    if f.is_zero():
        return "0"
    low = f.exponents()[0]
    if low >= 0:
        return format_laurent(f)
    shifted = LaurentPoly({e - low: c for e, c in f.coeffs.items()})
    num = format_laurent(shifted)
    if len(shifted.coeffs) > 1:
        num = f"({num})"
    den = "x" if low == -1 else f"x^{-low}"
    return f"{num}/{den}"


def print_group(h: HopfPresentation) -> str:
    lines = [f"group {_name_text(h.name)} {{"]
    lines.append("  vars: " + ", ".join(h.ring.variables) + ";")
    rels = ", ".join(format_poly(g) for g in h.relations.generators)
    lines.append(f"  relations: {rels};" if rels else "  relations: ;")
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
