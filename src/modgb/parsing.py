"""Text front end: tokenizer, recursive-descent parser, and serialization.

GRAMMAR below is the one statement of the input language; the README and
`modgb --help` print it.  Every error carries its line and column.
"""

import re
from collections import namedtuple
from fractions import Fraction

from .arith import is_prime
from .orderings import deglex, degrevlex, elim, lex, matrix_order
from .poly import GF, Ideal, PolyRing, QQ, ZZ, _coeff_str, poly_str

GRAMMAR = """\
input      := ring_decl ';' (ideal_decl ';')*
ring_decl  := 'ring' coeff '[' names ']' order
coeff      := 'QQ' | 'ZZ' | 'ZZ' '/' '(' int ')'
names      := name (',' name)*
order      := 'lex' | 'deglex' | 'degrevlex'
            | 'elim' '(' names ')' | 'matrix' '(' row (',' row)* ')'
row        := '[' number (',' number)* ']'
number     := ['-'] int ['/' int]
ideal_decl := 'ideal' '(' [poly (',' poly)*] ')'
poly       := ['+' | '-'] term (('+' | '-') term)*
term       := factor (['*'] factor)*
factor     := int ['/' int] | name ['^' int]
An int is a run of decimal digits.  A name starts with a letter or '_'
and goes on with letters, digits or '_'.
"""


class ParseError(ValueError):
    """Positioned parse failure; `kind` distinguishes the error family."""

    kind = "syntax"

    def __init__(self, message, line, col):
        super().__init__("%s at line %d, column %d: %s" % (self.kind, line, col, message))
        self.line = line
        self.col = col
        self.reason = message


class LexicalError(ParseError):
    kind = "lexical"


class SyntaxError_(ParseError):
    kind = "syntax"


class ArityError(ParseError):
    kind = "arity"


class UnknownIndeterminateError(ParseError):
    kind = "unknown-indeterminate"


class NonPrimeModulusError(ParseError):
    kind = "non-prime-modulus"


class RingSpec(namedtuple("RingSpec", "domain names ordering")):
    """Parsed ring header: coefficient domain, names, default ordering."""

    __slots__ = ()

    def ring(self):
        return PolyRing(self.domain, self.names)


# ---------------------------------------------------------------------------
# tokenizer

# kind is "int", "name", the symbol itself, or "end"
_Token = namedtuple("_Token", "kind text line col")

# \d is exactly what int() reads, \w is str.isalnum() or '_'; a name's
# first character must also be a letter or '_', which _tokenize checks
_LEXEME = re.compile(
    r"(?P<newline>\n)|(?P<space>[^\S\n]+)|(?P<int>\d+)|(?P<name>\w+)"
    r"|(?P<symbol>[;,\[\]()+\-*^/])|(?P<other>.)"
)


def _tokenize(text):
    tokens = []
    line, start = 1, 0  # start: the index of the line's first character
    for m in _LEXEME.finditer(text):
        kind, s, col = m.lastgroup, m.group(), m.start() - start + 1
        if kind == "newline":
            line, start = line + 1, m.end()
        elif kind == "other" or (kind == "name" and not (s[0].isalpha() or s[0] == "_")):
            raise LexicalError("unexpected character %r" % s[0], line, col)
        elif kind != "space":
            tokens.append(_Token(s if kind == "symbol" else kind, s, line, col))
    tokens.append(_Token("end", "", line, len(text) - start + 1))
    return tokens


# ---------------------------------------------------------------------------
# parser


def _index(t, names):
    """The position of the name token t among the ring's names."""
    if t.text not in names:
        raise UnknownIndeterminateError(
            "%r is not an indeterminate of the ring" % t.text, t.line, t.col
        )
    return names.index(t.text)


def _int(t):
    """The value of the int token t, with int()'s digit-limit refusal positioned."""
    try:
        return int(t.text)
    except ValueError as e:
        raise LexicalError(str(e), t.line, t.col) from None


_PLAIN_ORDERS = {"lex": lex, "deglex": deglex, "degrevlex": degrevlex}


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        if t.kind != "end":
            self.pos += 1
        return t

    def accept(self, kind):
        """Take the next token if it is of the given kind, else None."""
        return self.next() if self.peek().kind == kind else None

    def expected(self, what):
        t = self.peek()
        raise SyntaxError_(
            "expected %s, found %r" % (what, t.text or "end of input"), t.line, t.col
        )

    def expect(self, kind, what=None):
        return self.accept(kind) or self.expected(what or repr(kind))

    def comma_list(self, item):
        """item (',' item)*, as a list of item's results."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    # -- header ------------------------------------------------------------

    def parse_coeff(self):
        t = self.expect("name", "a coefficient domain (QQ, ZZ or ZZ/(p))")
        if t.text == "QQ":
            return QQ
        if t.text != "ZZ":
            raise SyntaxError_("unknown coefficient domain %r" % t.text, t.line, t.col)
        if not self.accept("/"):
            return ZZ
        self.expect("(")
        pt = self.expect("int", "a prime modulus")
        p = _int(pt)
        if not is_prime(p):
            raise NonPrimeModulusError("%d is not prime" % p, pt.line, pt.col)
        self.expect(")")
        return GF(p)

    def parse_names(self):
        """Comma-separated distinct names, as their tokens."""
        tokens = self.comma_list(lambda: self.expect("name", "an indeterminate name"))
        seen = set()
        for t in tokens:
            if t.text in seen:
                raise ArityError("repeated indeterminate name", t.line, t.col)
            seen.add(t.text)
        return tokens

    def parse_number(self):
        neg = self.accept("-")
        val = self.parse_fraction(self.expect("int", "a number"))
        return -val if neg else val

    def parse_fraction(self, t):
        """The unsigned number int ['/' int] whose integer token t was taken."""
        val = Fraction(_int(t))
        if self.accept("/"):
            dt = self.expect("int", "a denominator")
            d = _int(dt)
            if d == 0:
                raise SyntaxError_("zero denominator", dt.line, dt.col)
            val /= d
        return val

    def parse_order(self, names):
        t = self.expect("name", "a term ordering")
        n = len(names)
        if t.text in _PLAIN_ORDERS:
            return _PLAIN_ORDERS[t.text](n)
        if t.text not in ("elim", "matrix"):
            raise SyntaxError_("unknown term ordering %r" % t.text, t.line, t.col)
        self.expect("(")
        if t.text == "elim":
            block = self.parse_names()
            self.expect(")")
            return elim([_index(bt, names) for bt in block], n)
        rows = self.comma_list(self.parse_row)
        self.expect(")")
        for bracket, row in rows:
            if len(row) != n:
                raise ArityError(
                    "matrix row has %d entries for %d indeterminates" % (len(row), n),
                    bracket.line,
                    bracket.col,
                )
        try:
            return matrix_order([row for _, row in rows], n)
        except ValueError as e:
            raise ArityError(str(e), t.line, t.col) from None

    def parse_row(self):
        """A row of numbers, with its opening bracket's token."""
        bracket = self.expect("[")
        row = self.comma_list(self.parse_number)
        self.expect("]")
        return bracket, row

    def parse_ring_decl(self):
        if self.peek().text != "ring":
            self.expected("'ring'")
        self.next()
        domain = self.parse_coeff()
        self.expect("[")
        names = tuple(t.text for t in self.parse_names())
        self.expect("]")
        ordering = self.parse_order(names)
        self.expect(";")
        return RingSpec(domain, names, ordering)

    # -- polynomials -------------------------------------------------------

    def parse_poly(self, ring):
        terms = []
        sign = self.accept("+") or self.accept("-")
        while True:
            terms.append(self.parse_term(ring, -1 if sign and sign.kind == "-" else 1))
            sign = self.accept("+") or self.accept("-")
            if not sign:
                return ring.from_terms(terms)

    def parse_term(self, ring, sign):
        coeff = Fraction(sign)
        pp = [0] * ring.n
        what = "a term"
        while True:
            if self.peek().kind not in ("int", "name"):
                self.expected(what)
            t = self.next()
            if t.kind == "int":
                coeff *= self.parse_fraction(t)
            else:
                i = _index(t, ring.names)
                pp[i] += _int(self.expect("int", "an exponent")) if self.accept("^") else 1
            what = "a factor after '*'"
            if not self.accept("*") and self.peek().kind not in ("int", "name"):
                break
        t = self.peek()
        try:
            return tuple(pp), ring.domain.coerce(coeff)
        except ValueError as e:
            raise SyntaxError_(str(e), t.line, t.col) from None

    def parse_ideal_decl(self, ring):
        self.expect("(")
        gens = [] if self.peek().kind == ")" else self.comma_list(lambda: self.parse_poly(ring))
        self.expect(")")
        self.expect(";")
        return Ideal(ring, gens)

    def parse_input(self):
        spec = self.parse_ring_decl()
        ring = spec.ring()
        ideals = []
        while self.peek().text == "ideal":
            self.next()
            ideals.append(self.parse_ideal_decl(ring))
        return spec, ideals


def _parse_all(text, rule, what):
    """rule applied to a parser over text, which it must read to the end."""
    parser = _Parser(text)
    result = rule(parser)
    t = parser.peek()
    if t.kind != "end":
        raise SyntaxError_("unexpected %r after %s" % (t.text, what), t.line, t.col)
    return result


def parse_input(text):
    """Parse a full input file into (RingSpec, ideals, directives)."""
    spec, ideals = _parse_all(text, _Parser.parse_input, "the last declaration")
    return spec, ideals, []


def parse_order_text(text, names):
    """Parse a bare ordering expression (CLI flag form) for the given names."""
    return _parse_all(text, lambda p: p.parse_order(tuple(names)), "the ordering")


def parse_poly_text(text, ring):
    """Parse a bare polynomial (CLI flag form) over the given ring."""
    return _parse_all(text, lambda p: p.parse_poly(ring), "the polynomial")


# ---------------------------------------------------------------------------
# serialization


def serialize_order(order, names):
    """Ordering as input text."""
    c = order.canonical()
    if c[0] == "elim":
        return "elim(%s)" % ",".join(names[i] for i in c[2])
    if c[0] == "matrix":
        return "matrix(%s)" % ",".join("[%s]" % ",".join(map(_coeff_str, row)) for row in c[2])
    return c[0]


def serialize_input(spec, ideals):
    """Render a RingSpec and its ideals back into the input grammar."""
    lines = [
        "ring %s[%s] %s;"
        % (spec.domain.name, ",".join(spec.names), serialize_order(spec.ordering, spec.names))
    ]
    for I in ideals:
        lines.append("ideal(%s);" % ", ".join(poly_str(g, spec.ordering) for g in I.gens))
    return "\n".join(lines) + "\n"
