"""Text front end: tokenizer, recursive-descent parser, and serialization.

Grammar:
    input      := ring_decl ';' (ideal_decl ';')*
    ring_decl  := 'ring' coeff '[' names ']' order
    coeff      := 'QQ' | 'ZZ' | 'ZZ' '/' '(' int ')'
    order      := 'lex' | 'deglex' | 'degrevlex'
                | 'elim' '(' names ')' | 'matrix' '(' row (',' row)* ')'
    row        := '[' number (',' number)* ']'
    ideal_decl := 'ideal' '(' [poly (',' poly)*] ')'
    number     := int | int '/' int

Coefficients are integers or fractions; '*' between a coefficient and a
name may be omitted.  Every error carries its line and column.
"""

from fractions import Fraction

from .arith import is_prime
from .orderings import deglex, degrevlex, elim, lex, matrix_order
from .poly import GF, Ideal, PolyRing, QQ, ZZ, poly_str


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


class RingSpec:
    """Parsed ring header: coefficient domain, names, default ordering."""

    __slots__ = ("domain", "names", "ordering")

    def __init__(self, domain, names, ordering):
        self.domain = domain
        self.names = tuple(names)
        self.ordering = ordering

    def ring(self):
        return PolyRing(self.domain, self.names)

    def __eq__(self, other):
        return (
            isinstance(other, RingSpec)
            and self.domain == other.domain
            and self.names == other.names
            and self.ordering == other.ordering
        )

    def __repr__(self):
        return "RingSpec(%r, %r)" % (self.domain, self.names)


# ---------------------------------------------------------------------------
# tokenizer

_SYMBOLS = set(";,[]()+-*^/")


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # "int" | "name" | symbol text | "end"
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "_Token(%s, %r)" % (self.kind, self.text)


def _tokenize(text):
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise LexicalError("invalid UTF-8: %s" % e.reason, 1, 1) from None
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise LexicalError("unexpected character %r" % ch, line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        if t.kind != "end":
            self.pos += 1
        return t

    def expect(self, kind, what=None):
        t = self.peek()
        if t.kind != kind:
            raise SyntaxError_(
                "expected %s, found %r" % (what or repr(kind), t.text or "end of input"),
                t.line,
                t.col,
            )
        return self.next()

    def expect_end(self, after):
        t = self.peek()
        if t.kind != "end":
            raise SyntaxError_("unexpected %r after %s" % (t.text, after), t.line, t.col)

    def expect_keyword(self, word):
        t = self.peek()
        if t.kind != "name" or t.text != word:
            raise SyntaxError_(
                "expected %r, found %r" % (word, t.text or "end of input"), t.line, t.col
            )
        return self.next()

    # -- header ------------------------------------------------------------

    def parse_coeff(self):
        t = self.expect("name", "a coefficient domain (QQ, ZZ or ZZ/(p))")
        if t.text == "QQ":
            return QQ
        if t.text != "ZZ":
            raise SyntaxError_("unknown coefficient domain %r" % t.text, t.line, t.col)
        if self.peek().kind != "/":
            return ZZ
        self.next()
        self.expect("(")
        pt = self.expect("int", "a prime modulus")
        p = int(pt.text)
        if not is_prime(p):
            raise NonPrimeModulusError("%d is not prime" % p, pt.line, pt.col)
        self.expect(")")
        return GF(p)

    def parse_names(self):
        """Comma-separated distinct names, as their tokens."""
        tokens = [self.expect("name", "an indeterminate name")]
        while self.peek().kind == ",":
            self.next()
            tokens.append(self.expect("name", "an indeterminate name"))
        seen = set()
        for t in tokens:
            if t.text in seen:
                raise ArityError("repeated indeterminate name", t.line, t.col)
            seen.add(t.text)
        return tokens

    def parse_number(self):
        neg = False
        if self.peek().kind == "-":
            self.next()
            neg = True
        val = self.parse_fraction(self.expect("int", "a number"))
        return -val if neg else val

    def parse_fraction(self, t):
        """The unsigned number int ['/' int] whose integer token t was taken."""
        val = Fraction(int(t.text))
        if self.peek().kind == "/":
            self.next()
            dt = self.expect("int", "a denominator")
            d = int(dt.text)
            if d == 0:
                raise SyntaxError_("zero denominator", dt.line, dt.col)
            val /= d
        return val

    def parse_order(self, names):
        t = self.expect("name", "a term ordering")
        n = len(names)
        if t.text == "lex":
            return lex(n)
        if t.text == "deglex":
            return deglex(n)
        if t.text == "degrevlex":
            return degrevlex(n)
        if t.text == "elim":
            self.expect("(")
            block_names = self.parse_names()
            self.expect(")")
            block = []
            for bt in block_names:
                if bt.text not in names:
                    raise UnknownIndeterminateError(
                        "%r is not an indeterminate of the ring" % bt.text, bt.line, bt.col
                    )
                block.append(names.index(bt.text))
            return elim(block, n)
        if t.text == "matrix":
            self.expect("(")
            rows = [self.parse_row()]
            while self.peek().kind == ",":
                self.next()
                rows.append(self.parse_row())
            self.expect(")")
            for bracket, row in rows:
                if len(row) != n:
                    raise ArityError(
                        "matrix row has %d entries for %d indeterminates"
                        % (len(row), n),
                        bracket.line,
                        bracket.col,
                    )
            try:
                return matrix_order([row for _, row in rows], n)
            except ValueError as e:
                raise ArityError(str(e), t.line, t.col) from None
        raise SyntaxError_("unknown term ordering %r" % t.text, t.line, t.col)

    def parse_row(self):
        """A row of numbers, with its opening bracket's token."""
        bracket = self.expect("[")
        row = [self.parse_number()]
        while self.peek().kind == ",":
            self.next()
            row.append(self.parse_number())
        self.expect("]")
        return bracket, row

    def parse_ring_decl(self):
        self.expect_keyword("ring")
        domain = self.parse_coeff()
        self.expect("[")
        names = [t.text for t in self.parse_names()]
        self.expect("]")
        ordering = self.parse_order(names)
        self.expect(";")
        return RingSpec(domain, names, ordering)

    # -- polynomials -------------------------------------------------------

    def parse_poly(self, ring):
        sign = 1
        t = self.peek()
        if t.kind == "+":
            self.next()
        elif t.kind == "-":
            self.next()
            sign = -1
        terms = [self.parse_term(ring, sign)]
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.next().kind == "+" else -1
            terms.append(self.parse_term(ring, sign))
        return ring.from_terms(terms)

    def parse_term(self, ring, sign):
        coeff = Fraction(sign)
        pp = [0] * ring.n
        saw_factor = False
        while True:
            t = self.peek()
            if t.kind == "int":
                coeff *= self.parse_fraction(self.next())
                saw_factor = True
            elif t.kind == "name":
                self.next()
                if t.text not in ring.names:
                    raise UnknownIndeterminateError(
                        "%r is not an indeterminate of the ring" % t.text,
                        t.line,
                        t.col,
                    )
                e = 1
                if self.peek().kind == "^":
                    self.next()
                    et = self.expect("int", "an exponent")
                    e = int(et.text)
                pp[ring.names.index(t.text)] += e
                saw_factor = True
            else:
                break
            if self.peek().kind == "*":
                self.next()
                # a '*' must be followed by another factor
                nt = self.peek()
                if nt.kind not in ("int", "name"):
                    raise SyntaxError_(
                        "expected a factor after '*', found %r"
                        % (nt.text or "end of input"),
                        nt.line,
                        nt.col,
                    )
        if not saw_factor:
            t = self.peek()
            raise SyntaxError_(
                "expected a term, found %r" % (t.text or "end of input"), t.line, t.col
            )
        try:
            return tuple(pp), ring.domain.coerce(coeff)
        except ValueError as e:
            raise SyntaxError_(str(e), t.line, t.col) from None

    def parse_ideal_decl(self, ring):
        self.expect_keyword("ideal")
        self.expect("(")
        gens = []
        if self.peek().kind != ")":
            gens.append(self.parse_poly(ring))
            while self.peek().kind == ",":
                self.next()
                gens.append(self.parse_poly(ring))
        self.expect(")")
        self.expect(";")
        return Ideal(ring, gens)

    def parse_input(self):
        spec = self.parse_ring_decl()
        ring = spec.ring()
        ideals = []
        while self.peek().kind == "name" and self.peek().text == "ideal":
            ideals.append(self.parse_ideal_decl(ring))
        self.expect_end("the last declaration")
        return spec, ideals


def parse_input(text):
    """Parse a full input file into (RingSpec, ideals, directives)."""
    spec, ideals = _Parser(_tokenize(text)).parse_input()
    return spec, ideals, []


def parse_order_text(text, names):
    """Parse a bare ordering expression (CLI flag form) for the given names."""
    parser = _Parser(_tokenize(text))
    order = parser.parse_order(list(names))
    parser.expect_end("the ordering")
    return order


def parse_poly_text(text, ring):
    """Parse a bare polynomial (CLI flag form) over the given ring."""
    parser = _Parser(_tokenize(text))
    f = parser.parse_poly(ring)
    parser.expect_end("the polynomial")
    return f


# ---------------------------------------------------------------------------
# serialization


def _number_str(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def serialize_order(order, names):
    """Ordering as input text."""
    c = order.canonical()
    if c[0] in ("lex", "deglex", "degrevlex"):
        return c[0]
    if c[0] == "elim":
        return "elim(%s)" % ",".join(names[i] for i in c[2])
    rows = ["[%s]" % ",".join(_number_str(x) for x in row) for row in c[2]]
    return "matrix(%s)" % ",".join(rows)


def serialize_input(spec, ideals):
    """Render a RingSpec and its ideals back into the input grammar."""
    dom = spec.domain
    if dom is QQ:
        cs = "QQ"
    elif dom is ZZ:
        cs = "ZZ"
    else:
        cs = "ZZ/(%d)" % dom.p
    lines = [
        "ring %s[%s] %s;"
        % (cs, ",".join(spec.names), serialize_order(spec.ordering, spec.names))
    ]
    for I in ideals:
        body = ", ".join(poly_str(g, spec.ordering) for g in I.gens)
        lines.append("ideal(%s);" % body)
    return "\n".join(lines) + "\n"
