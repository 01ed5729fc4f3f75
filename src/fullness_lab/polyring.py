"""Exact multivariate polynomial arithmetic.

Coefficients live in Q (arbitrary-precision rationals) or in a prime field
F_p (default p = 32003).  Polynomials are kept normalized: the term list is
strictly descending in the ring's monomial order and carries no zero
coefficients.  A small recursive-descent parser accepts the ASCII grammar
used by problem files (integers, identifiers, ``+ - * ^ ( )`` and, as an
extension so characteristic-zero output round-trips, rational literals
``a/b``).
"""
from __future__ import annotations

import re
import weakref
from fractions import Fraction
from operator import add, le, neg, sub
from typing import Iterator, Sequence

# Comparison outcomes of MonomialOrder.compare.
LT, EQ, GT = -1, 0, 1

DEFAULT_PRIME = 32003


class PolyringError(Exception):
    """Base class for errors raised by the polynomial layer."""


class RingMismatchError(PolyringError):
    pass


class ParseError(PolyringError):
    """Syntax or name error in polynomial text, with a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """Arithmetic in F_p with elements stored as ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_PRIME):
        if not _is_prime(p):
            raise PolyringError(f"field characteristic must be prime, got {p}")
        self.p = p

    characteristic = property(lambda self: self.p)
    zero = 0
    one = 1

    def normalize(self, x: int) -> int:
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_fraction(self, num: int, den: int = 1):
        if den % self.p == 0:
            raise PolyringError(
                f"characteristic mismatch: denominator {den} is divisible by p = {self.p}"
            )
        return self.mul(num % self.p, self.inv(den % self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """Arithmetic in Q via fractions.Fraction."""

    __slots__ = ()

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def normalize(self, x) -> Fraction:
        return x if type(x) is Fraction else Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def from_fraction(self, num: int, den: int = 1):
        return Fraction(num, den)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class Monomial(tuple):
    """Exponent vector; behaves as a tuple so it can key dicts cheaply."""

    __slots__ = ()

    @property
    def total_degree(self) -> int:
        return sum(self)

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(map(add, self, other))

    def divides(self, other: "Monomial") -> bool:
        return all(map(le, self, other))

    def div(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise PolyringError(f"monomial {other} does not divide {self}")
        return Monomial(map(sub, self, other))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(map(max, self, other))

    @staticmethod
    def unit(nvars: int) -> "Monomial":
        return Monomial((0,) * nvars)


def _drl_key(exps: Sequence[int]):
    # Degrevlex ascending key: higher total degree wins, ties broken by the
    # last distinct exponent being smaller.
    return (sum(exps), tuple(map(neg, reversed(exps))))


# Descending keys: each is the ascending key with every entry negated (and
# the nesting flattened), so sorting by it lists monomials from largest to
# smallest and a min-heap on it pops the largest monomial first.  They need
# no per-exponent Python work, which is what the kernel's sorts and heaps
# pay for.


def _drl_desc_key(m):
    return (-sum(m), m[::-1])


def _lex_desc_key(m):
    return tuple(map(neg, m))


def _block_desc_key(split: int):
    def desc_key(m):
        head, tail = m[split - 1 :: -1], m[: split - 1 : -1]
        return (-sum(head), head, -sum(tail), tail)

    return desc_key


class MonomialOrder:
    """Total order on monomials: degrevlex, lex, or a two-block elimination
    order (first `split` variables dominate, degrevlex inside each block).

    `desc_key(m)` sorts ascending in the opposite order to `key(m)`."""

    __slots__ = ("kind", "split", "desc_key")

    DEGREVLEX = "degrevlex"
    LEX = "lex"
    BLOCK = "block"

    def __init__(self, kind: str = DEGREVLEX, split: int = 0):
        if kind not in (self.DEGREVLEX, self.LEX, self.BLOCK):
            raise PolyringError(f"unknown monomial order kind {kind!r}")
        if kind == self.BLOCK and split <= 0:
            raise PolyringError("block order needs a positive split index")
        self.kind = kind
        self.split = split
        if kind == self.DEGREVLEX:
            self.desc_key = _drl_desc_key
        elif kind == self.LEX:
            self.desc_key = _lex_desc_key
        else:
            self.desc_key = _block_desc_key(split)

    @classmethod
    def degrevlex(cls) -> "MonomialOrder":
        return cls(cls.DEGREVLEX)

    @classmethod
    def lex(cls) -> "MonomialOrder":
        return cls(cls.LEX)

    @classmethod
    def elimination(cls, split: int) -> "MonomialOrder":
        return cls(cls.BLOCK, split)

    def key(self, m: Sequence[int]):
        if self.kind == self.DEGREVLEX:
            return _drl_key(m)
        if self.kind == self.LEX:
            return tuple(m)
        return (_drl_key(m[: self.split]), _drl_key(m[self.split :]))

    def weights(self, nvars: int, bound: int) -> tuple[int, ...]:
        """Integer weights w such that sum(e_i * w_i) orders and tells apart
        monomials as `key` does, provided every exponent is below `bound`.
        The weighted sum of a product is the sum of its factors'."""
        base = bound << nvars.bit_length()  # exceeds every total degree
        if self.kind == self.LEX:
            return tuple(base ** (nvars - 1 - i) for i in range(nvars))

        def drl(n):  # degree first, then the smaller last exponent
            return [base**n - base**i for i in range(n)]

        if self.kind == self.DEGREVLEX:
            return tuple(drl(nvars))
        tail = nvars - self.split
        scale = 2 * base ** (tail + 1)  # exceeds twice any tail-block sum
        return tuple([w * scale for w in drl(self.split)] + drl(tail))

    def compare(self, a: Sequence[int], b: Sequence[int]) -> int:
        """Compare two monomials; returns LT, EQ or GT."""
        if len(a) != len(b):
            raise RingMismatchError("monomials of different lengths are not comparable")
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return LT
        if ka > kb:
            return GT
        return EQ

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and other.kind == self.kind
            and other.split == self.split
        )

    def __hash__(self):
        return hash((self.kind, self.split))

    def __repr__(self):
        if self.kind == self.BLOCK:
            return f"MonomialOrder(block, split={self.split})"
        return f"MonomialOrder({self.kind})"


_IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


# Live rings by (variables, field, order); an entry goes when its ring does.
_RINGS: "weakref.WeakValueDictionary[tuple, PolyRing]" = weakref.WeakValueDictionary()


class PolyRing:
    """A polynomial ring: named variables, a coefficient field, an order.

    Rings are interned: equal (variables, field, order) give the same live
    object, so rings compare by identity."""

    __slots__ = ("variables", "field", "order", "_var_index", "__weakref__")

    def __new__(
        cls,
        variables: Sequence[str],
        field: PrimeField | RationalField | None = None,
        order: MonomialOrder | None = None,
    ):
        variables = tuple(variables)
        field = field if field is not None else PrimeField()
        order = order if order is not None else MonomialOrder.degrevlex()
        ring = _RINGS.get((variables, field, order))
        if ring is not None:
            return ring
        if not variables:
            raise PolyringError("a polynomial ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise PolyringError("variable names must be distinct")
        for v in variables:
            if not _IDENT_RE.fullmatch(v):
                raise PolyringError(f"invalid variable name {v!r}")
        ring = super().__new__(cls)
        ring.variables = variables
        ring.field = field
        ring.order = order
        ring._var_index = {v: i for i, v in enumerate(variables)}
        _RINGS[variables, field, order] = ring
        return ring

    def __reduce__(self):
        return (PolyRing, (self.variables, self.field, self.order))

    @property
    def characteristic(self) -> int:
        return self.field.characteristic

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = self.field.normalize(c)
        if not c:
            return self.zero()
        return Polynomial(self, ((Monomial.unit(self.nvars), c),))

    def gen(self, name: str) -> "Polynomial":
        try:
            i = self._var_index[name]
        except KeyError:
            raise PolyringError(f"unknown variable {name!r}") from None
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, ((Monomial(exps), self.field.one),))

    def gens(self) -> list["Polynomial"]:
        return [self.gen(v) for v in self.variables]

    def monomial(self, exps: Sequence[int]) -> "Polynomial":
        if len(exps) != self.nvars:
            raise RingMismatchError("exponent vector length mismatch")
        return Polynomial(self, ((Monomial(exps), self.field.one),))

    def from_dict(self, d: dict) -> "Polynomial":
        normalize = self.field.normalize
        return self._sorted((m, normalize(c)) for m, c in d.items())

    def _sorted(self, items) -> "Polynomial":
        """Polynomial from (exponents, normalized coefficient) pairs with
        distinct exponents; zero coefficients are dropped."""
        desc_key = self.order.desc_key
        keyed = [
            (desc_key(m), m if type(m) is Monomial else Monomial(m), c)
            for m, c in items
            if c
        ]
        keyed.sort()
        return Polynomial(self, tuple([(m, c) for _, m, c in keyed]))

    def parse(self, src: str) -> "Polynomial":
        return parse_polynomial(src, self)

    def extend_front(self, new_vars: Sequence[str]) -> "PolyRing":
        """Ring with `new_vars` prepended, under the elimination block order
        that makes them dominate (used for intersections and colons)."""
        new_vars = tuple(new_vars)
        return PolyRing(
            new_vars + self.variables,
            self.field,
            MonomialOrder.elimination(len(new_vars)),
        )

    def convert(self, f: "Polynomial") -> "Polynomial":
        """Re-express a polynomial in this ring, matching variables by name.

        Source variables absent from this ring must not actually occur in f.
        """
        src = f.ring
        if src is self:
            return f
        positions = [self._var_index.get(v) for v in src.variables]
        d = {}
        for m, c in f.terms:
            exps = [0] * self.nvars
            for pos, e in zip(positions, m):
                if pos is None:
                    if e != 0:
                        raise RingMismatchError(
                            "polynomial involves a variable not present in the target ring"
                        )
                    continue
                exps[pos] = e
            d[tuple(exps)] = c
        return self.from_dict(d)

    def __repr__(self):
        return f"PolyRing({self.field!r}; {', '.join(self.variables)}; {self.order.kind})"


class Polynomial:
    """Normalized polynomial: term tuple strictly descending in ring order.
    Immutable, so its hash is computed on first use and kept."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self.terms = terms

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def lead_monomial(self) -> Monomial:
        if not self.terms:
            raise PolyringError("zero polynomial has no lead term")
        return self.terms[0][0]

    @property
    def lead_coeff(self):
        if not self.terms:
            raise PolyringError("zero polynomial has no lead term")
        return self.terms[0][1]

    @property
    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(m.total_degree for m, _ in self.terms)

    @property
    def constant_term(self):
        unit = Monomial.unit(self.ring.nvars)
        for m, c in self.terms:
            if m == unit:
                return c
        return self.ring.field.zero

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring is not other.ring:
            raise RingMismatchError("polynomials from different rings")

    def _combine(self, other: "Polynomial", op) -> "Polynomial":
        self._check(other)
        zero = self.ring.field.zero
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = op(d.get(m, zero), c)
        return self.ring._sorted(d.items())

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, self.ring.field.add)

    def __neg__(self) -> "Polynomial":
        field = self.ring.field
        return Polynomial(self.ring, tuple((m, field.neg(c)) for m, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, self.ring.field.sub)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        if len(other.terms) == 1:
            return self.mul_term(*other.terms[0])
        if len(self.terms) == 1:
            return other.mul_term(*self.terms[0])
        field = self.ring.field
        fadd, fmul, zero = field.add, field.mul, field.zero
        d: dict = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = Monomial(map(add, m1, m2))
                d[m] = fadd(d.get(m, zero), fmul(c1, c2))
        return self.ring._sorted(d.items())

    def __rmul__(self, other) -> "Polynomial":
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        field = self.ring.field
        c = field.normalize(c)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, tuple((m, field.mul(k, c)) for m, k in self.terms))

    def mul_term(self, m: Monomial, c) -> "Polynomial":
        """The product by the term c·m, already sorted: a monomial order is
        multiplicative."""
        if not c:
            return self.ring.zero()
        if c == 1:
            terms = [(Monomial(map(add, mm, m)), cc) for mm, cc in self.terms]
        else:
            fmul = self.ring.field.mul
            terms = [(Monomial(map(add, mm, m)), fmul(cc, c)) for mm, cc in self.terms]
        return Polynomial(self.ring, tuple(terms))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise PolyringError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def monic(self) -> "Polynomial":
        field = self.ring.field
        if not self.terms or self.lead_coeff == 1:
            return self
        inv = field.inv(self.lead_coeff)
        return Polynomial(self.ring, tuple((m, field.mul(c, inv)) for m, c in self.terms))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.ring is self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self.ring, self.terms))
            return h

    # -- printing ----------------------------------------------------------

    def _term_str(self, m: Monomial, c) -> str:
        parts = []
        mono = "*".join(
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(self.ring.variables, m)
            if e != 0
        )
        one = self.ring.field.one
        if not mono:
            return _coeff_str(c)
        if c != one:
            parts.append(_coeff_str(c))
        parts.append(mono)
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        out, rational = [], not self.ring.characteristic
        for i, (m, c) in enumerate(self.terms):
            neg = rational and c < 0
            body = self._term_str(m, -c if neg else c)
            if i == 0:
                out.append(f"-{body}" if neg else body)
            else:
                out.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(out)

    def __repr__(self):
        return f"<{self} over {self.ring!r}>"


def _coeff_str(c) -> str:
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return str(c.numerator)
        return f"{c.numerator}/{c.denominator}"
    return str(c)


# -- parser ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)|(?P<op>[-+*^()/]))"
)


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            at = len(src) - len(stripped)
            raise ParseError(f"unexpected character {src[at]!r}", at)
        if m.group("int") is not None:
            tokens.append(_Token("int", int(m.group("int")), m.start("int")))
        elif m.group("ident") is not None:
            tokens.append(_Token("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(_Token(m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", None, len(src)))
    return tokens


class _Parser:
    # Each level of parentheses costs four Python frames; the cap keeps
    # hostile input far from the interpreter's recursion limit.
    MAX_NESTING = 100

    def __init__(self, src: str, ring: PolyRing):
        self.src = src
        self.ring = ring
        self.tokens = _tokenize(src)
        self.i = 0
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {self._describe(tok)}", tok.pos)
        return tok

    @staticmethod
    def _describe(tok: _Token) -> str:
        return "end of input" if tok.kind == "end" else repr(tok.value)

    def parse(self) -> Polynomial:
        poly = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.value!r}", tok.pos)
        return poly

    def expression(self) -> Polynomial:
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = -1 if self.next().kind == "-" else 1
        poly = self.term()
        if sign < 0:
            poly = -poly
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            poly = poly - rhs if op == "-" else poly + rhs
        return poly

    def term(self) -> Polynomial:
        poly = self.factor()
        while self.peek().kind == "*":
            self.next()
            poly = poly * self.factor()
        return poly

    def factor(self) -> Polynomial:
        base = self.atom()
        if self.peek().kind == "^":
            caret = self.next()
            tok = self.expect("int")
            if tok.value < 0:
                raise ParseError("exponent must be a non-negative integer", caret.pos)
            base = base ** tok.value
        return base

    def atom(self) -> Polynomial:
        tok = self.next()
        if tok.kind == "int":
            num = tok.value
            if self.peek().kind == "/":
                slash = self.next()
                den = self.expect("int").value
                if den == 0:
                    raise ParseError("zero denominator", slash.pos)
                try:
                    c = self.ring.field.from_fraction(num, den)
                except PolyringError as e:
                    raise ParseError(str(e), slash.pos) from None
                return self.ring.constant(c)
            return self.ring.constant(num)
        if tok.kind == "ident":
            if tok.value not in self.ring._var_index:
                raise ParseError(f"unknown variable {tok.value!r}", tok.pos)
            return self.ring.gen(tok.value)
        if tok.kind == "(":
            if self.nesting == self.MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {self.MAX_NESTING}", tok.pos)
            self.nesting += 1
            poly = self.expression()
            self.nesting -= 1
            self.expect(")")
            return poly
        raise ParseError(f"unexpected {self._describe(tok)}", tok.pos)


def parse_polynomial(src: str, ring: PolyRing) -> Polynomial:
    """Parse polynomial text into normalized form.

    Grammar: integers (optionally ``a/b`` rationals), ring variables,
    ``+ - * ^`` and parentheses, nested at most ``_Parser.MAX_NESTING``
    deep; ``^`` takes a non-negative integer literal; multiplication is
    always explicit.
    """
    return _Parser(src, ring).parse()


def monomials_of_degree(nvars: int, degree: int) -> Iterator[Monomial]:
    """All exponent vectors of the given total degree, in a stable order."""
    if degree < 0:
        return
    if nvars == 1:
        yield Monomial((degree,))
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield Monomial((first,) + tuple(rest))

