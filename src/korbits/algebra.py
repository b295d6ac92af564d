"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials live in a fixed :class:`VariableSpace` with two banks of
variables, ``x1..xr`` and ``y1..ym``.  A polynomial is stored as a dict
mapping packed monomials to nonzero coefficients (an ``int`` when
integral, else a ``Fraction``).  A packed monomial is one int with 8-bit
fields: the total degree on top, then x1 down to the last y (Bachmann &
Schoenemann, ISSAC 1998).  This representation is canonical: two
polynomials are equal exactly when their term dicts are equal, regardless
of how they were built.

Monomials are ordered graded-lexicographically (total degree first, then
lexicographic comparison of the exponents with x1 strongest), which is
integer order on packed monomials.  The same order drives printing,
leading-term extraction and exact division.  A monomial product is one
integer add; every product checks first that its degree stays within
``MAX_DEGREE``, so no field can carry.

On top of the ring operations the module provides the carrying of a
y-polynomial to another x-bank, elementary symmetric polynomials,
determinants of polynomial matrices by cofactor expansion, exact
division, divided difference operators for the classical root systems,
and a text grammar used by fixtures and the CLI.  A divided
difference applies the closed form of its root's shape, which with the
root's variables is all that a :class:`SimpleRootAction` records.
Every substitution of variables runs through the one loop
:func:`substitute_terms`.  It is the only module that reads the term
dict.
"""

from __future__ import annotations

import heapq
import math
import numbers
import operator
from functools import reduce
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import ContractViolation, InternalError, UsageError, parse_decimal
from .records import Record, set_field, set_fields

Monomial = int  # packed, see the module docstring
Scalar = numbers.Rational  # an int, else a Fraction; ``fractions`` loads only to make one

FIELD_BITS = 8
FIELD_MASK = (1 << FIELD_BITS) - 1
#: Largest total degree of a packed monomial; each exponent is at most this.
MAX_DEGREE = FIELD_MASK

#: Substitution target for a y-variable: None kills the variable (maps it
#: to zero); otherwise (sign, bank, index) with bank "x" or "y", sign +-1.
Target = Optional[tuple[int, str, int]]

#: A substitution plan holds one entry per y-variable: None when it is
#: unassigned, 0 when it maps to zero, else (sign, bit offset of the exponent
#: field of its image, as in ``VariableSpace.shifts``).
PlanEntry = Union[None, int, tuple[int, int]]

#: A term ready for substitution: its monomial with the y-fields cleared
#: (degree kept), its nonzero (y offset, exponent) pairs, and its coefficient.
CompiledTerm = tuple[Monomial, tuple[tuple[int, int], ...], Scalar]


class VariableSpace(Record):
    """A fixed set of variables x1..xr, y1..ym (indices are 1-based), and
    the packed layout: ``shifts[slot]`` is the bit offset of a slot's
    exponent field (x-bank first), ``degree_shift`` that of the degree.
    Spaces compare and hash by the two counts alone."""

    __slots__ = ("x_count", "y_count", "shifts", "degree_shift")

    def __init__(self, x_count: int, y_count: int) -> None:
        set_field(self, "x_count", x_count)
        set_field(self, "y_count", y_count)
        if x_count < 0 or y_count < 0:
            raise ContractViolation("variable counts must be nonnegative")
        n = x_count + y_count
        set_field(self, "shifts", tuple(FIELD_BITS * (n - 1 - s) for s in range(n)))
        set_field(self, "degree_shift", FIELD_BITS * n)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.x_count == other.x_count and self.y_count == other.y_count

    def __hash__(self) -> int:
        return hash((self.x_count, self.y_count))

    @property
    def nvars(self) -> int:
        return self.x_count + self.y_count

    def x_slot(self, i: int) -> int:
        if not 1 <= i <= self.x_count:
            raise ContractViolation(f"x{i} outside space with r={self.x_count}")
        return i - 1

    def y_slot(self, j: int) -> int:
        if not 1 <= j <= self.y_count:
            raise ContractViolation(f"y{j} outside space with m={self.y_count}")
        return self.x_count + j - 1

    def var_name(self, slot: int) -> str:
        if slot < self.x_count:
            return f"x{slot + 1}"
        return f"y{slot - self.x_count + 1}"

    def pack(self, exponents: Sequence[int]) -> Monomial:
        """The packed monomial with the given exponents, one per slot."""
        degree = sum(exponents)
        if len(exponents) != self.nvars or min(exponents, default=0) < 0 or degree > MAX_DEGREE:
            raise ContractViolation(
                f"{tuple(exponents)} is no {self.nvars}-slot monomial of degree <= {MAX_DEGREE}"
            )
        return sum(e << s for e, s in zip(exponents, self.shifts)) + (degree << self.degree_shift)

    def exponents(self, mono: Monomial) -> tuple[int, ...]:
        """The exponent of each slot in a packed monomial, x-bank first."""
        return tuple([mono >> s & FIELD_MASK for s in self.shifts])

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, value: Scalar) -> "Polynomial":
        return Polynomial(self, {0: value})

    def x(self, i: int) -> "Polynomial":
        return self._variable(self.x_slot(i))

    def y(self, j: int) -> "Polynomial":
        return self._variable(self.y_slot(j))

    def _variable(self, slot: int) -> "Polynomial":
        mono = (1 << self.shifts[slot]) + (1 << self.degree_shift)
        return Polynomial._from_clean(self, {mono: 1})

    def monomial(self, exponents: Sequence[int]) -> "Polynomial":
        """The monomial with the given exponents, one per slot, x-bank first."""
        return Polynomial._from_clean(self, {self.pack(exponents): 1})


def _power(base, exponent: int, multiply, result):
    """base ** exponent by repeated squaring from ``result`` (the one of
    base's ring), every product through multiply."""
    while exponent:
        if exponent & 1:
            result = multiply(result, base)
        exponent >>= 1
        if exponent:
            base = multiply(base, base)
    return result


def _coeff(value: Scalar) -> Scalar:
    """Coefficients are stored as plain ints whenever integral; int and
    Fraction mix transparently (equality, hashing and printing agree), and
    integer arithmetic is far cheaper.  The exact type test skips the
    abstract-base-class machinery behind isinstance(value, numbers.Rational)."""
    if type(value) is not int and value.denominator == 1:
        return value.numerator
    return value


def _multiply_terms(f: dict, g: dict) -> dict:
    """The term dict of the product of two term dicts (degrees unchecked)."""
    terms: dict[Monomial, Scalar] = {}
    get = terms.get
    right = g.items()
    for m1, c1 in f.items():
        for m2, c2 in right:
            mono = m1 + m2
            new = get(mono, 0) + c1 * c2
            if new:
                terms[mono] = new
            else:
                del terms[mono]
    return terms


class Polynomial(Record):
    """Immutable sparse polynomial over a :class:`VariableSpace`."""

    __slots__ = ("space", "terms")

    def __init__(self, space: VariableSpace, terms: Mapping[Monomial, Scalar]):
        set_field(self, "space", space)
        set_field(self, "terms", {
            m: c if type(c) is int or c.denominator != 1 else c.numerator
            for m, c in terms.items() if c
        })

    @classmethod
    def _from_clean(cls, space: VariableSpace, terms: dict) -> "Polynomial":
        """Wrap a dict already known to hold no zero coefficients."""
        obj = object.__new__(cls)
        set_field(obj, "space", space)
        set_field(obj, "terms", terms)
        return obj

    # -- ring structure -------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.space != self.space:
                raise ContractViolation("polynomials live in different variable spaces")
            return other
        if isinstance(other, numbers.Rational):
            return self.space.const(other)
        return NotImplemented  # type: ignore[return-value]

    def _combine(self, other, op) -> "Polynomial":
        """self op other for op + or -, in one pass over other's terms."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        get = terms.get
        for mono, coeff in other.terms.items():
            new = _coeff(op(get(mono, 0), coeff))
            if new:
                terms[mono] = new
            else:
                del terms[mono]
        return Polynomial._from_clean(self.space, terms)

    def __add__(self, other) -> "Polynomial":
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_clean(
            self.space, {m: -c for m, c in self.terms.items()}
        )

    def __sub__(self, other) -> "Polynomial":
        return self._combine(other, operator.sub)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return self.space.zero()
        if self.total_degree() + other.total_degree() > MAX_DEGREE:
            raise ContractViolation(f"a product of degree above {MAX_DEGREE} does not pack")
        return Polynomial(self.space, _multiply_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Polynomial":
        if not isinstance(scalar, numbers.Rational) or scalar == 0:
            raise ContractViolation("polynomials divide only by nonzero scalars")
        terms = self.terms
        if type(scalar) is int and all(type(c) is int and not c % scalar for c in terms.values()):
            return Polynomial._from_clean(self.space, {m: c // scalar for m, c in terms.items()})
        from fractions import Fraction
        inv = Fraction(1, 1) / Fraction(scalar)
        return Polynomial._from_clean(self.space, {m: _coeff(c * inv) for m, c in terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ContractViolation("negative powers are not polynomials")
        return _power(self, exponent, Polynomial.__mul__, self.space.one())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            if not isinstance(other, numbers.Rational):
                return NotImplemented
            other = self.space.const(other)
        return self.space == other.space and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximum total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(self.terms) >> self.space.degree_shift

    def homogeneous_degree(self) -> Optional[int]:
        """The common degree of all terms, or None if inhomogeneous/zero."""
        shift = self.space.degree_shift
        degrees = {m >> shift for m in self.terms}
        if len(degrees) != 1:
            return None
        return degrees.pop()

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        return sorted(self.terms.items(), key=operator.itemgetter(0), reverse=True)

    # -- substitution and Weyl actions ------------------------------------

    def substitute(self, assignment: Mapping[int, Target]) -> "Polynomial":
        """Replace y-variables according to ``assignment``.

        Keys are 1-based y indices; every y-variable actually appearing in
        the polynomial must be covered.  x-variables pass through.
        """
        space = self.space
        plan: list[PlanEntry] = [None] * space.y_count
        for j, target in assignment.items():
            space.y_slot(j)
            if target is None:
                plan[j - 1] = 0
            else:
                sign, bank, idx = target
                if sign not in (1, -1):
                    raise ContractViolation("substitution sign must be +-1")
                slot = space.x_slot(idx) if bank == "x" else space.y_slot(idx)
                plan[j - 1] = (sign, space.shifts[slot])
        return Polynomial(space, substitute_terms(compile_terms(self), plan))

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def format_polynomial(poly: Polynomial, namer=None, memo: Optional[dict] = None) -> str:
    """Canonical expanded form, terms in descending graded-lex order.

    ``namer`` overrides variable naming (slot index -> name); the Chern
    rewrite uses it to print z-generators and the euler symbol.  ``memo``
    maps packed monomials to their text; calls that share a space and a
    namer, such as the rows of one table, may share one.
    """
    if not poly.terms:
        return "0"
    space = poly.space
    if namer is None:
        namer = space.var_name
    memo = {} if memo is None else memo
    fields = [(namer(slot), shift) for slot, shift in enumerate(space.shifts)]
    parts: list[str] = []
    for mono, coeff in poly.sorted_terms():
        body = memo.get(mono)
        if body is None:
            body = memo[mono] = "*".join(
                [
                    name if e == 1 else f"{name}^{e}"
                    for name, shift in fields
                    if (e := mono >> shift & FIELD_MASK)
                ]
            )
        mag = abs(coeff)
        if body and mag == 1:
            text = body
        elif body:
            text = f"{mag}*{body}"
        else:
            text = str(mag)
        if not parts:
            parts.append(text if coeff > 0 else f"-{text}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + text)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# substitution


def compile_terms(poly: Polynomial) -> list[CompiledTerm]:
    """Split each term for :func:`substitute_terms`, once per polynomial."""
    ybits = FIELD_BITS * poly.space.y_count
    yshifts = poly.space.shifts[poly.space.x_count :]
    return [
        (
            mono >> ybits << ybits,
            tuple((o, e) for o, s in enumerate(yshifts) if (e := mono >> s & FIELD_MASK)),
            coeff,
        )
        for mono, coeff in poly.terms.items()
    ]


def substitute_terms(compiled: Sequence[CompiledTerm], plan: Sequence[PlanEntry]) -> dict:
    """Substitute every y-variable by its plan entry (see ``PlanEntry``),
    returning the raw term dict, whose values may be 0 or integral
    Fractions (``Polynomial`` drops the one and converts the other).

    The one substitution loop: :meth:`Polynomial.substitute`, the
    general-linear closed classes (a signed permutation of the y-bank, on
    terms compiled once per pair) and the localization code all build a
    plan and call it.
    """
    terms: dict[Monomial, Scalar] = {}
    get = terms.get
    for key, ys, coeff in compiled:
        for offset, e in ys:
            target = plan[offset]
            if not target:
                if target is None:
                    raise ContractViolation(f"y{offset + 1} appears but has no assignment")
                break  # the term dies
            sign, shift = target
            key += e << shift
            if sign < 0 and e & 1:
                coeff = -coeff
        else:
            terms[key] = get(key, 0) + coeff
    return terms


# ---------------------------------------------------------------------------
# arithmetic helpers


def product(space: VariableSpace, factors: Iterable[Polynomial]) -> Polynomial:
    result = space.one()
    for f in factors:
        result = result * f
        if result.is_zero:
            break
    return result


def lift_y(poly: Polynomial, space: VariableSpace) -> Polynomial:
    """A polynomial in the y's alone, carried to ``space``, whose y-bank
    is the same: each term keeps its degree and its y-fields."""
    source, ybits = poly.space, FIELD_BITS * poly.space.y_count
    xfields = (1 << source.degree_shift) - (1 << ybits)
    if space.y_count != source.y_count or any(mono & xfields for mono in poly.terms):
        raise ContractViolation("lift_y carries a y-polynomial to a space with its y-bank")
    ys, shift = (1 << ybits) - 1, space.degree_shift
    terms = {(m >> source.degree_shift << shift) + (m & ys): c for m, c in poly.terms.items()}
    return Polynomial._from_clean(space, terms)


def split_leading_x(poly: Polynomial) -> tuple[tuple[int, ...], Polynomial]:
    """The graded-lex greatest x-exponents ``a`` among the terms of a
    nonzero polynomial, and the y-polynomial c with x^a * c the terms
    whose x-part is ``a``."""
    if not poly.terms:
        raise ContractViolation("zero polynomial has no leading term")
    space = poly.space
    xfields = (1 << space.degree_shift) - (1 << FIELD_BITS * space.y_count)
    # graded-lex order on the x-part alone, whose degree is not stored
    lead = max({mono & xfields for mono in poly.terms}, key=lambda x: (sum(space.exponents(x)), x))
    a = space.exponents(lead)[: space.x_count]
    drop = lead + (sum(a) << space.degree_shift)
    rest = {mono - drop: c for mono, c in poly.terms.items() if mono & xfields == lead}
    return a, Polynomial._from_clean(space, rest)


def elementary_symmetric(k: int, items: Sequence[Polynomial], space: VariableSpace) -> Polynomial:
    """e_k of the given polynomials of ``space`` (usually signed variables).

    e_0 = 1 and e_k = 0 once k exceeds the number of inputs.
    """
    if k < 0:
        raise ContractViolation("elementary symmetric index must be >= 0")
    if k > len(items):
        return space.zero()
    # Row DP: e[j] accumulates e_j of the prefix processed so far.
    e = [space.one()] + [space.zero()] * k
    for item in items:
        for j in range(min(k, len(e) - 1), 0, -1):
            e[j] = e[j] + item * e[j - 1]
    return e[k]


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """Return q with f = q*g, raising InternalError if g does not divide f.

    The tests' reference divided difference, (f - s(f)) / alpha, divides
    with it, where divisibility is guaranteed, so a nonzero remainder is a
    bug.  Leading terms are tracked with a lazy heap, so each reduction step
    costs O(|g| log T) instead of a full scan.
    """
    from fractions import Fraction
    if g.is_zero:
        raise ContractViolation("division by the zero polynomial")
    space = f.space
    g_items = list(g.terms.items())
    g_mono = max(g.terms)
    g_coeff = g.terms[g_mono]
    g_exponents = space.exponents(g_mono)
    rest = dict(f.terms)
    heap = [-m for m in rest]  # heapq pops the minimum, so leaders go in negated
    heapq.heapify(heap)
    quotient: dict[Monomial, Scalar] = {}
    while heap:
        mono = -heapq.heappop(heap)
        coeff = rest.get(mono)
        if not coeff:
            continue  # stale heap entry
        if any(a < b for a, b in zip(space.exponents(mono), g_exponents)):
            raise InternalError(
                f"non-exact polynomial division by {g}: leading remainder term"
                f" {Polynomial(space, {mono: coeff})}"
            )
        diff = mono - g_mono
        q_coeff = _coeff(Fraction(coeff) / g_coeff)
        quotient[diff] = quotient.get(diff, 0) + q_coeff
        for gm, gc in g_items:
            target = diff + gm
            value = rest.get(target, 0) - q_coeff * gc
            if value:
                if target not in rest:
                    heapq.heappush(heap, -target)
                rest[target] = value
            else:
                rest.pop(target, None)
    return Polynomial(space, quotient)


def poly_determinant(entries: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a square grid of polynomials, by cofactor expansion
    along the first row (skipping zero entries).

    The closed classes of the general-linear pairs need one staircase
    determinant of size at most n per pair, so no elimination method is
    kept beside it.
    """
    n = len(entries)
    if n == 0:
        raise ContractViolation("empty determinant needs a space; use const 1")
    for row in entries:
        if len(row) != n:
            raise ContractViolation("determinant requires a square grid")
    space = entries[0][0].space
    for row in entries:
        for entry in row:
            if entry.space != space:
                raise ContractViolation("determinant entries in different spaces")
    return _det_cofactor(space, [list(r) for r in entries])


def _det_cofactor(space: VariableSpace, m: list[list[Polynomial]]) -> Polynomial:
    n = len(m)
    if n == 1:
        return m[0][0]
    result = space.zero()
    for col in range(n):
        entry = m[0][col]
        if entry.is_zero:
            continue
        minor = [[row[c] for c in range(n) if c != col] for row in m[1:]]
        term = entry * _det_cofactor(space, minor)
        result = result + term if col % 2 == 0 else result - term
    return result


# ---------------------------------------------------------------------------
# divided difference operators


class SimpleRootAction(Record):
    """What :func:`divided_difference` needs of a simple root: its
    ``shape``, "A" (u - v), "B" (u), "C" (2u) or "D" (u + v), and the
    exponent ``slot`` of u; v, for A and D, sits at ``slot + 1``.
    """

    __slots__ = ("shape", "slot")

    def __init__(self, shape: str, slot: int):
        set_fields(self, shape, slot)


def simple_root_action(space: VariableSpace, family: str, i: int) -> SimpleRootAction:
    """The action for simple root alpha_i of the given root-system family.

    Families use the positive-system conventions of the classical groups:
    type A has alpha_i = y_i - y_{i+1}; types B/C/D share those for i < n
    and end with alpha_n = y_n, 2*y_n, y_{n-1}+y_n respectively.  n is the
    y-bank size.
    """
    m = space.y_count
    if family == "A" or i < m:
        if not 1 <= i <= m - 1:
            raise ContractViolation(f"alpha_{i} out of range for type A rank {m - 1}")
        return SimpleRootAction("A", space.y_slot(i))
    if i != m:
        raise ContractViolation(f"alpha_{i} out of range for rank {m}")
    if family in ("B", "C"):
        return SimpleRootAction(family, space.y_slot(m))
    if family == "D":
        if m < 2:
            raise ContractViolation("type D needs rank >= 2")
        return SimpleRootAction("D", space.y_slot(m - 1))
    raise ContractViolation(f"unknown family {family!r}")


def divided_difference(f: Polynomial, action: SimpleRootAction) -> Polynomial:
    """(f - s(f)) / alpha, computed term by term without any division.

    Closed forms per root shape (Bernstein-Gel'fand-Gel'fand 1973;
    Demazure 1974), with u, v the variables of the root:

    - A, u - v: u^a v^b -> sum of u^e v^(a+b-1-e) over min(a,b) <= e <
      max(a,b), negated when a < b; 0 when a = b;
    - B, u: u^a -> 2u^(a-1) for odd a, else 0;
    - C, 2u: u^a -> u^(a-1) for odd a, else 0;
    - D, u + v: the A rule after v -> -w, then w -> -v, so the output
      terms alternate in sign, starting from (-1)^(a+1+min(a,b)).
    """
    space = f.space
    sa = space.shifts[action.slot]
    lower = 1 << space.degree_shift  # every output term has one degree less
    terms: dict[Monomial, Scalar] = {}
    if action.shape in ("B", "C"):
        scale = 2 if action.shape == "B" else 1
        drop = (1 << sa) + lower
        for mono, coeff in f.terms.items():
            if mono >> sa & 1:
                terms[mono - drop] = scale * coeff
        return Polynomial(space, terms)
    sb = sa - FIELD_BITS  # v sits in the next slot, one field lower
    step = (1 << sa) - (1 << sb)  # u^e v^(d-e) -> u^(e+1) v^(d-e-1)
    first = (1 << sb) + lower
    twisted = action.shape == "D"
    get, mask = terms.get, FIELD_MASK
    for mono, coeff in f.terms.items():
        a, b = mono >> sa & mask, mono >> sb & mask
        if a == b:
            continue
        if a > b:
            lo, hi = b, a
        else:
            lo, hi, coeff = a, b, -coeff
        if twisted and not (a + lo) & 1:
            coeff = -coeff
        alt = -coeff if twisted else coeff
        key = mono + (lo - a) * step - first  # u^lo v^(a+b-1-lo)
        for _ in range(lo, hi):
            terms[key] = get(key, 0) + coeff
            coeff, alt = alt, coeff
            key += step
    return Polynomial(space, terms)


# ---------------------------------------------------------------------------
# text grammar


def parse_polynomial(text: str, space: VariableSpace) -> Polynomial:
    """Parse the fixture/CLI grammar.

    Integers and fractions ``a/b``; variables ``x1..xr``, ``y1..ym``;
    operators ``+ - * ^``; parentheses.  Implicit multiplication is a
    syntax error.
    """
    parser = _Parser(_tokenize(text), space)
    terms = parser.expression()
    if parser.peek() != "end":
        raise UsageError(f"trailing input near {parser.tokens[parser.pos][1]!r}")
    return Polynomial(space, terms)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        j = i + 1
        if ch.isdigit() or ch in "xy":
            while j < len(text) and text[j].isdigit():
                j += 1
            if ch in "xy" and j == i + 1:
                raise UsageError(f"variable {ch!r} needs an index")
            tokens.append(("var" if ch in "xy" else "num", text[i:j]))
        elif ch in "+-*^()/":
            tokens.append((ch, ch))
        elif not ch.isspace():
            raise UsageError(f"unexpected character {ch!r} in polynomial")
        i = j
    return tokens


MAX_NESTING = 100  # parentheses plus unary minus signs, well below the recursion limit
# Largest exponent, and largest degree of a power or a product, that the
# grammar accepts, well below MAX_DEGREE.
# No class reaches it: the biggest flag variety the CLI handles has
# dimension n^2 <= 64.
MAX_EXPONENT = 64
# Largest work a parsed product or power may take on, counted in terms: the
# term pairs |f|*|g| of a product, and the bound C(t*e + k, k) on the terms
# of a power of degree t*e in k variables.  No input of the test suite or
# the benchmark goes past 1,089 term pairs or a power bound of 2,145.
MAX_TERMS = 10**6


class _Parser:
    """Recursive descent straight into packed term dicts: ``{}`` for zero,
    ``{0: c}`` for a numeral, ``{key: 1}`` for a variable."""

    def __init__(self, tokens: list[tuple[str, str]], space: VariableSpace):
        self.tokens = tokens + [("end", "")]
        self.pos = 0
        self.space = space
        self.depth = 0

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def take(self) -> tuple[str, str]:
        token = self.tokens[self.pos]
        if token[0] == "end":
            raise UsageError("unexpected end of polynomial")
        self.pos += 1
        return token

    def degree(self, terms: dict) -> int:
        return max(terms) >> self.space.degree_shift if terms else -1

    def expression(self) -> dict:
        terms: dict = {}
        get = terms.get
        op = self.take()[0] if self.peek() in ("+", "-") else "+"
        while True:
            for key, coeff in self.term().items():
                total = get(key, 0) + coeff if op == "+" else get(key, 0) - coeff
                if total:
                    terms[key] = total
                else:
                    del terms[key]
            if self.peek() not in ("+", "-"):
                return terms
            op = self.take()[0]

    def term(self) -> dict:
        result = self.factor()
        while self.tokens[self.pos][0] == "*":
            self.pos += 1
            result = self.product(result, self.factor())
        return result

    def product(self, f: dict, g: dict) -> dict:
        if self.degree(f) + self.degree(g) > MAX_EXPONENT:
            raise UsageError(f"a product may have degree at most {MAX_EXPONENT}")
        m, n = len(f), len(g)
        if m * n > MAX_TERMS:
            raise UsageError(
                f"a product of {m} by {n} terms makes {m * n} term pairs, more than {MAX_TERMS}"
            )
        return _multiply_terms(f, g)

    def factor(self) -> dict:
        base = self.primary()
        while self.tokens[self.pos][0] == "^":
            self.pos += 1
            kind, text = self.take()
            if kind != "num":
                raise UsageError("exponent must be a nonnegative integer")
            # the length test keeps int() off numerals past its digit limit
            exponent = parse_decimal(text, "exponent") if len(text) <= 6 else MAX_EXPONENT + 1
            if max(self.degree(base), 1) * exponent > MAX_EXPONENT:
                raise UsageError(f"a power may have degree at most {MAX_EXPONENT}")
            # a field of the bitwise or of all monomials is nonzero when some term uses its slot
            used = sum(map(bool, self.space.exponents(reduce(operator.or_, base, 0))))
            bound = math.comb(max(self.degree(base), 0) * exponent + used, used)
            if bound > MAX_TERMS:
                raise UsageError(f"a power may have up to {bound} terms, more than {MAX_TERMS}")
            base = _power(base, exponent, self.product, {0: 1})
        return base

    def primary(self) -> dict:
        kind, text = self.take()
        if kind in ("-", "("):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise UsageError(f"polynomial nests deeper than {MAX_NESTING} levels")
            value = self.primary() if kind == "-" else self.expression()
            self.depth -= 1
            if kind == "-":
                return {k: -c for k, c in value.items()}
            if self.take()[0] != ")":
                raise UsageError("unbalanced parentheses")
            return value
        if kind == "num":
            value = parse_decimal(text, "numeral")
            if self.peek() == "/":
                self.pos += 1
                dkind, dtext = self.take()
                if dkind != "num":
                    raise UsageError("fraction denominator must be an integer")
                denominator = parse_decimal(dtext, "denominator")
                if denominator == 0:
                    raise UsageError("fraction has a zero denominator")
                from fractions import Fraction
                value = Fraction(value, denominator)
            return {0: value} if value else {}
        if kind == "var":
            index = parse_decimal(text[1:], "variable index")
            slot = self.space.x_slot(index) if text[0] == "x" else self.space.y_slot(index)
            return {(1 << self.space.shifts[slot]) + (1 << self.space.degree_shift): 1}
        raise UsageError(f"unexpected token {text!r}")
