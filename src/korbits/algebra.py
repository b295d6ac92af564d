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

On top of the ring operations the module provides composition (x's
replaced by polynomials, y's passed through), elementary symmetric
polynomials, determinants of polynomial matrices by cofactor expansion,
exact division, divided difference operators for the classical root
systems, and a text grammar used by fixtures and the CLI.  Every
substitution of variables runs through the one loop
:func:`substitute_planned`.  It is the only module that reads the term
dict.
"""

from __future__ import annotations

import heapq
import math
import operator
from fractions import Fraction
from functools import reduce
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import ContractViolation, InternalError, UsageError
from .records import Record, set_field, set_fields

Monomial = int  # packed, see the module docstring
Scalar = Union[int, Fraction]

FIELD_BITS = 8
FIELD_MASK = (1 << FIELD_BITS) - 1
#: Largest total degree of a packed monomial; each exponent is at most this.
MAX_DEGREE = FIELD_MASK

#: Substitution target for a y-variable: None kills the variable (maps it
#: to zero); otherwise (sign, bank, index) with bank "x" or "y", sign +-1.
Target = Optional[tuple[int, str, int]]

#: A substitution plan holds one entry per y-variable: None when it is
#: unassigned, 0 when it maps to zero, else (sign, exponent slot of its image).
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
        return Polynomial(self, {0: Fraction(value)})

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


def _power(base: "Polynomial", exponent: int, multiply) -> "Polynomial":
    """base ** exponent by repeated squaring, every product through multiply."""
    result = base.space.one()
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
    abstract-base-class machinery behind isinstance(value, Fraction)."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def _ints(terms: dict) -> dict:
    """Store every integral Fraction value of ``terms`` as an int, in place."""
    for mono, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[mono] = c.numerator
    return terms


class Polynomial(Record):
    """Immutable sparse polynomial over a :class:`VariableSpace`."""

    __slots__ = ("space", "terms")

    def __init__(self, space: VariableSpace, terms: Mapping[Monomial, Scalar]):
        set_field(self, "space", space)
        set_field(self, "terms", _ints({m: c for m, c in terms.items() if c}))

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
        if isinstance(other, (int, Fraction)):
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
        terms: dict[Monomial, Scalar] = {}
        get = terms.get
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                mono = m1 + m2
                new = get(mono, 0) + c1 * c2
                if new:
                    terms[mono] = new
                else:
                    del terms[mono]
        return Polynomial._from_clean(self.space, _ints(terms))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Polynomial":
        if not isinstance(scalar, (int, Fraction)) or scalar == 0:
            raise ContractViolation("polynomials divide only by nonzero scalars")
        inv = Fraction(1, 1) / Fraction(scalar)
        return Polynomial._from_clean(
            self.space, {m: _coeff(c * inv) for m, c in self.terms.items()}
        )

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ContractViolation("negative powers are not polynomials")
        return _power(self, exponent, Polynomial.__mul__)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.space.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
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
                plan[j - 1] = (sign, slot)
        return substitute_planned(space, compile_terms(self), plan)

    def map_y(self, images: Sequence[tuple[int, int]]) -> "Polynomial":
        """Apply a signed permutation to the y-bank.

        ``images[j-1] = (sign, k)`` sends y_j to sign*y_k.  x-variables are
        untouched.  Used for the reflections of :func:`reflect` and to
        translate the general-linear closed classes.
        """
        space = self.space
        plan = [(sign, space.y_slot(k)) for sign, k in images]
        return substitute_planned(space, compile_terms(self), plan)

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
    """Split each term for :func:`substitute_planned`, once per polynomial."""
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


def substitute_planned(
    space: VariableSpace, compiled: Sequence[CompiledTerm], plan: Sequence[PlanEntry]
) -> Polynomial:
    """Substitute every y-variable by its plan entry (see ``PlanEntry``).

    The one substitution loop: :meth:`Polynomial.substitute`,
    :meth:`Polynomial.map_y` and the localization code all build a plan
    and call it.
    """
    shifts = space.shifts
    # None and 0 stay as they are; (sign, slot) becomes (sign, field shift)
    plan = [target and (target[0], shifts[target[1]]) for target in plan]
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
            value = get(key, 0) + coeff
            if value:
                terms[key] = value
            else:
                del terms[key]
    return Polynomial._from_clean(space, _ints(terms))


# ---------------------------------------------------------------------------
# arithmetic helpers


def product(space: VariableSpace, factors: Iterable[Polynomial]) -> Polynomial:
    result = space.one()
    for f in factors:
        result = result * f
        if result.is_zero:
            break
    return result


def compose(poly: Polynomial, images: Sequence[Polynomial]) -> Polynomial:
    """Replace each x-variable of ``poly`` by its image; the y's pass through.

    ``images[i-1]`` is the image of x_i.  The images share one space, which
    the result lives in and whose y-bank matches that of ``poly``.  Each
    x-part is expanded once, and the terms accumulate in one dict, so the
    cost is linear in the terms of ``poly``.
    """
    r, m = poly.space.x_count, poly.space.y_count
    if len(images) != r or not images:
        raise ContractViolation("compose needs one image per x-variable")
    space = images[0].space
    if any(image.space != space for image in images) or space.y_count != m:
        raise ContractViolation("images must share one space with the same y-bank")
    source, ybits = poly.space, FIELD_BITS * m
    # degree and x-fields of a term -> (image of its x-part, its y-degree field)
    parts: dict[Monomial, tuple] = {}
    terms: dict[Monomial, Scalar] = {}
    get = terms.get
    for mono, coeff in poly.terms.items():
        part = parts.get(mono >> ybits)
        if part is None:
            xs = source.exponents(mono)[:r]
            image = product(space, (images[i] ** e for i, e in enumerate(xs) if e))
            ydegree = (mono >> source.degree_shift) - sum(xs)
            if image.total_degree() + ydegree > MAX_DEGREE:
                raise ContractViolation(f"a composite of degree above {MAX_DEGREE} does not pack")
            part = parts[mono >> ybits] = (image.terms.items(), ydegree << space.degree_shift)
        image, ys = part
        ys += mono & ((1 << ybits) - 1)
        for key, c in image:
            key += ys
            terms[key] = get(key, 0) + coeff * c
    return Polynomial(space, terms)


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


def elementary_symmetric(
    k: int, items: Sequence[Polynomial], space: Optional[VariableSpace] = None
) -> Polynomial:
    """e_k of the given polynomials (usually signed variables).

    e_0 = 1 and e_k = 0 once k exceeds the number of inputs.  ``space`` is
    only needed when ``items`` is empty.
    """
    if k < 0:
        raise ContractViolation("elementary symmetric index must be >= 0")
    if space is None:
        if not items:
            raise ContractViolation("empty input needs an explicit space")
        space = items[0].space
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
            raise InternalError("non-exact polynomial division")
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
    """A simple reflection on the y-bank together with its root.

    ``reflection[j-1] = (sign, k)`` gives the image of y_j; ``root`` is the
    simple root as a polynomial in the y-variables.  ``shape`` names the
    root's form for :func:`divided_difference`: "A" (u - v), "B" (u),
    "C" (2u) or "D" (u + v), where u sits at exponent slot ``slot`` and v,
    for A and D, at ``slot + 1``.
    """

    __slots__ = ("space", "reflection", "root", "shape", "slot")

    def __init__(self, space: VariableSpace, reflection, root: Polynomial, shape: str, slot: int):
        set_fields(self, space, reflection, root, shape, slot)


def simple_root_action(space: VariableSpace, family: str, i: int) -> SimpleRootAction:
    """The action for simple root alpha_i of the given root-system family.

    Families use the positive-system conventions of the classical groups:
    type A has alpha_i = y_i - y_{i+1}; types B/C/D share those for i < n
    and end with alpha_n = y_n, 2*y_n, y_{n-1}+y_n respectively (type D's
    last reflection sends y_{n-1} to -y_n).  n is the y-bank size.
    """
    m = space.y_count
    identity = [(1, j) for j in range(1, m + 1)]
    if family == "A" or i < m:
        if not 1 <= i <= m - 1:
            raise ContractViolation(f"alpha_{i} out of range for type A rank {m - 1}")
        images = list(identity)
        images[i - 1], images[i] = images[i], images[i - 1]
        root = space.y(i) - space.y(i + 1)
        return SimpleRootAction(space, tuple(images), root, "A", space.y_slot(i))
    if i != m:
        raise ContractViolation(f"alpha_{i} out of range for rank {m}")
    if family == "B":
        images = list(identity)
        images[m - 1] = (-1, m)
        return SimpleRootAction(space, tuple(images), space.y(m), "B", space.y_slot(m))
    if family == "C":
        images = list(identity)
        images[m - 1] = (-1, m)
        root = 2 * space.y(m)
        return SimpleRootAction(space, tuple(images), root, "C", space.y_slot(m))
    if family == "D":
        if m < 2:
            raise ContractViolation("type D needs rank >= 2")
        images = list(identity)
        images[m - 2] = (-1, m)
        images[m - 1] = (-1, m - 1)
        root = space.y(m - 1) + space.y(m)
        return SimpleRootAction(space, tuple(images), root, "D", space.y_slot(m - 1))
    raise ContractViolation(f"unknown family {family!r}")


def reflect(f: Polynomial, action: SimpleRootAction) -> Polynomial:
    return f.map_y(action.reflection)


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
    tokens = _tokenize(text)
    parser = _Parser(tokens, space)
    result = parser.parse_expression()
    parser.expect_end()
    return result


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j]))
            i = j
            continue
        if ch in "xy":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise UsageError(f"variable {ch!r} needs an index")
            tokens.append(("var", text[i:j]))
            i = j
            continue
        if ch in "+-*^()/":
            tokens.append((ch, ch))
            i += 1
            continue
        raise UsageError(f"unexpected character {ch!r} in polynomial")
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


def _numeral(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # longer than the interpreter's int-string digit limit
        raise UsageError(f"numeral of {len(text)} digits is too long") from None


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], space: VariableSpace):
        self.tokens = tokens
        self.pos = 0
        self.space = space
        self.depth = 0

    def peek(self) -> Optional[str]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def take(self) -> tuple[str, str]:
        if self.pos >= len(self.tokens):
            raise UsageError("unexpected end of polynomial")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_end(self) -> None:
        if self.pos != len(self.tokens):
            raise UsageError(f"trailing input near {self.tokens[self.pos][1]!r}")

    def parse_expression(self) -> Polynomial:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        result = sign * self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            term = self.parse_term()
            result = result + term if op == "+" else result - term
        return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while self.peek() == "*":
            self.take()
            result = self.product(result, self.parse_factor())
        return result

    def product(self, f: Polynomial, g: Polynomial) -> Polynomial:
        if f.total_degree() + g.total_degree() > MAX_EXPONENT:
            raise UsageError(f"a product may have degree at most {MAX_EXPONENT}")
        pairs = len(f.terms) * len(g.terms)
        if pairs > MAX_TERMS:
            raise UsageError(
                f"a product of {len(f.terms)} by {len(g.terms)} terms makes {pairs} "
                f"term pairs, more than {MAX_TERMS}"
            )
        return f * g

    def power(self, base: Polynomial, exponent: int) -> Polynomial:
        # a field of the bitwise or of all monomials is nonzero when some term uses its slot
        used = sum(map(bool, base.space.exponents(reduce(operator.or_, base.terms, 0))))
        bound = math.comb(max(base.total_degree(), 0) * exponent + used, used)
        if bound > MAX_TERMS:
            raise UsageError(f"a power may have up to {bound} terms, more than {MAX_TERMS}")
        return _power(base, exponent, self.product)

    def parse_factor(self) -> Polynomial:
        base = self.parse_primary()
        while self.peek() == "^":
            self.take()
            kind, text = self.take()
            if kind != "num":
                raise UsageError("exponent must be a nonnegative integer")
            # the length test keeps int() off numerals past its digit limit
            if len(text) > 6 or max(base.total_degree(), 1) * int(text) > MAX_EXPONENT:
                raise UsageError(f"a power may have degree at most {MAX_EXPONENT}")
            base = self.power(base, int(text))
        return base

    def nested(self, parse):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise UsageError(f"polynomial nests deeper than {MAX_NESTING} levels")
        result = parse()
        self.depth -= 1
        return result

    def parse_primary(self) -> Polynomial:
        kind, text = self.take()
        if kind == "-":
            return -self.nested(self.parse_primary)
        if kind == "num":
            value = Fraction(_numeral(text))
            if self.peek() == "/":
                self.take()
                dkind, dtext = self.take()
                if dkind != "num":
                    raise UsageError("fraction denominator must be an integer")
                denominator = _numeral(dtext)
                if denominator == 0:
                    raise UsageError("fraction has a zero denominator")
                value = value / denominator
            return self.space.const(value)
        if kind == "var":
            index = _numeral(text[1:])
            return self.space.x(index) if text[0] == "x" else self.space.y(index)
        if kind == "(":
            inner = self.nested(self.parse_expression)
            close, _ = self.take()
            if close != ")":
                raise UsageError("unbalanced parentheses")
            return inner
        raise UsageError(f"unexpected token {text!r}")
