"""Test-only reference implementations replaced by faster library code.

``parse_polynomial_reference`` is the former recursive-descent parser, which
builds a ``Polynomial`` for every atom and every partial sum and product.
``first_disagreement_reference`` is the former localization walk: one
``SignedPermutation``, one substitution plan and one ``Polynomial`` per
fixed point, with each plan built from the restriction map rather than from
the library's per-pair plan table.  ``group_images_reference`` is the
former element order of ``enumerate_group``, and ``restriction_assignment``
the assignment dict that restriction substituted before the plan tables.
``canonical_symbols`` is the renumbering that every clan move ran when
clans were stored by their printed numbers rather than by their mates.
``propagate_all_reference`` is the former class walk, which keeps every
class of the table alive until the walk ends.
"""

import itertools
import math
import operator
from fractions import Fraction
from functools import reduce
from typing import Optional

from korbits.algebra import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERMS,
    Polynomial,
    VariableSpace,
    _numeral,
    _power,
    _tokenize,
    compile_terms,
    divided_difference,
    substitute_terms,
)
from korbits.classes import EquivariantClass, closed_orbit_class, first_disagreement
from korbits.errors import InternalError, UsageError
from korbits.orbits import build_weak_order_graph
from korbits.weyl import enumerate_group, restriction_map


def parse_polynomial_reference(text: str, space: VariableSpace) -> Polynomial:
    parser = _Parser(_tokenize(text), space)
    result = parser.parse_expression()
    parser.expect_end()
    return result


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
        return _power(base, exponent, self.product, base.space.one())

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


def first_disagreement_reference(c1, c2) -> Optional[tuple[int, ...]]:
    """The images of the first fixed point, in ``enumerate_group`` order,
    where the two classes restrict differently, or None."""
    if c1.polynomial == c2.polynomial:
        return None
    pair = c1.pair
    space = pair.variable_space()
    rho = restriction_map(pair)
    diff = compile_terms(c1.polynomial - c2.polynomial)
    for w in enumerate_group(*pair.ambient_family()):
        plan = []
        for v in w.images:
            target = rho[abs(v) - 1]
            if target is None:
                plan.append(0)
            else:
                sign, idx = target
                plan.append((sign if v > 0 else -sign, space.shifts[idx - 1]))
        if not Polynomial(space, substitute_terms(diff, plan)).is_zero:
            return w.images
    return None


def group_images_reference(family: str, n: int):
    for perm in itertools.permutations(range(1, n + 1)):
        if family == "A":
            yield perm
            continue
        for signs in itertools.product((1, -1), repeat=n):
            if family == "D" and signs.count(-1) % 2:
                continue
            yield tuple(s * v for s, v in zip(signs, perm))


def restriction_assignment(pair, w):
    """Substitution y_j -> rho(w . Y_j) as an algebra assignment dict."""
    rho = restriction_map(pair)
    assignment = {}
    for j in range(1, len(rho) + 1):
        v = w.images[j - 1]
        target = rho[abs(v) - 1]
        if target is None:
            assignment[j] = None
        else:
            sign, idx = target
            assignment[j] = (sign if v > 0 else -sign, "x", idx)
    return assignment


def canonical_symbols(symbols):
    """Clan symbols with the numbers renamed 1, 2, ... in order of first
    occurrence."""
    rename = {}
    out = []
    for sym in symbols:
        if sym in ("+", "-"):
            out.append(sym)
        else:
            if sym not in rename:
                rename[sym] = len(rename) + 1
            out.append(rename[sym])
    return tuple(out)


def propagate_all_reference(pair):
    """Classes for every orbit: the weak-order edges walked in order, the
    first arrival at each node kept and every later one checked against it,
    and every class held until the end."""
    graph = build_weak_order_graph(pair)
    classes = {param: closed_orbit_class(pair, param) for param in graph.closed}
    for edge in graph.edges:
        poly = divided_difference(
            classes[edge.source].polynomial, pair.root_action(edge.root_index)
        )
        if edge.degree == 2:
            poly = poly / 2
        candidate = EquivariantClass(pair, poly)
        stored = classes.get(edge.target)
        if stored is None:
            classes[edge.target] = candidate
        elif first_disagreement(stored, candidate) is not None:
            raise InternalError(f"paths into {edge.target} disagree under localization")
    return classes
