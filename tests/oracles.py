"""Test-only reference implementations: code the library replaced with
faster code, and code that only the tests call.

``parse_polynomial_reference`` is the former recursive-descent parser, which
builds a ``Polynomial`` for every atom and every partial sum and product.
``first_disagreement`` is the witness of one ``settle`` comparison of two
classes, the former library wrapper that ``equal_via_localization`` now
calls ``settle`` for itself, and ``order_key`` the order of
``enumerate_orbits``: a clan's sort key, else the involution and its tag.
``first_disagreement_reference`` is the former localization walk: one
``SignedPermutation``, one substitution plan and one ``Polynomial`` per
fixed point, with each plan built from the restriction map rather than from
the library's per-pair plan table.  ``group_images_reference`` is the
former order of ``group_images``, and ``restriction_assignment`` the
assignment dict that restriction substituted before the plan tables.
``canonical_symbols`` is the renumbering that every clan move ran when
clans were stored by their printed numbers rather than by their mates.
``clans_reference`` builds every clan of a signature from its number
positions, their matching and its plus positions, independently of the
library's generator.
``is_symmetric``, ``is_skew_symmetric`` and ``is_anti_reflexive`` test a
clan against its mirror image, and ``clan_rule_admits`` combines them into
the filter form of a pair's clan rule, the reference for the generator and
for the clans that ``parse_orbit_parameter`` accepts.
``propagate_all_reference`` is the former class walk, which keeps every
class of the table alive until the walk ends.

``reflection_images``, ``simple_root`` and ``reflect`` are the simple
reflections and roots that the library's divided differences no longer
carry, built from the generator conventions of ``weyl``'s docstring, so
the reference operator (f - s f) / alpha takes neither s nor alpha from
the code it checks.  ``map_y`` is the former ``Polynomial.map_y``, on
exponent tuples, and ``closed_gl_reference`` the former general-linear
closed class built with it: the pair's staircase determinant relabelled,
then multiplied by its sign through the generic product.
``closed_class_reference`` is the former representative-based form of
every closed-orbit formula, read off a torus-fixed point through ``l_p``,
``sign_stats`` and ``unequal_rank_stats``, the statistics the library now
reads off the clan's sign string; ``inverse``, ``absolute``, ``identity``,
``evaluate`` (w(i), with w(-i) = -w(i)) and ``compose`` are former
``SignedPermutation`` methods.  ``closed_orbits_reference`` is the former
per-rule generator of the closed orbits, each built by hand with a
torus-fixed representative, which the library now reads off the orbit set
and the membership test.

``enumerate_group`` wraps each image tuple of ``weyl.group_images`` in a
``SignedPermutation`` without validating it again, for the tests that need
elements; the library walks the image tuples alone.  ``is_identity``,
``coxeter_length`` (positive roots sent negative) and ``times_generator``
(right multiplication by s_i) are former ``SignedPermutation`` methods.
``conjugation_by_longest`` is the twist w -> w0 w w0 of the type A pairs,
``twisted_involution_action`` the monoid action of the simple reflections
on twisted involutions, and ``cross_action`` the Weyl-group cross action
on orbit parameters: the tests check the involution moves of
``classify_simple_root`` against the first two, and that a raise has
degree two exactly when the cross action of its reflection fixes the orbit.
``chern_expand`` substitutes a ``ChernExpression``'s generators back, the
inverse of ``to_chern_basis``.

``weight_product_oracle`` is the product of the normal-space torus weights
at a fixed point of a closed orbit, computed from root data alone
(``_positive_roots`` of the ambient group pushed through w, less the
``_subgroup_roots`` of K, whose block families ``_SUBGROUP_BLOCKS`` keeps
by pair descriptor) and so independently of the closed-orbit formulas; the tests compare it with ``restrict_at`` of every closed class.
It reads membership from the library's closed-orbit rule table.
"""

import itertools
import math
import operator
from fractions import Fraction
from functools import partial, reduce
from typing import Callable, Optional

import korbits.classes
from korbits.algebra import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERMS,
    Polynomial,
    VariableSpace,
    _power,
    _tokenize,
    compile_terms,
    divided_difference,
    exact_divide,
    product,
    simple_root_action,
    substitute_terms,
)
from korbits.clans import MINUS, PLUS, Clan
from korbits.classes import (
    ChernExpression,
    EquivariantClass,
    _closed_member,
    _component_representatives,
    _require_closed,
    _staircase_terms,
    closed_orbit_class,
    settle,
    staircase_determinant,
)
from korbits.errors import ContractViolation, InternalError, UsageError, parse_decimal
from korbits.orbits import (
    InvolutionOrbit,
    OrbitParameter,
    build_weak_order_graph,
)
from korbits.pairs import SymmetricPair
from korbits.records import set_field
from korbits.weyl import SignedPermutation, group_images, restriction_map


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
            exponent = parse_decimal(text, "exponent") if len(text) <= 6 else MAX_EXPONENT + 1
            if max(base.total_degree(), 1) * exponent > MAX_EXPONENT:
                raise UsageError(f"a power may have degree at most {MAX_EXPONENT}")
            base = self.power(base, exponent)
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
            value = Fraction(parse_decimal(text, "numeral"))
            if self.peek() == "/":
                self.take()
                dkind, dtext = self.take()
                if dkind != "num":
                    raise UsageError("fraction denominator must be an integer")
                denominator = parse_decimal(dtext, "denominator")
                if denominator == 0:
                    raise UsageError("fraction has a zero denominator")
                value = value / denominator
            return self.space.const(value)
        if kind == "var":
            index = parse_decimal(text[1:], "variable index")
            return self.space.x(index) if text[0] == "x" else self.space.y(index)
        if kind == "(":
            inner = self.nested(self.parse_expression)
            close, _ = self.take()
            if close != ")":
                raise UsageError("unbalanced parentheses")
            return inner
        raise UsageError(f"unexpected token {text!r}")


def first_disagreement(c1, c2) -> Optional[tuple[int, ...]]:
    """The images of the first fixed point, in ``group_images`` order, where
    the two classes restrict differently, or None."""
    return settle(c1.pair, [(c1.polynomial, c2.polynomial)])[0]


def order_key(param: OrbitParameter):
    return param.sort_key() if isinstance(param, Clan) else (param.involution, param.component)


def first_disagreement_reference(c1, c2) -> Optional[tuple[int, ...]]:
    """The images of the first fixed point, in ``enumerate_group`` order,
    where the two classes restrict differently, or None."""
    if c1.polynomial == c2.polynomial:
        return None
    pair = c1.pair
    space = pair.variable_space()
    rho = restriction_map(pair)
    diff = compile_terms(c1.polynomial - c2.polynomial)
    for w in enumerate_group(*pair.ambient):
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


def _perfect_matchings(points: tuple) -> list[tuple]:
    """Every way to split ``points`` into pairs."""
    if not points:
        return [()]
    first, rest = points[0], points[1:]
    return [
        ((first, partner),) + matching
        for k, partner in enumerate(rest)
        for matching in _perfect_matchings(rest[:k] + rest[k + 1 :])
    ]


def clans_reference(a: int, b: int) -> list[Clan]:
    """All clans of signature (a, b), sorted: for each k, 2k positions
    for the numbers, each perfect matching of them, then the a - k plus
    signs among the other positions."""
    size = a + b
    clans = []
    for k in range(min(a, b) + 1):
        for paired in itertools.combinations(range(size), 2 * k):
            rest = [pos for pos in range(size) if pos not in paired]
            for matching in _perfect_matchings(paired):
                for plus in itertools.combinations(rest, a - k):
                    symbols: list = ["+" if pos in plus else "-" for pos in range(size)]
                    for label, ends in enumerate(matching, start=1):
                        for pos in ends:
                            symbols[pos] = label
                    clans.append(Clan(symbols))
    return sorted(clans, key=Clan.sort_key)


def _mirror_image(clan: Clan, signs: dict) -> tuple:
    """Mates of the reversed clan, its signs mapped through ``signs``."""
    end = len(clan) + 1
    return tuple(signs[m] if m in signs else end - m for m in reversed(clan.mates))


def is_symmetric(clan: Clan) -> bool:
    return _mirror_image(clan, {"+": "+", "-": "-"}) == clan.mates


def is_skew_symmetric(clan: Clan) -> bool:
    """Equal to its reverse with every sign flipped."""
    return _mirror_image(clan, {"+": "-", "-": "+"}) == clan.mates


def is_anti_reflexive(clan: Clan) -> bool:
    """No number sits at a pair of mirrored positions (i, L+1-i)."""
    end = len(clan) + 1
    return not any(mate == end - pos for pos, mate in enumerate(clan.mates, start=1))


def clan_rule_admits(pair: SymmetricPair, clan: Clan) -> bool:
    """The pair's clan rule as a test of one clan of its signature."""
    rule = pair.kind.clan_rule
    return (
        (rule.mirror != "symmetric" or is_symmetric(clan))
        and (rule.mirror != "skew" or is_skew_symmetric(clan))
        and (not rule.anti_reflexive or is_anti_reflexive(clan))
        and (not rule.even_front or clan.front_parity_even())
    )


def propagate_all_reference(pair):
    """Classes for every orbit: the weak-order edges walked in order, the
    first arrival at each node kept and every later one checked against it,
    and every class held until the end."""
    graph = build_weak_order_graph(pair)
    classes = {param: closed_orbit_class(pair, param) for param in graph.closed}
    for edge in graph.edges:
        action = simple_root_action(pair.variable_space(), pair.kind.roots, edge.root_index)
        poly = divided_difference(classes[edge.source].polynomial, action)
        if edge.degree == 2:
            poly = poly / 2
        candidate = EquivariantClass(pair, poly)
        stored = classes.get(edge.target)
        if stored is None:
            classes[edge.target] = candidate
        elif first_disagreement(stored, candidate) is not None:
            raise InternalError(f"paths into {edge.target} disagree under localization")
    return classes


def reflection_images(family: str, n: int, i: int) -> tuple[tuple[int, int], ...]:
    """(sign, k) per y_j with s_i(y_j) = sign * y_k, for s_i of the family
    on y1..yn: s_i swaps i and i+1, except that the last generator negates
    n in types B and C and swaps and negates n-1 and n in type D."""
    images = [(1, k) for k in range(1, n + 1)]
    if family == "A" or i < n:
        images[i - 1], images[i] = images[i], images[i - 1]
    elif family in ("B", "C"):
        images[n - 1] = (-1, n)
    else:
        images[n - 2], images[n - 1] = (-1, n), (-1, n - 1)
    return tuple(images)


def simple_root(space: VariableSpace, family: str, i: int) -> Polynomial:
    """alpha_i = y_i - y_{i+1}, and alpha_n = y_n, 2*y_n or y_{n-1} + y_n
    in types B, C and D, with n the size of the y-bank."""
    n = space.y_count
    if family == "A" or i < n:
        return space.y(i) - space.y(i + 1)
    if family == "D":
        return space.y(n - 1) + space.y(n)
    return space.y(n) * (2 if family == "C" else 1)


def map_y(poly: Polynomial, images) -> Polynomial:
    """y_j -> sign * y_k for ``images[j-1] = (sign, k)``; the x's pass through."""
    space = poly.space
    r = space.x_count
    terms = {}
    for mono, coeff in poly.terms.items():
        exponents = space.exponents(mono)
        moved = list(exponents[:r]) + [0] * space.y_count
        for e, (sign, k) in zip(exponents[r:], images):
            moved[r + k - 1] = e
            coeff *= sign**e
        terms[space.pack(moved)] = coeff
    return Polynomial(space, terms)


def reflect(f: Polynomial, family: str, i: int) -> Polynomial:
    return map_y(f, reflection_images(family, f.space.y_count, i))


def divided_difference_by_division(f: Polynomial, family: str, i: int) -> Polynomial:
    """Reference operator: form f - s_i(f) and divide by alpha_i."""
    return exact_divide(f - reflect(f, family, i), simple_root(f.space, family, i))


def _sign_string_images(signs, p: int) -> tuple[int, ...]:
    """Images of the plain permutation sending + positions to 1..p and -
    positions to p+1, p+2, ..., each in increasing order."""
    images = [0] * len(signs)
    plus_seen = minus_seen = 0
    for idx, sign in enumerate(signs):
        if sign == PLUS:
            plus_seen += 1
            images[idx] = plus_seen
        else:
            minus_seen += 1
            images[idx] = p + minus_seen
    return tuple(images)


def _sign_strings(n: int, p: int):
    """Sign lists of length n with p plus signs, in combination order."""
    for plus_positions in itertools.combinations(range(n), p):
        signs = [MINUS] * n
        for idx in plus_positions:
            signs[idx] = PLUS
        yield signs


def _closed_glpq(pair):
    for signs in _sign_strings(pair.n, pair.p):
        yield Clan(signs), SignedPermutation("A", _sign_string_images(signs, pair.p))


def _closed_longest(pair):
    size = pair.ambient[1]
    yield InvolutionOrbit(tuple(range(size, 0, -1))), identity("A", size)


def _closed_split(pair):
    w0 = tuple(range(2 * pair.n, 0, -1))
    for tag, rep in _component_representatives(w0, pair.n).items():
        yield InvolutionOrbit(w0, tag), rep


def _closed_blocks(pair):
    # the odd-length (type B) clans carry a minus sign in the middle
    middle = [MINUS] if pair.kind.roots == "B" else []
    for half in _sign_strings(pair.n, pair.p):
        images = _sign_string_images(half, pair.p)
        yield Clan(half + middle + half[::-1]), SignedPermutation(pair.ambient[0], images)


def _closed_gl(pair):
    family = pair.ambient[0]
    for signs in itertools.product((PLUS, MINUS), repeat=pair.n):
        if family == "D" and signs.count(MINUS) % 2:
            continue
        symbols = list(signs) + [PLUS if s == MINUS else MINUS for s in reversed(signs)]
        images = tuple(i if s == PLUS else -i for i, s in enumerate(signs, start=1))
        yield Clan(symbols), SignedPermutation(family, images)


def _closed_oo_odd(pair):
    n, p = pair.n, pair.p
    for half in _sign_strings(n - 1, p):
        # position n goes to p+1, between the two blocks
        images = _sign_string_images(half, p + 1) + (p + 1,)
        yield Clan(half + [1, 1] + half[::-1]), SignedPermutation("D", images)


_CLOSED_ORBITS = {
    "glpq": _closed_glpq,
    "so_odd": _closed_longest,
    "sp": _closed_longest,
    "so_even": _closed_split,
    "blocks": _closed_blocks,
    "gl": _closed_gl,
    "oo_odd": _closed_oo_odd,
}


def closed_orbits_reference(pair: SymmetricPair) -> list[tuple[OrbitParameter, SignedPermutation]]:
    """Closed orbits with one torus-fixed representative each, built by
    hand per closed-orbit rule and sorted by parameter."""
    return sorted(_CLOSED_ORBITS[pair.kind.closed](pair), key=lambda pr: order_key(pr[0]))


def inverse(w: SignedPermutation) -> SignedPermutation:
    images = [0] * w.n
    for i, v in enumerate(w.images, start=1):
        images[abs(v) - 1] = i if v > 0 else -i
    return SignedPermutation(w.family, tuple(images))


def identity(family: str, n: int) -> SignedPermutation:
    return SignedPermutation(family, tuple(range(1, n + 1)))


def evaluate(w: SignedPermutation, i: int) -> int:
    """Signed evaluation: w(-i) = -w(i)."""
    return w.images[i - 1] if i > 0 else -w.images[-i - 1]


def compose(w: SignedPermutation, v: SignedPermutation) -> SignedPermutation:
    """(w * v)(i) = w(v(i)), within one family."""
    if v.n != w.n:
        raise ContractViolation("size mismatch in composition")
    if v.family != w.family:
        raise ContractViolation(f"cannot compose {w.family} with {v.family}")
    images = tuple(evaluate(w, evaluate(v, i)) for i in range(1, w.n + 1))
    return SignedPermutation(w.family, images)


def absolute(w: SignedPermutation) -> SignedPermutation:
    """The underlying unsigned permutation, as a type A element."""
    return SignedPermutation("A", tuple(abs(v) for v in w.images))


def l_p(w: SignedPermutation, p: int) -> int:
    """Count pairs i < j with w(j) <= p < w(i), for a plain permutation."""
    if w.family != "A":
        raise ContractViolation("l_p is a statistic of plain permutations")
    if not 0 <= p <= w.n:
        raise ContractViolation("p out of range")
    count = 0
    for i in range(w.n):
        for j in range(i + 1, w.n):
            if w.images[j] <= p < w.images[i]:
                count += 1
    return count


def sign_stats(w: SignedPermutation) -> tuple[tuple[int, ...], int, int]:
    """(Neg(w), f(w), g(w)) with g = sum of (n - i) over i in Neg(w)."""
    neg = tuple(i for i, v in enumerate(w.images, start=1) if v < 0)
    return neg, len(neg), sum(w.n - i for i in neg)


def unequal_rank_stats(w: SignedPermutation, p: int) -> tuple[tuple[int, ...], dict[int, int], int]:
    """(I_w, C, f) for a standard representative in the unequal-rank split.

    Requires: w plain, w(n) = p+1, and the preimages of 1..p and of
    p+2..n appear in increasing order.
    """
    n = w.n
    if any(v < 0 for v in w.images):
        raise ContractViolation("standard representatives change no signs")
    if w.images[-1] != p + 1:
        raise ContractViolation("standard representative must send n to p+1")
    inv = inverse(w)
    low = [inv.images[v - 1] for v in range(1, p + 1)]
    high = [inv.images[v - 1] for v in range(p + 2, n + 1)]
    if low != sorted(low) or high != sorted(high):
        raise ContractViolation("standard representative has scrambled blocks")
    i_set = tuple(i for i in range(1, n) if w.images[i - 1] > p + 1)
    c_map = {
        i: sum(1 for j in range(i + 1, n) if w.images[j - 1] <= p) for i in i_set
    }
    return i_set, c_map, sum(c_map.values())


def closed_class_reference(pair: SymmetricPair, param: OrbitParameter, rep) -> Polynomial:
    """The closed class of ``param`` read off a torus-fixed point ``rep``
    of the orbit, as the paper writes it: a product of linear forms in
    y_{rep^{-1}(j)}, signed by l_p, Neg or the unequal-rank count f, or for
    the general-linear pairs ``closed_gl_reference``.  The three
    involution rules never read a fixed point, so the library's class is
    their reference.  Raises ``ContractViolation`` at a fixed point that a
    statistic does not accept."""
    space = pair.variable_space()
    n, p, rule = pair.n, pair.p, pair.kind.closed
    if rule == "gl":
        _, count, shift = sign_stats(rep)
        plan = [(1 if v > 0 else -1, space.shifts[space.y_slot(abs(v))]) for v in inverse(rep).images]
        compiled = _staircase_terms(space, n, pair.kind.roots == "D")
        poly = Polynomial(space, substitute_terms(compiled, plan))
        return -poly if (count + shift) % 2 else poly
    if rule not in ("glpq", "blocks", "oo_odd"):
        return closed_orbit_class(pair, param).polynomial
    inv = inverse(rep)

    def signed_y(j):
        v = inv.images[j - 1]
        return space.y(v) if v > 0 else -space.y(-v)

    if rule == "glpq":
        factors = [space.const((-1) ** l_p(rep, p))] + [
            space.x(i) - signed_y(j) for i in range(1, p + 1) for j in range(p + 1, n + 1)
        ]
    elif rule == "blocks":
        factors = [space.const((-1) ** l_p(absolute(rep), p))]
        if pair.kind.roots == "B":
            inv_abs = inverse(absolute(rep))
            factors += [space.y(inv_abs.images[k - 1]) for k in range(1, p + 1)]
        for i in range(1, p + 1):
            for j in range(p + 1, n + 1):
                factors += [space.x(i) - signed_y(j), space.x(i) + signed_y(j)]
    else:
        f = unequal_rank_stats(rep, p)[2]
        factors = [space.const((-1) ** f)] + [space.y(k) for k in range(1, n)]
        for i in range(1, p + 1):
            for j in range(p + 2, n + 1):
                factors += [space.x(i) + signed_y(j), space.x(i) - signed_y(j)]
    return product(space, factors)


def closed_gl_reference(pair, rep) -> Polynomial:
    """The closed class of a general-linear pair at the fixed point rep."""
    _, count, shift = sign_stats(rep)
    half = pair.kind.roots == "D"
    sign = (-1) ** shift if half else (-1) ** (count + shift)
    base = staircase_determinant(pair.variable_space(), pair.n, half)
    return sign * map_y(base, [(1 if v > 0 else -1, abs(v)) for v in inverse(rep).images])


def _trusted(family: str, images: tuple[int, ...]) -> SignedPermutation:
    """Wrap images already known to form an element of the family."""
    obj = object.__new__(SignedPermutation)
    set_field(obj, "family", family)
    set_field(obj, "images", images)
    return obj


def enumerate_group(family: str, n: int):
    """All elements: n! for A, 2^n n! for BC, 2^(n-1) n! for D, in the
    order of ``group_images``.  Elements are valid by construction, so they
    skip the validation of ``SignedPermutation``."""
    return map(partial(_trusted, family), group_images(family, n))


def is_identity(w: SignedPermutation) -> bool:
    return all(v == i + 1 for i, v in enumerate(w.images))


def coxeter_length(w: SignedPermutation) -> int:
    """Coxeter length: positive roots sent negative.

    A root +-e_a +- e_b is negative exactly when the coefficient of the
    smaller index is negative; a short root +-e_a by its sign.
    """
    count = 0
    for i in range(1, w.n + 1):
        vi = w.images[i - 1]
        if w.family == "BC" and vi < 0:
            count += 1
        for j in range(i + 1, w.n + 1):
            vj = w.images[j - 1]
            for eps in ((-1,) if w.family == "A" else (-1, 1)):
                lead = vi if abs(vi) < abs(vj) else eps * vj
                if lead < 0:
                    count += 1
    return count


def times_generator(w: SignedPermutation, i: int) -> SignedPermutation:
    """Right multiplication by s_i (acts on positions)."""
    imgs = list(w.images)
    if 1 <= i < w.n:
        imgs[i - 1], imgs[i] = imgs[i], imgs[i - 1]
    elif i == w.n and w.family == "BC":
        imgs[-1] = -imgs[-1]
    elif i == w.n and w.family == "D":
        imgs[-2], imgs[-1] = -imgs[-1], -imgs[-2]
    else:
        raise ContractViolation(f"generator s_{i} out of range")
    return SignedPermutation(w.family, tuple(imgs))


def conjugation_by_longest(n: int) -> Callable[[SignedPermutation], SignedPermutation]:
    """The twist w -> w0 w w0 used by all type A non-equal-rank pairs."""
    w0 = SignedPermutation("A", tuple(range(n, 0, -1)))

    def theta(w: SignedPermutation) -> SignedPermutation:
        return compose(compose(w0, w), w0)

    return theta


def _transposition(n: int, i: int) -> SignedPermutation:
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return SignedPermutation("A", tuple(images))


def twisted_involution_action(
    a: SignedPermutation, i: int, theta: Callable[[SignedPermutation], SignedPermutation]
) -> SignedPermutation:
    """The monoid action m(s_i) * a on twisted involutions.

    ``theta`` is the ambient twist; ``a`` must satisfy theta(a) = a^{-1}.
    The three branches: drop (no move), left product (when the twisted
    action fixes a), twisted conjugation otherwise.
    """
    if theta(a) != inverse(a):
        raise ContractViolation("not a twisted involution for this twist")
    s = _transposition(a.n, i)
    sa = compose(s, a)
    if coxeter_length(sa) < coxeter_length(a):
        return a
    twisted = compose(sa, inverse(theta(s)))
    return sa if twisted == a else twisted


def cross_action(
    pair: SymmetricPair, w: SignedPermutation, param: OrbitParameter
) -> OrbitParameter:
    """The Weyl-group cross action on orbit parameters.  A tagged
    component moves with the representative."""
    if isinstance(param, Clan):
        sigma = w if pair.ambient[0] == "A" else w.embed_as_permutation(len(param))
        moved = [None] * len(param)
        for image, sym in zip(sigma.images, param.symbols):
            moved[image - 1] = sym
        return Clan(moved)
    inv = SignedPermutation("A", param.involution)
    conjugated = compose(compose(w, inv), inverse(w))
    return InvolutionOrbit(conjugated.images, param.component)


def chern_expand(expr: ChernExpression) -> Polynomial:
    """Substitute the generators back, term by term; inverse of the Chern
    rewrite."""
    source, space = expr.polynomial.space, expr.pair.variable_space()
    generators = expr.generators()
    total = space.zero()
    for mono, coeff in expr.polynomial.terms.items():
        exponents = source.exponents(mono)
        xs, ys = exponents[: source.x_count], exponents[source.x_count :]
        expansion = product(space, (g**e for g, e in zip(generators, xs) if e))
        total = total + coeff * expansion * space.monomial((0,) * space.x_count + ys)
    return total


def _positive_roots(family: str, m: int) -> list[tuple[int, ...]]:
    roots: list[tuple[int, ...]] = []

    def form(entries: dict[int, int]) -> tuple[int, ...]:
        row = [0] * m
        for idx, coeff in entries.items():
            row[idx - 1] = coeff
        return tuple(row)

    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            roots.append(form({i: 1, j: -1}))
            if family in ("B", "C", "D"):
                roots.append(form({i: 1, j: 1}))
    if family == "B":
        roots.extend(form({i: 1}) for i in range(1, m + 1))
    if family == "C":
        roots.extend(form({i: 2}) for i in range(1, m + 1))
    return roots


# root families of K's blocks, by pair descriptor: one block x_1..x_r, or
# two split after x_p
_SUBGROUP_BLOCKS = {
    "A:glpq": ("A", "A"),
    "A:so": ("B",),
    "A:so-even": ("D",),
    "A:sp": ("C",),
    "B:oo": ("D", "B"),
    "C:spsp": ("C", "C"),
    "C:gl": ("A",),
    "D:oo": ("D", "D"),
    "D:gl": ("A",),
    "D:oo-odd": ("B", "B"),
}


def _subgroup_roots(pair: SymmetricPair) -> set[tuple[int, ...]]:
    """Root system of K in the small-torus coordinates: the roots of each
    block's family, placed at the block's x-coordinates."""
    r = pair.variable_space().x_count
    blocks = _SUBGROUP_BLOCKS[pair.kind.descriptor]
    bounds = (0, r) if len(blocks) == 1 else (0, pair.p, r)
    roots: set[tuple[int, ...]] = set()
    for family, start, stop in zip(blocks, bounds, bounds[1:]):
        for root in _positive_roots(family, stop - start):
            row = (0,) * start + root + (0,) * (r - stop)
            roots.add(row)
            roots.add(tuple(-c for c in row))
    return roots


def weight_product_oracle(
    pair: SymmetricPair, param: OrbitParameter, w: SignedPermutation
) -> Polynomial:
    """Product of the normal-space torus weights at the fixed point of w.

    Computed purely from root data: push the positive system through w,
    restrict to the small torus, and strike each subgroup root once.  Off
    the orbit the result is zero, matching the class's vanishing.  Only
    closed orbits are accepted.
    """
    _require_closed(pair, param)
    space = pair.variable_space()
    if not _closed_member(pair, param, w.images):
        return space.zero()
    # read through the class layer, where a test replaces it
    rho = korbits.classes.restriction_map(pair)
    family = pair.kind.roots
    m = space.y_count
    restricted: dict[tuple[int, ...], int] = {}
    for root in _positive_roots(family, m):
        row = [0] * space.x_count
        for idx in range(1, m + 1):
            coeff = root[idx - 1]
            if not coeff:
                continue
            v = w.images[idx - 1]
            target = rho[abs(v) - 1]
            if target is None:
                continue
            sign, x_idx = target
            row[x_idx - 1] += coeff * (sign if v > 0 else -sign)
        key = tuple(row)
        restricted[key] = restricted.get(key, 0) + 1
    for kroot in _subgroup_roots(pair):
        if restricted.get(kroot, 0) > 0:
            restricted[kroot] -= 1
    zero = (0,) * space.x_count
    result = space.one()
    for weight, count in restricted.items():
        if count <= 0:
            continue
        if weight == zero:
            raise InternalError(
                f"{pair.spec_string()}: zero normal weight at the fixed point w = {w.images},"
                f" supposedly in the closed orbit {param}"
            )
        linear = space.zero()
        for idx, coeff in enumerate(weight, start=1):
            if coeff:
                linear = linear + coeff * space.x(idx)
        result = result * linear ** count
    return result
