"""Equivariant fundamental classes of orbit closures.

Closed orbits get explicit polynomial representatives (products of linear
forms, or for the two general-linear subgroup cases signed y-permutations
of one determinant of elementary-symmetric entries).  Every other class
is produced by divided difference operators walking up the weak order,
dividing by the cover degree on degree-two edges.  Correctness is checked
against localization: restriction at a torus fixed point is polynomial
substitution, and two classes are equal exactly when all their
restrictions agree.  A weight-product oracle recomputes closed-orbit
restrictions directly from root data, independently of the formulas.
"""

from __future__ import annotations

import functools
from typing import Iterable, Optional

from .algebra import (
    Polynomial,
    VariableSpace,
    compile_terms,
    compose,
    divided_difference,
    elementary_symmetric,
    format_polynomial,
    parse_polynomial,
    poly_determinant,
    product,
    split_leading_x,
    substitute_planned,
)
from .clans import MINUS, PLUS
from .errors import ContractViolation, InternalError, UsageError
from .orbits import (
    InvolutionOrbit,
    OrbitParameter,
    RootStatus,
    SplitOrbit,
    WeakEdge,
    WeakOrderGraph,
    _involution_basis,
    _involution_status,
    _value_swap,
    build_weak_order_graph,
    closed_orbits,
    enumerate_orbits,
    parse_orbit_parameter,
)
from .pairs import (
    A_GLPQ,
    A_SO_EVEN,
    A_SO_ODD,
    A_SP,
    B_OO,
    C_GL,
    C_SPSP,
    D_GL,
    D_OO,
    D_OO_ODD,
    SymmetricPair,
)
from .records import Record, set_fields
from .weyl import (
    SignedPermutation,
    enumerate_group,
    l_p,
    restriction_assignment,
    restriction_map,
    sign_stats,
    signed_targets,
    unequal_rank_stats,
)


class EquivariantClass(Record):
    """A polynomial representative of an orbit-closure class.

    ``factors`` optionally keeps the product form the closed-orbit
    formulas are built from; restriction maps are ring homomorphisms, so
    restricting factor by factor (with early exit on zero) is exact and
    much faster for large ambient Weyl groups.
    """

    __slots__ = ("pair", "polynomial", "factors")

    def __init__(self, pair: SymmetricPair, polynomial: Polynomial, factors=None) -> None:
        set_fields(self, pair, polynomial, factors)

    @classmethod
    def from_factors(cls, pair: SymmetricPair, factors: Iterable[Polynomial]):
        factors = tuple(factors)
        poly = product(pair.variable_space(), factors)
        return cls(pair, poly, factors)


# ---------------------------------------------------------------------------
# closed orbit formulas


def _signed_y(space: VariableSpace, w: SignedPermutation, j: int) -> Polynomial:
    """y_{w^{-1}(j)} with the sign convention for signed permutations."""
    v = w.inverse().images[j - 1]
    return space.y(v) if v > 0 else -space.y(-v)


def _cross_sums(space: VariableSpace, n: int, size: int) -> list[Polynomial]:
    """y_i + y_j and y_i + y_{size+1-j} for i < j <= n."""
    return [
        factor
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for factor in (space.y(i) + space.y(j), space.y(i) + space.y(size + 1 - j))
    ]


def _closed_glpq(pair, param, rep, space) -> EquivariantClass:
    n, p = pair.n, pair.p
    inv = rep.inverse()
    factors = [space.const((-1) ** l_p(rep, p))] + [
        space.x(i) - space.y(inv.images[j - 1])
        for i in range(1, p + 1)
        for j in range(p + 1, n + 1)
    ]
    return EquivariantClass.from_factors(pair, factors)


def _closed_so_odd(pair, param, rep, space) -> EquivariantClass:
    n = pair.n
    factors = [space.const((-2) ** n)]
    for i in range(1, n + 1):
        factors.append(space.y(i) + space.y(n + 1))
        factors.append(space.y(n + 1) + space.y(2 * n + 2 - i))
    factors += _cross_sums(space, n, 2 * n + 1)
    return EquivariantClass.from_factors(pair, factors)


def _closed_sp(pair, param, rep, space) -> EquivariantClass:
    return EquivariantClass.from_factors(pair, _cross_sums(space, pair.n, 2 * pair.n))


def _closed_so_even(pair, param, rep, space) -> EquivariantClass:
    assert isinstance(param, SplitOrbit)
    n = pair.n
    x_mono = product(space, (space.x(i) for i in range(1, n + 1)))
    y_mono = product(space, (space.y(i) for i in range(1, n + 1)))
    if param.component == PLUS:
        factors = [space.const(2 ** (n - 1)), x_mono + y_mono]
    else:
        factors = [space.const(-(2 ** (n - 1))), x_mono - y_mono]
    factors += _cross_sums(space, n, 2 * n)
    return EquivariantClass.from_factors(pair, factors)


def _closed_blocks(pair, param, rep, space) -> EquivariantClass:
    n, p = pair.n, pair.p
    factors = [space.const((-1) ** l_p(rep.absolute(), p))]
    if pair.root_family() == "B":
        inv_abs = rep.absolute().inverse()
        factors += [space.y(inv_abs.images[k - 1]) for k in range(1, p + 1)]
    for i in range(1, p + 1):
        for j in range(p + 1, n + 1):
            yj = _signed_y(space, rep, j)
            factors.append(space.x(i) - yj)
            factors.append(space.x(i) + yj)
    return EquivariantClass.from_factors(pair, factors)


def _closed_gl(pair, param, rep, space) -> EquivariantClass:
    """The staircase determinant at the identity, with each y_k sent to
    the signed y of rep^{-1}(k)."""
    _, count, shift = sign_stats(rep)
    half = pair.kind.ambient == "D"
    sign = (-1) ** shift if half else (-1) ** (count + shift)
    base = staircase_determinant(space, pair.n, half)
    images = [(1 if v > 0 else -1, abs(v)) for v in rep.inverse().images]
    return EquivariantClass(pair, sign * base.map_y(images))


def _closed_oo_odd(pair, param, rep, space) -> EquivariantClass:
    n, p = pair.n, pair.p
    _, _, f = unequal_rank_stats(rep, p)
    factors = [space.const((-1) ** f)] + [space.y(k) for k in range(1, n)]
    inv = rep.inverse()
    for i in range(1, p + 1):
        for j in range(p + 2, n + 1):
            yj = space.y(inv.images[j - 1])
            factors.append(space.x(i) + yj)
            factors.append(space.x(i) - yj)
    return EquivariantClass.from_factors(pair, factors)


_CLOSED_CLASSES = {
    A_GLPQ: _closed_glpq,
    A_SO_ODD: _closed_so_odd,
    A_SP: _closed_sp,
    A_SO_EVEN: _closed_so_even,
    B_OO: _closed_blocks,
    C_SPSP: _closed_blocks,
    D_OO: _closed_blocks,
    C_GL: _closed_gl,
    D_GL: _closed_gl,
    D_OO_ODD: _closed_oo_odd,
}


def closed_orbit_class(
    pair: SymmetricPair,
    param: OrbitParameter,
    rep: Optional[SignedPermutation] = None,
) -> EquivariantClass:
    """The explicit class of a closed orbit (disconnected subgroups get
    the whole-orbit formula, i.e. the sum over components).

    The stored representative is used by default; passing another fixed
    point of the same orbit must give the same polynomial, which the
    tests exercise.
    """
    found = None
    for closed_param, closed_rep in closed_orbits(pair):
        if closed_param == param:
            found = closed_rep
            break
    if found is None:
        raise ContractViolation(f"{param} is not a closed orbit of {pair.describe()}")
    if rep is None:
        rep = found
    elif not _closed_member(pair, param, rep):
        raise ContractViolation("representative does not lie in the orbit")
    return _CLOSED_CLASSES[pair.case](pair, param, rep, pair.variable_space())


@functools.lru_cache(maxsize=None)
def staircase_determinant(space: VariableSpace, n: int, half: bool) -> Polynomial:
    """det(c_{n+1+j-2i}) (full) or det(c_{n+j-2i} / 2) of size n-1 (half),
    where c_k sums the k-th elementary symmetric functions of x1..xn and
    of y1..yn.  The half variant expands the integer determinant and
    divides it once by 2^(n-1).  Cached: every closed class of a
    general-linear pair is a signed y-permutation of it."""
    xs = [space.x(i) for i in range(1, n + 1)]
    ys = [space.y(k) for k in range(1, n + 1)]

    def c(k: int) -> Polynomial:
        if k < 0:
            return space.zero()
        return elementary_symmetric(k, xs, space) + elementary_symmetric(k, ys, space)

    size = n - 1 if half else n
    if size == 0:
        return space.one()
    top = n if half else n + 1
    entries = [[c(top + (j + 1) - 2 * (i + 1)) for j in range(size)] for i in range(size)]
    return poly_determinant(entries) / 2**size if half else poly_determinant(entries)


# ---------------------------------------------------------------------------
# restriction and localization


def restrict_at(cls: EquivariantClass, w: SignedPermutation) -> Polynomial:
    """Restriction at the fixed point of w: substitute each y by the
    image of its w-translate in the small torus."""
    table = signed_targets(cls.pair)
    plan = [table[v] for v in w.images]
    space = cls.pair.variable_space()
    if cls.factors is None:
        return substitute_planned(space, compile_terms(cls.polynomial), plan)
    result = space.one()
    for factor in cls.factors:
        result = result * substitute_planned(space, compile_terms(factor), plan)
        if result.is_zero:
            break
    return result


def ambient_weyl(pair: SymmetricPair):
    family, size = pair.ambient_family()
    return enumerate_group(family, size)


def first_disagreement(
    c1: EquivariantClass, c2: EquivariantClass
) -> Optional[SignedPermutation]:
    """The first fixed point w whose restrictions differ, or None when all
    agree (exact equality).

    Restriction is a ring homomorphism, so the classes differ at w exactly
    when their difference restricts to nonzero there; the difference is
    split into terms once and restricted once per fixed point.
    """
    if c1.pair != c2.pair:
        raise ContractViolation("classes belong to different pairs")
    if c1.polynomial == c2.polynomial:
        return None
    pair = c1.pair
    space = pair.variable_space()
    diff = compile_terms(c1.polynomial - c2.polynomial)
    table = signed_targets(pair)
    for w in ambient_weyl(pair):
        plan = [table[v] for v in w.images]
        if not substitute_planned(space, diff, plan).is_zero:
            return w
    return None


def equal_via_localization(c1: EquivariantClass, c2: EquivariantClass) -> bool:
    """True when all fixed-point restrictions agree (exact equality)."""
    return first_disagreement(c1, c2) is None


# ---------------------------------------------------------------------------
# the weight-product oracle


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


def _subgroup_roots(pair: SymmetricPair) -> set[tuple[int, ...]]:
    """Root system of K in the small-torus coordinates: the roots of each
    block's family, placed at the block's x-coordinates."""
    r = pair.variable_space().x_count
    blocks = pair.kind.subgroup
    bounds = (0, r) if len(blocks) == 1 else (0, pair.p, r)
    roots: set[tuple[int, ...]] = set()
    for family, start, stop in zip(blocks, bounds, bounds[1:]):
        for root in _positive_roots(family, stop - start):
            row = (0,) * start + root + (0,) * (r - stop)
            roots.add(row)
            roots.add(tuple(-c for c in row))
    return roots


def _plus_where_low(symbols, w: SignedPermutation, p: int) -> bool:
    """The + positions of the clan symbols are the positions i with |w(i)| <= p."""
    plus_positions = {i for i, s in enumerate(symbols, start=1) if s == PLUS}
    low = {i for i in range(1, len(symbols) + 1) if abs(w.images[i - 1]) <= p}
    return low == plus_positions


def _member_involution(pair, param, w) -> bool:
    size, n = w.n, pair.n
    if any(w.images[size - i] != size + 1 - w.images[i - 1] for i in range(1, size + 1)):
        return False
    if isinstance(param, SplitOrbit):
        crossings = sum(1 for i in range(1, n + 1) if w.images[i - 1] > n)
        return crossings % 2 == (0 if param.component == PLUS else 1)
    return True


def _member_blocks(pair, param, w) -> bool:
    # the whole clan in type A, its first half otherwise
    return _plus_where_low(param.clan.symbols[: pair.n], w, pair.p)


def _member_gl(pair, param, w) -> bool:
    signs = param.clan.symbols[: pair.n]
    return all((v > 0) == (s == PLUS) for v, s in zip(w.images, signs))


def _member_oo_odd(pair, param, w) -> bool:
    n = pair.n
    return abs(w.images[n - 1]) == pair.p + 1 and _plus_where_low(
        param.clan.symbols[: n - 1], w, pair.p
    )


_MEMBERS = {
    A_GLPQ: _member_blocks,
    A_SO_ODD: _member_involution,
    A_SP: _member_involution,
    A_SO_EVEN: _member_involution,
    B_OO: _member_blocks,
    C_SPSP: _member_blocks,
    D_OO: _member_blocks,
    C_GL: _member_gl,
    D_GL: _member_gl,
    D_OO_ODD: _member_oo_odd,
}


def _closed_member(pair: SymmetricPair, param: OrbitParameter, w: SignedPermutation) -> bool:
    """Is the fixed point of w contained in the given closed orbit?"""
    return _MEMBERS[pair.case](pair, param, w)


def weight_product_oracle(
    pair: SymmetricPair, param: OrbitParameter, w: SignedPermutation
) -> Polynomial:
    """Product of the normal-space torus weights at the fixed point of w.

    Computed purely from root data: push the positive system through w,
    restrict to the small torus, and strike each subgroup root once.  Off
    the orbit the result is zero, matching the class's vanishing.
    """
    space = pair.variable_space()
    if not _closed_member(pair, param, w):
        return space.zero()
    rho = restriction_map(pair)
    family = pair.root_family()
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
            raise InternalError("zero normal weight at a supposed member point")
        linear = space.zero()
        for idx, coeff in enumerate(weight, start=1):
            if coeff:
                linear = linear + coeff * space.x(idx)
        result = result * linear ** count
    return result


# ---------------------------------------------------------------------------
# propagation up the weak order


def propagate_all(pair: SymmetricPair) -> dict[OrbitParameter, EquivariantClass]:
    """Classes for every orbit, seeded at the closed orbits.

    Walks the weak-order edges in level order.  Nodes with several
    incoming edges keep the first arrival; every later arrival is checked
    against it by localization.
    """
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
        elif (w := first_disagreement(stored, candidate)) is not None:
            raise InternalError(
                f"{pair.spec_string()}: paths into {edge.target} disagree under"
                f" localization: edge {edge.source} -> {edge.target} by"
                f" alpha_{edge.root_index} (degree {edge.degree}) differs from the"
                f" stored class at fixed point w = {w.images}"
            )
    return classes


# ---------------------------------------------------------------------------
# reference oracle for the even orthogonal pair (used by the tests):
# component resolution by localization


def _component_representatives(inv: tuple[int, ...], n: int):
    """Fixed-point representatives of the two components of a split orbit."""
    size = 2 * n
    basis = _involution_basis(inv, size)
    images = []
    for row in basis:
        hot = [idx for idx, entry in enumerate(row, start=1) if entry != 0]
        assert len(hot) == 1
        images.append(hot[0])
    plus = SignedPermutation("A", tuple(images))
    return {PLUS: plus, MINUS: _value_swap(plus, n)}


def split_orbit_data(pair: SymmetricPair) -> tuple[WeakOrderGraph, dict]:
    """Joint weak-order graph and classes for (SL(2n), SO(2n)).

    When a raise connects two split orbits, the propagated class is
    restricted at a fixed point of each candidate component, and the
    nonzero one is the target.  This checks the tag rule of
    ``classify_simple_root`` independently.
    """
    n = pair.n
    closed = closed_orbits(pair)
    classes: dict[OrbitParameter, EquivariantClass] = {}
    level: dict[OrbitParameter, int] = {}
    edges: list[WeakEdge] = []
    for param, _ in closed:
        classes[param] = closed_orbit_class(pair, param)
        level[param] = 0
    frontier = sorted((p for p, _ in closed), key=lambda p: p.sort_key())
    depth = 0
    while frontier:
        next_frontier = []
        for param in frontier:
            inv = param.involution  # type: ignore[union-attr]
            for i in range(1, pair.num_simple_roots() + 1):
                move = _involution_status(inv, i)
                if move is None:
                    continue
                target_inv, degree_two = move
                action = pair.root_action(i)
                poly = divided_difference(classes[param].polynomial, action)
                if degree_two:
                    if isinstance(param, SplitOrbit):
                        # each component covers the unsplit target once
                        st = RootStatus("noncompact_I", InvolutionOrbit(target_inv))
                    else:
                        st = RootStatus("noncompact_II", InvolutionOrbit(target_inv))
                        poly = poly / 2
                else:
                    if isinstance(param, SplitOrbit):
                        chosen = None
                        for tag, rep in _component_representatives(target_inv, n).items():
                            value = poly.substitute(restriction_assignment(pair, rep))
                            if not value.is_zero:
                                if chosen is not None:
                                    raise InternalError(
                                        "both candidate components have nonzero "
                                        "restriction"
                                    )
                                chosen = tag
                        if chosen is None:
                            raise InternalError("no candidate component matches")
                        st = RootStatus("complex", SplitOrbit(target_inv, chosen))
                    else:
                        st = RootStatus("complex", InvolutionOrbit(target_inv))
                target = st.target
                assert target is not None
                edges.append(WeakEdge(param, target, i, st.degree))
                cand = EquivariantClass(pair, poly)
                stored = classes.get(target)
                if stored is None:
                    classes[target] = cand
                    level[target] = depth + 1
                    next_frontier.append(target)
                else:
                    if level[target] != depth + 1:
                        raise InternalError("inconsistent level in split graph")
                    if not equal_via_localization(stored, cand):
                        raise InternalError(
                            f"paths into {target} disagree under localization"
                        )
        frontier = sorted(set(next_frontier), key=lambda p: p.sort_key())
        depth += 1
    expected = enumerate_orbits(pair)
    if sorted(level, key=lambda p: p.sort_key()) != expected:
        raise InternalError("split graph did not reach every orbit")
    sources = {edge.source for edge in edges}
    maximal = [p for p in expected if p not in sources]
    if len(maximal) != 1:
        raise InternalError(f"expected one dense orbit, found {maximal}")
    edges.sort(key=lambda e: (level[e.source], e.source.sort_key(), e.root_index))
    nodes = tuple(sorted(level, key=lambda p: (level[p], p.sort_key())))
    graph = WeakOrderGraph(
        pair, nodes, tuple(edges), tuple(p for p, _ in closed), maximal[0], level
    )
    return graph, classes


# ---------------------------------------------------------------------------
# rewriting into Chern generators


class ChernExpression(Record):
    """A class rewritten over z-generators (block elementary symmetric
    functions), the y-variables, and the euler symbol standing for the
    monomial x1*...*xn."""

    # the polynomial's x-bank: z's for both blocks, then the euler slot
    __slots__ = ("pair", "blocks", "polynomial")

    def __init__(self, pair: SymmetricPair, blocks: tuple[int, int], polynomial: Polynomial):
        set_fields(self, pair, blocks, polynomial)

    def _namer(self, slot: int) -> str:
        zcount = self.blocks[0] + self.blocks[1]
        if slot < zcount:
            return f"z{slot + 1}"
        if slot == zcount:
            return "e"
        return f"y{slot - zcount - 1 + 1}"

    def __str__(self) -> str:
        return format_polynomial(self.polynomial, self._namer)

    def generators(self) -> list[Polynomial]:
        """What each x-slot of ``polynomial`` stands for in the class's
        space: e_1..e_k of each x-block, then x1*...*xn.  The y's stand
        for themselves."""
        space = self.pair.variable_space()
        xs = [space.x(i) for i in range(1, space.x_count + 1)]
        p, q = self.blocks
        zs = [
            elementary_symmetric(k, block, space)
            for block in (xs[:p], xs[p : p + q])
            for k in range(1, len(block) + 1)
        ]
        return zs + [product(space, xs)]

    def expand(self) -> Polynomial:
        """Substitute the generators back; inverse of the rewrite."""
        return compose(self.polynomial, self.generators())


def to_chern_basis(cls: EquivariantClass) -> ChernExpression:
    """Rewrite the x-content over Chern generators.

    For the split general-linear pair the polynomial must be symmetric in
    each x-block separately and is rewritten in block elementary symmetric
    functions z1..zp, z_{p+1}..z_{p+q}.  For the other type A pairs the
    x-content must be a multiple of x1*...*xn, which becomes the euler
    symbol.

    One leading-term loop serves both forms (the fundamental theorem of
    symmetric polynomials; Cox, Little & O'Shea, Ideals, Varieties, and
    Algorithms, 7.1): the graded-lex leading x-exponents a of a
    block-symmetric polynomial are a partition in each block, and the
    generator monomial with z_k to the power a_k - a_{k+1} (or e to the
    power min(a)) expands to a polynomial with the same leading term and
    coefficient one.  Subtracting it strictly lowers the leading term, so
    the loop ends, and the rewrite it finds is the unique one.
    """
    pair = cls.pair
    if pair.kind.chern == "blocks":
        blocks, message = (pair.p, pair.q), "class is not symmetric in the x-blocks"
    elif pair.kind.chern == "euler":
        blocks, message = (0, 0), "x-content is not a multiple of the full x-monomial"
    else:
        raise ContractViolation("Chern rewriting is a type A operation")
    p, q = blocks
    space = pair.variable_space()
    out = VariableSpace(p + q + 1, space.y_count)
    generators = ChernExpression(pair, blocks, out.zero()).generators()
    # c is a polynomial in the y's alone, so this carries it to the output space
    lift = [out.zero()] * space.x_count
    result, work = out.zero(), cls.polynomial
    while work:
        a, c = split_leading_x(work)
        # a block of a that is no partition clamps to some monomial whose
        # expansion leads elsewhere, which the check below rejects
        zs = [
            max(a[k] - (a[k + 1] if k + 1 < stop else 0), 0)
            for start, stop in ((0, p), (p, p + q))
            for k in range(start, stop)
        ]
        monomial = out.monomial(zs + [0 if p + q else min(a)] + [0] * out.y_count)
        expansion = compose(monomial, generators)
        if split_leading_x(expansion)[0] != a:
            raise ContractViolation(message)
        result = result + compose(c, lift) * monomial
        work = work - c * expansion
    return ChernExpression(pair, blocks, result)


# ---------------------------------------------------------------------------
# tables, fixtures, verification


def format_table(
    pair: SymmetricPair,
    classes: dict[OrbitParameter, EquivariantClass],
    fmt: str = "table",
) -> str:
    graph = build_weak_order_graph(pair)
    memo: dict = {}  # one text per monomial for the whole table
    rows = [
        (str(param), format_polynomial(classes[param].polynomial, memo=memo))
        for param in graph.nodes
    ]
    if fmt == "machine":
        return "".join(f"{param} := {poly}\n" for param, poly in rows)
    if fmt == "csv":
        return "parameter,formula\n" + "".join(f'"{param}","{poly}"\n' for param, poly in rows)
    if fmt == "table":
        width = max(len(param) for param, _ in rows)
        return "\n".join(f"{param:<{width}}  {poly}" for param, poly in rows) + "\n"
    raise UsageError(f"unknown table format {fmt!r}")


def parse_fixture(text: str) -> tuple[Optional[str], list[tuple[str, str]]]:
    """Fixture files: comment headers, then ``parameter := polynomial``
    lines.  A ``# pair:`` header names the symmetric pair."""
    pair_spec = None
    rows: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("pair:"):
                pair_spec = body[5:].strip()
            continue
        if ":=" not in line:
            raise UsageError(f"fixture line {lineno} lacks ':='")
        param_text, poly_text = line.split(":=", 1)
        rows.append((param_text.strip(), poly_text.strip()))
    return pair_spec, rows


def class_for_parameter(
    pair: SymmetricPair,
    classes: dict[OrbitParameter, EquivariantClass],
    param_text: str,
) -> EquivariantClass:
    """Look up a parameter string, treating an untagged split involution
    as the union of its two components (their classes add)."""
    param = parse_orbit_parameter(pair, param_text, allow_union=True)
    if param in classes:
        return classes[param]
    if pair.kind.involutions == "split" and isinstance(param, InvolutionOrbit):
        plus = SplitOrbit(param.involution, PLUS)
        minus = SplitOrbit(param.involution, MINUS)
        if plus in classes and minus in classes:
            return EquivariantClass(
                pair, classes[plus].polynomial + classes[minus].polynomial
            )
    raise UsageError(f"unknown orbit parameter {param_text!r}")


def verify_rows(
    pair: SymmetricPair,
    rows: list[tuple[str, str]],
    literal: bool = False,
) -> list[tuple[str, bool]]:
    """Check fixture rows against propagated classes.

    Default comparison is localization equality; ``literal`` demands the
    exact canonical polynomial.
    """
    space = pair.variable_space()
    classes = propagate_all(pair)
    results = []
    for param_text, poly_text in rows:
        expected = parse_polynomial(poly_text, space)
        computed = class_for_parameter(pair, classes, param_text)
        if literal:
            ok = computed.polynomial == expected
        else:
            ok = equal_via_localization(
                computed, EquivariantClass(pair, expected)
            )
        results.append((param_text, ok))
    return results
