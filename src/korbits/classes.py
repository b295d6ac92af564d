"""Equivariant fundamental classes of orbit closures.

Closed orbits get explicit polynomial representatives, read off the orbit
parameter (products of linear forms, or, for the two pairs whose K is a
general linear group, signed y-permutations of one determinant of
elementary-symmetric entries).  Every other class
is produced by divided difference operators walking up the weak order,
dividing by the cover degree on degree-two edges.  Correctness is checked
against localization: two classes are equal exactly when their restrictions
(polynomial substitutions) agree at every torus fixed point.  ``settle``
decides each comparison literally, else by the kernel certificate, else by
one walk over the fixed points.  The tests' weight-product oracle
(``tests/oracles.py``) recomputes closed-orbit restrictions directly from
root data, independently of the formulas.
Each closed-orbit rule is one entry of one table, its class formula beside
its membership test, which says which torus-fixed points the orbit
contains; no other module reads a fixed point.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Iterator, Optional

from .algebra import (
    CompiledTerm,
    PlanEntry,
    Polynomial,
    VariableSpace,
    compile_terms,
    divided_difference,
    elementary_symmetric,
    format_polynomial,
    lift_y,
    parse_polynomial,
    poly_determinant,
    product,
    simple_root_action,
    split_leading_x,
    substitute_terms,
)
from .clans import MINUS, PLUS
from .errors import ContractViolation, InternalError, UsageError
from .orbits import (
    OrbitParameter,
    WeakEdge,
    build_weak_order_graph,
    parse_orbit_parameter,
    split_components,
)
from .pairs import SymmetricPair
from .records import Record, set_fields
from .weyl import SignedPermutation, group_images, restriction_map


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
# closed orbits: class formulas and torus-fixed points


def _sign_split(signs) -> tuple[int, list[int], list[int]]:
    """The number of pairs i < j with signs (-, +), the + positions and
    the - positions of a sign string, counting positions from 1."""
    inversions, plus, minus = 0, [], []
    for i, sign in enumerate(signs, start=1):
        if sign == PLUS:
            plus.append(i)
            inversions += len(minus)
        else:
            minus.append(i)
    return inversions, plus, minus


def _cross_sums(space: VariableSpace, n: int, size: int) -> list[Polynomial]:
    """y_i + y_j and y_i + y_{size+1-j} for i < j <= n."""
    return [
        factor
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for factor in (space.y(i) + space.y(j), space.y(i) + space.y(size + 1 - j))
    ]


def _closed_glpq(pair, param, space) -> EquivariantClass:
    inversions, _, minus = _sign_split(param.mates)
    factors = [space.const((-1) ** inversions)] + [
        space.x(i) - space.y(j) for i in range(1, pair.p + 1) for j in minus
    ]
    return EquivariantClass.from_factors(pair, factors)


def _closed_so_odd(pair, param, space) -> EquivariantClass:
    n = pair.n
    factors = [space.const((-2) ** n)]
    for i in range(1, n + 1):
        factors.append(space.y(i) + space.y(n + 1))
        factors.append(space.y(n + 1) + space.y(2 * n + 2 - i))
    factors += _cross_sums(space, n, 2 * n + 1)
    return EquivariantClass.from_factors(pair, factors)


def _closed_sp(pair, param, space) -> EquivariantClass:
    return EquivariantClass.from_factors(pair, _cross_sums(space, pair.n, 2 * pair.n))


def _closed_so_even(pair, param, space) -> EquivariantClass:
    n = pair.n
    x_mono = product(space, (space.x(i) for i in range(1, n + 1)))
    y_mono = product(space, (space.y(i) for i in range(1, n + 1)))
    if param.component == PLUS:
        factors = [space.const(2 ** (n - 1)), x_mono + y_mono]
    else:
        factors = [space.const(-(2 ** (n - 1))), x_mono - y_mono]
    factors += _cross_sums(space, n, 2 * n)
    return EquivariantClass.from_factors(pair, factors)


def _closed_blocks(pair, param, space) -> EquivariantClass:
    inversions, plus, minus = _sign_split(param.mates[: pair.n])
    factors = [space.const((-1) ** inversions)]
    if pair.kind.roots == "B":
        factors += [space.y(k) for k in plus]
    for i in range(1, pair.p + 1):
        for j in minus:
            factors.append(space.x(i) - space.y(j))
            factors.append(space.x(i) + space.y(j))
    return EquivariantClass.from_factors(pair, factors)


def _closed_gl(pair, param, space) -> EquivariantClass:
    """The staircase determinant at the identity, with y_k negated at each
    - position k of the clan's first half: one substitution of its compiled
    terms.  The sign is (-1)^(f+g) over those positions, f their number and
    g the sum of n - k, which is D:gl's (-1)^g as f is even in type D."""
    n = pair.n
    _, _, minus = _sign_split(param.mates[:n])
    plan = [(-1 if k in minus else 1, space.shifts[space.y_slot(k)]) for k in range(1, n + 1)]
    compiled = _staircase_terms(space, n, pair.kind.roots == "D")
    poly = Polynomial(space, substitute_terms(compiled, plan))
    return EquivariantClass(pair, -poly if sum(n + 1 - k for k in minus) % 2 else poly)


def _closed_oo_odd(pair, param, space) -> EquivariantClass:
    n = pair.n
    inversions, _, minus = _sign_split(param.mates[: n - 1])
    factors = [space.const((-1) ** inversions)] + [space.y(k) for k in range(1, n)]
    for i in range(1, pair.p + 1):
        for j in minus:
            factors.append(space.x(i) + space.y(j))
            factors.append(space.x(i) - space.y(j))
    return EquivariantClass.from_factors(pair, factors)


def _plus_where_low(mates, images, p: int) -> bool:
    """The + positions among the clan's mates are the positions i with |w(i)| <= p."""
    return all((s == PLUS) == (abs(v) <= p) for s, v in zip(mates, images))


def _member_involution(pair, param, images) -> bool:
    n, size = pair.n, len(images)
    if any(a + b != size + 1 for a, b in zip(images, reversed(images))):
        return False
    crossings = sum(1 for v in images[:n] if v > n)
    return not param.component or crossings % 2 == (param.component == MINUS)


def _member_blocks(pair, param, images) -> bool:
    # the whole clan in type A, its first half otherwise
    return _plus_where_low(param.mates[: pair.n], images, pair.p)


def _member_gl(pair, param, images) -> bool:
    return all((v > 0) == (s == PLUS) for v, s in zip(images, param.mates[: pair.n]))


def _member_oo_odd(pair, param, images) -> bool:
    n = pair.n
    return abs(images[n - 1]) == pair.p + 1 and _plus_where_low(
        param.mates[: n - 1], images, pair.p
    )


# keyed by the pair kind's closed-orbit rule: (class formula, membership test)
_CLOSED_RULES = {
    "glpq": (_closed_glpq, _member_blocks),
    "so_odd": (_closed_so_odd, _member_involution),
    "sp": (_closed_sp, _member_involution),
    "so_even": (_closed_so_even, _member_involution),
    "blocks": (_closed_blocks, _member_blocks),
    "gl": (_closed_gl, _member_gl),
    "oo_odd": (_closed_oo_odd, _member_oo_odd),
}


def closed_orbit_class(pair: SymmetricPair, param: OrbitParameter) -> EquivariantClass:
    """The explicit class of a closed orbit (a disconnected K gets
    the whole-orbit formula, i.e. the sum over components), read off the
    orbit parameter alone.  Any other orbit is refused."""
    _require_closed(pair, param)
    return _CLOSED_RULES[pair.kind.closed][0](pair, param, pair.variable_space())


def _closed_member(pair: SymmetricPair, param: OrbitParameter, images: tuple[int, ...]) -> bool:
    """Is the fixed point with these images contained in the given closed orbit?"""
    return _CLOSED_RULES[pair.kind.closed][1](pair, param, images)


def closed_orbits(pair: SymmetricPair) -> list[tuple[OrbitParameter, SignedPermutation]]:
    """The closed orbits of the cached graph, each with its first
    torus-fixed point in ``group_images`` order."""
    found = []
    for param in build_weak_order_graph(pair).closed:
        images = next(w for w in ambient_weyl(pair) if _closed_member(pair, param, w))
        found.append((param, SignedPermutation(pair.ambient[0], images)))
    return found


def _require_closed(pair: SymmetricPair, param: OrbitParameter) -> None:
    """Refuse an orbit that is not closed in the pair's cached graph."""
    if param not in build_weak_order_graph(pair).closed:
        raise ContractViolation(f"{param} is not a closed orbit of {pair.describe()}")


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


@functools.lru_cache(maxsize=None)
def _staircase_terms(space: VariableSpace, n: int, half: bool) -> list[CompiledTerm]:
    """The staircase determinant compiled for substitution, once per pair."""
    return compile_terms(staircase_determinant(space, n, half))


# ---------------------------------------------------------------------------
# restriction and localization


@functools.lru_cache(maxsize=None)
def signed_targets(pair: SymmetricPair) -> tuple[PlanEntry, ...]:
    """The pair's plan table: restriction's substitution plan entries, indexed
    by the signed value v = w(j) itself (a negative v counts from the end):
    the entry sends y_j to the restriction map's target of Y_|v|, negated
    for v < 0, or to zero (entry 0).  A plan at w is ``[table[v] for v in images]``."""
    rho = restriction_map(pair)
    shifts = pair.variable_space().shifts
    table: list[PlanEntry] = [None] * (2 * len(rho) + 1)
    for v, target in enumerate(rho, start=1):
        if target is None:
            table[v] = table[-v] = 0
        else:
            sign, idx = target
            table[v], table[-v] = (sign, shifts[idx - 1]), (-sign, shifts[idx - 1])
    return tuple(table)


def restrict_at(cls: EquivariantClass, images: tuple[int, ...]) -> Polynomial:
    """Restriction at the fixed point of the w with these images: substitute
    each y by the image of its w-translate in the small torus.  The images
    must be those of an element of the pair's ambient Weyl group."""
    family, size = cls.pair.ambient
    if len(images) != size:
        raise ContractViolation(f"restriction needs {size} images, got {images}")
    SignedPermutation(family, tuple(images))  # refuses a non-element
    table = signed_targets(cls.pair)
    plan = [table[v] for v in images]
    space = cls.pair.variable_space()
    result = space.one()
    for factor in cls.factors or (cls.polynomial,):
        result = result * Polynomial(space, substitute_terms(compile_terms(factor), plan))
        if result.is_zero:
            break
    return result


def ambient_weyl(pair: SymmetricPair):
    """The image tuples of the fixed points, in ``group_images`` order:
    every element of the pair's ambient Weyl group."""
    return group_images(*pair.ambient)


def settle(pair: SymmetricPair, comparisons: list) -> list:
    """For each (f, g) pair of polynomials: None when f and g restrict alike
    at every fixed point, else the images of the first fixed point, in
    ``group_images`` order, where f - g restricts to nonzero (restriction is
    a ring homomorphism).  Rungs, cheapest first: literal f == g; the kernel
    certificate (when a torus coordinate restricts to zero, as on A:so and
    D:oo-odd, so do y1...ym and its multiples, whose terms are dropped from
    f - g); one walk over the fixed points for every comparison still open."""
    found: list = [None] * len(comparisons)
    differences = [(k, f - g) for k, (f, g) in enumerate(comparisons) if f != g]
    table = signed_targets(pair) if differences else ()
    every_y = pair.variable_space().y_count if 0 in table else -1
    pending = [
        (k, terms)
        for k, diff in differences
        if (terms := [term for term in compile_terms(diff) if len(term[1]) != every_y])
    ]
    for images in ambient_weyl(pair) if pending else ():
        plan = [table[v] for v in images]
        for k, diff in pending:
            if any(substitute_terms(diff, plan).values()):
                found[k] = images
        pending = [(k, diff) for k, diff in pending if found[k] is None]
        if not pending:
            break
    return found


def equal_via_localization(c1: EquivariantClass, c2: EquivariantClass) -> bool:
    """True when all fixed-point restrictions agree (exact equality)."""
    if c1.pair != c2.pair:
        raise ContractViolation("classes belong to different pairs")
    return settle(c1.pair, [(c1.polynomial, c2.polynomial)])[0] is None


# ---------------------------------------------------------------------------
# propagation up the weak order


def propagate(pair: SymmetricPair) -> Iterator[tuple[OrbitParameter, EquivariantClass]]:
    """(orbit, class) for every orbit, in ``graph.nodes`` order, seeded at
    the closed orbits.

    Each class is yielded once every edge into it has been walked, which
    the graph's order guarantees: nodes go by level, every raise goes up
    one level, and edges go by their source.  Then the node's own edges
    are walked and its class is dropped, so only about two levels of
    classes are alive at a time.  A node with several incoming edges keeps
    the first arrival; every later arrival is checked against it by
    localization.  The class of the dense orbit, whose closure is G/B,
    must be 1, which also catches a fault that every path carries alike.
    """
    graph = build_weak_order_graph(pair)
    spec = pair.spec_string()
    space, indices = pair.variable_space(), range(1, pair.num_simple_roots() + 1)
    actions = [simple_root_action(space, pair.kind.roots, i) for i in indices]
    live = {param: closed_orbit_class(pair, param) for param in graph.closed}
    one = space.one()
    done: set = set()
    edges, k = graph.edges, 0
    for node in graph.nodes:
        cls = live.pop(node)
        if node == graph.dense and (w := settle(pair, [(cls.polynomial, one)])[0]) is not None:
            raise InternalError(
                f"{spec}: the class of the dense orbit {node} is not 1: it differs"
                f" from 1 at fixed point w = {w}"
            )
        yield node, cls
        done.add(node)
        while k < len(edges) and edges[k].source == node:
            edge = edges[k]
            k += 1
            target = edge.target
            if target in done:
                raise InternalError(
                    f"{spec}: edge {_edge_text(edge)} reaches {target}, whose class"
                    " the walk has already yielded"
                )
            poly = divided_difference(cls.polynomial, actions[edge.root_index - 1])
            if edge.degree == 2:
                poly = poly / 2
            stored = live.get(target)
            if stored is None:
                live[target] = EquivariantClass(pair, poly)
            elif (w := settle(pair, [(stored.polynomial, poly)])[0]) is not None:
                raise _path_error(spec, edge, w)


def propagate_all(pair: SymmetricPair) -> dict[OrbitParameter, EquivariantClass]:
    """Classes for every orbit, in ``graph.nodes`` order."""
    return dict(propagate(pair))


def _edge_text(edge: WeakEdge) -> str:
    return (
        f"{edge.source} -> {edge.target} by alpha_{edge.root_index}"
        f" (degree {edge.degree})"
    )


def _path_error(spec: str, edge: WeakEdge, w) -> InternalError:
    return InternalError(
        f"{spec}: paths into {edge.target} disagree under localization: edge"
        f" {_edge_text(edge)} differs from the stored class at fixed point w = {w}"
    )


# ---------------------------------------------------------------------------
# the component tag rule of the even orthogonal pair, checked by localization


def _component_representatives(inv: tuple[int, ...], n: int) -> dict[str, SignedPermutation]:
    """Fixed-point representatives of the two components of a split orbit.

    The k-th two-cycle (i, j), i < j, of the fixed-point-free involution
    takes the coordinate pair (e_k, e_{2n+1-k}): the + representative
    sends i to k and j to 2n+1-k, the - one also swaps the values n, n+1.
    On the longest involution they are the identity and that value swap.
    """
    images = [0] * (2 * n)
    k = 0
    for i, j in enumerate(inv, start=1):
        if j > i:
            k += 1
            images[i - 1], images[j - 1] = k, 2 * n + 1 - k
    swap = {n: n + 1, n + 1: n}
    return {
        PLUS: SignedPermutation("A", tuple(images)),
        MINUS: SignedPermutation("A", tuple(swap.get(v, v) for v in images)),
    }


def split_orbit_data(pair: SymmetricPair) -> dict[OrbitParameter, EquivariantClass]:
    """Classes of (SL(2n), SO(2n)), with the tag rule of
    ``classify_simple_root`` checked independently.

    The class of each component of a split orbit must restrict to nonzero
    at its own component's representative and to zero at the other's.
    """
    classes = propagate_all(pair)
    for param, cls in classes.items():
        if not param.component:
            continue
        for tag, rep in _component_representatives(param.involution, pair.n).items():
            zero = restrict_at(cls, rep.images).is_zero
            if zero == (tag == param.component):
                raise InternalError(
                    f"{pair.spec_string()}: the class of {param} restricts to"
                    f" {'zero' if zero else 'nonzero'} at the {tag} component's"
                    f" representative w = {rep.images}"
                )
    return classes


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
        exponents = zs + [0 if p + q else min(a)]
        expansion = product(space, (g**e for g, e in zip(generators, exponents) if e))
        if split_leading_x(expansion)[0] != a:
            raise ContractViolation(message)
        result = result + lift_y(c, out) * out.monomial(exponents + [0] * out.y_count)
        work = work - c * expansion
    return ChernExpression(pair, blocks, result)


# ---------------------------------------------------------------------------
# tables, fixtures, verification


def format_table(
    pair: SymmetricPair,
    items: Iterable[tuple[OrbitParameter, EquivariantClass]],
    fmt: str,
    write: Callable[[str], object],
) -> None:
    """Write one row per (orbit, class) item, as soon as the item comes,
    in the ``table``, ``csv`` or ``machine`` format.  The table's first
    column is as wide as the longest orbit of the pair's graph."""
    if fmt == "machine":
        row = "{} := {}\n".format
    elif fmt == "csv":
        write("parameter,formula\n")
        row = '"{}","{}"\n'.format
    elif fmt == "table":
        width = max(len(str(param)) for param in build_weak_order_graph(pair).nodes)
        row = f"{{!s:<{width}}}  {{}}\n".format
    else:
        raise UsageError(f"unknown table format {fmt!r}")
    memo: dict = {}  # one text per monomial for the whole table
    for param, cls in items:
        write(row(param, format_polynomial(cls.polynomial, memo=memo)))


def parse_fixture(text: str) -> tuple[Optional[str], list[tuple[str, str]]]:
    """Fixture files: comment headers, then ``parameter := polynomial``
    lines.  A ``# pair:`` header names the symmetric pair; a second header
    naming another pair is refused."""
    pair_spec = None
    rows: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("pair:"):
                named = body[5:].strip()
                if pair_spec not in (None, named):
                    raise UsageError(
                        f"fixture line {lineno} names the pair {named!r}, but an earlier"
                        f" header names {pair_spec!r}"
                    )
                pair_spec = named
            continue
        if ":=" not in line:
            raise UsageError(f"fixture line {lineno} lacks ':='")
        param_text, poly_text = line.split(":=", 1)
        rows.append((param_text.strip(), poly_text.strip()))
    return pair_spec, rows


def _summands(pair: SymmetricPair, param: OrbitParameter) -> tuple:
    """The orbits whose classes add up to the parameter's: the orbit
    itself when it is a node of the pair's graph, else the two components
    of an untagged split involution."""
    return (param,) if param in build_weak_order_graph(pair).level else split_components(param)


def parameter_classes(pair: SymmetricPair, params: list[OrbitParameter]) -> list[EquivariantClass]:
    """The class of each parameter parsed with ``allow_union``, an untagged
    split involution being the union of its two components (their classes
    add).  ``propagate`` is walked only until every class they add is
    yielded; every path check into an orbit is done by then."""
    summands = [_summands(pair, param) for param in params]
    wanted = {part for parts in summands for part in parts}
    found = {}
    for node, cls in propagate(pair):
        if node in wanted:
            found[node] = cls
            if len(found) == len(wanted):
                break
    classes = []
    for first, *rest in summands:
        cls = found[first]
        for part in rest:
            cls = EquivariantClass(pair, cls.polynomial + found[part].polynomial)
        classes.append(cls)
    return classes


def verify_rows(
    pair: SymmetricPair,
    rows: list[tuple[str, str]],
    literal: bool = False,
) -> list[tuple[str, bool]]:
    """Check fixture rows against propagated classes.

    Every parameter, then every polynomial, is parsed before any class is
    computed.  Default comparison is localization equality, all rows in one
    ``settle``; ``literal`` demands the exact canonical polynomial.
    """
    space = pair.variable_space()
    params = [parse_orbit_parameter(pair, text, allow_union=True) for text, _ in rows]
    expected = [parse_polynomial(text, space) for _, text in rows]
    classes = parameter_classes(pair, params)
    comparisons = [(cls.polynomial, poly) for cls, poly in zip(classes, expected)]
    if literal:
        checks = [f == g for f, g in comparisons]
    else:
        checks = [w is None for w in settle(pair, comparisons)]
    return [(param_text, ok) for (param_text, _), ok in zip(rows, checks)]
