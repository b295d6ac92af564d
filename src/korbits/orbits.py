"""Orbit parametrizations and the weak closure order.

An orbit parameter is the label itself: a ``Clan`` (with per-pair
validity filters) or an ``InvolutionOrbit``, an involution of the ambient
symmetric group whose component "+" or "-" tags one of the two halves of
a split fixed-point-free involution of the even special-orthogonal pair
and is empty otherwise.  The module builds the weak-order
graph by breadth-first raising from the closed orbits, classifies simple
roots (complex / non-compact imaginary of type I or II), exposes the
monoid action on twisted involutions, a closure-order comparator and DOT
emission.  The graph takes its order from the sorted enumeration, and
clan moves read and write a clan's mates without renumbering.  Every
clan move is the type A move at one or two windows: at
positions (i, i+1) and, for i < n, at their mirror images.  Type D's
alpha_n is the alpha_{n-1} move seen through the diagram flip that swaps
positions n and n+1.  Only type B's alpha_n and the degree-two raises of
the orthogonal pairs add a rule of their own.
"""

from __future__ import annotations

import functools
import itertools
import types
from typing import Callable, Mapping, Optional, Sequence, Union

from .clans import MINUS, PLUS, Clan, enumerate_clans, pair_validity
from .errors import ContractViolation, InternalError, UsageError
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
from .records import Record, set_field, set_fields
from .weyl import SignedPermutation, involutions, parse_cycles

# ---------------------------------------------------------------------------
# orbit parameters


class InvolutionOrbit(Record):
    """An orbit labelled by an honest involution (image tuple); the
    component "+" or "-" tags one half of a split orbit of the even
    orthogonal pair, and is "" everywhere else."""

    __slots__ = ("involution", "component")

    def __init__(self, involution: tuple[int, ...], component: str = "") -> None:
        set_fields(self, involution, component)
        if component not in ("", PLUS, MINUS):
            raise ContractViolation("component tag must be + or -")
        if component and _has_fixed_point(involution):
            raise ContractViolation("only fixed-point-free involutions split")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.involution == other.involution and self.component == other.component

    def __hash__(self) -> int:
        return hash((self.involution, self.component))

    def __str__(self) -> str:
        return self.component + SignedPermutation("A", self.involution).cycle_string()

    def sort_key(self):
        return (self.involution, self.component)


OrbitParameter = Union[Clan, InvolutionOrbit]


class RootStatus(Record):
    """Effect of a simple root on an orbit: no raise, or a cover of degree
    1 (complex or non-compact type I) or 2 (non-compact type II)."""

    __slots__ = ("kind", "target")  # kind: complex, noncompact_I or _II, or no_raise

    def __init__(self, kind: str, target: Optional[OrbitParameter] = None) -> None:
        set_field(self, "kind", kind)
        set_field(self, "target", target)

    @property
    def raises(self) -> bool:
        return self.kind != "no_raise"

    @property
    def degree(self) -> int:
        return 2 if self.kind == "noncompact_II" else 1


NO_RAISE = RootStatus("no_raise")


def parse_orbit_parameter(
    pair: SymmetricPair, text: str, allow_union: bool = False
) -> OrbitParameter:
    """Parse a printed orbit parameter for the given pair.

    With ``allow_union`` a bare fixed-point-free involution is accepted for
    the even orthogonal pair, denoting the union of its two components.
    """
    text = text.strip()
    if pair.is_clan_case():
        clan = Clan.parse(text)
        try:
            valid = pair_validity(clan, pair)
        except ContractViolation as exc:
            raise UsageError(str(exc)) from None
        if not valid:
            raise UsageError(f"clan {clan} does not label an orbit of {pair.describe()}")
        return clan
    policy, size = pair.kind.involutions, pair.ambient_family()[1]
    tag = text[0] if policy == "split" and text[:1] in (PLUS, MINUS) else ""
    perm = parse_cycles(text[len(tag):], size)
    _require_involution(perm)
    fixed = _has_fixed_point(perm.images)
    if policy == "fixed-point-free" and fixed:
        raise UsageError(f"{text!r} has fixed points; not an orbit of {pair.describe()}")
    if policy == "split" and not (fixed or tag or allow_union):
        raise UsageError(f"{text!r} needs a +/- component tag for {pair.describe()}")
    return InvolutionOrbit(perm.images, tag)


def _require_involution(perm: SignedPermutation) -> None:
    if (perm * perm).images != tuple(range(1, perm.n + 1)):
        raise UsageError(f"{perm.cycle_string()} is not an involution")


def _has_fixed_point(images: tuple[int, ...]) -> bool:
    return any(v == i for i, v in enumerate(images, start=1))


# ---------------------------------------------------------------------------
# enumeration


def enumerate_orbits(pair: SymmetricPair) -> list[OrbitParameter]:
    """All orbit parameters of the pair, in the order of their sort keys."""
    rule, policy = pair.kind.clan_rule, pair.kind.involutions
    if rule is not None:
        clans = enumerate_clans(
            *pair.clan_signature(), mirror=rule.mirror, anti_reflexive=rule.anti_reflexive
        )
        return [c for c in clans if not rule.even_front or c.front_parity_even()]
    params: list[OrbitParameter] = []
    for inv in involutions(pair.ambient_family()[1]):
        fixed = _has_fixed_point(inv)
        if policy == "split" and not fixed:
            params.append(InvolutionOrbit(inv, PLUS))
            params.append(InvolutionOrbit(inv, MINUS))
        elif not (fixed and policy == "fixed-point-free"):
            params.append(InvolutionOrbit(inv))
    # involutions() is in lexicographic order, and components "" < "+" < "-"
    return params


# ---------------------------------------------------------------------------
# closed orbits and their torus-fixed representatives


def _sign_string_images(signs: Sequence[str], p: int) -> tuple[int, ...]:
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


def _longest_involution(size: int) -> tuple[int, ...]:
    return tuple(range(size, 0, -1))


def _sign_strings(n: int, p: int):
    """Sign lists of length n with p plus signs, in combination order."""
    for plus_positions in itertools.combinations(range(n), p):
        signs = [MINUS] * n
        for idx in plus_positions:
            signs[idx] = PLUS
        yield signs


def _closed_glpq(pair: SymmetricPair):
    for signs in _sign_strings(pair.n, pair.p):
        images = _sign_string_images(signs, pair.p)
        yield Clan(signs), SignedPermutation("A", images)


def _closed_longest(pair: SymmetricPair):
    size = pair.ambient_family()[1]
    yield InvolutionOrbit(_longest_involution(size)), SignedPermutation.identity("A", size)


def _closed_split(pair: SymmetricPair):
    size = pair.ambient_family()[1]
    w0 = _longest_involution(size)
    identity = SignedPermutation.identity("A", size)
    yield InvolutionOrbit(w0, PLUS), identity
    yield InvolutionOrbit(w0, MINUS), _value_swap(identity, pair.n)


def _closed_blocks(pair: SymmetricPair):
    # the odd-length (type B) clans carry a minus sign in the middle
    middle = [MINUS] if pair.root_family() == "B" else []
    for half in _sign_strings(pair.n, pair.p):
        clan = Clan(half + middle + half[::-1])
        images = _sign_string_images(half, pair.p)
        yield clan, SignedPermutation(pair.kind.ambient, images)


def _closed_gl(pair: SymmetricPair):
    family = pair.kind.ambient
    for signs in itertools.product((PLUS, MINUS), repeat=pair.n):
        if family == "D" and signs.count(MINUS) % 2:
            continue
        symbols = list(signs) + [PLUS if s == MINUS else MINUS for s in reversed(signs)]
        images = tuple(i if s == PLUS else -i for i, s in enumerate(signs, start=1))
        yield Clan(symbols), SignedPermutation(family, images)


def _closed_oo_odd(pair: SymmetricPair):
    n, p = pair.n, pair.p
    for half in _sign_strings(n - 1, p):
        # position n goes to p+1, between the two blocks
        images = _sign_string_images(half, p + 1) + (p + 1,)
        yield Clan(half + [1, 1] + half[::-1]), SignedPermutation("D", images)


_CLOSED_ORBITS = {
    A_GLPQ: _closed_glpq,
    A_SO_ODD: _closed_longest,
    A_SP: _closed_longest,
    A_SO_EVEN: _closed_split,
    B_OO: _closed_blocks,
    C_SPSP: _closed_blocks,
    D_OO: _closed_blocks,
    C_GL: _closed_gl,
    D_GL: _closed_gl,
    D_OO_ODD: _closed_oo_odd,
}


def closed_orbits(pair: SymmetricPair) -> list[tuple[OrbitParameter, SignedPermutation]]:
    """Closed orbits with one torus-fixed representative each."""
    return sorted(_CLOSED_ORBITS[pair.case](pair), key=lambda pr: pr[0].sort_key())


def _value_swap(w: SignedPermutation, n: int) -> SignedPermutation:
    """Left-multiply by the transposition of the values n, n+1."""
    swap = {n: n + 1, n + 1: n}
    return SignedPermutation(w.family, tuple(swap.get(v, v) for v in w.images))


# ---------------------------------------------------------------------------
# clan moves


def _fresh_pair(clan: Clan, positions: Sequence[int]) -> Clan:
    """Each two consecutive positions joined into a number pair."""
    updates = {}
    for p, q in zip(positions[::2], positions[1::2]):
        updates[p], updates[q] = q, p
    return clan.replace(updates)


def _adjacent_kind(clan: Clan, i: int, j: int) -> Optional[str]:
    """The type A move rule at positions i < j: "complex", "noncompact_I"
    (two different signs) or None (no raise)."""
    m1, m2 = clan.mates[i - 1], clan.mates[j - 1]
    s1, s2 = m1 in (PLUS, MINUS), m2 in (PLUS, MINUS)
    if s1 and s2:
        return "noncompact_I" if m1 != m2 else None
    if s1:
        return "complex" if m2 > j else None
    if s2:
        return "complex" if m1 < i else None
    return "complex" if m1 != j and m1 < m2 else None


def _adjacent_status(clan: Clan, *windows: tuple[int, int]) -> RootStatus:
    """The type A move at the first window, applied at every window: swap
    each, or join each into a fresh number pair."""
    kind = _adjacent_kind(clan, *windows[0])
    if kind == "complex":
        for i, j in windows:
            clan = clan.swap(i, j)
        return RootStatus(kind, clan)
    if kind == "noncompact_I":
        return RootStatus(kind, _fresh_pair(clan, sum(windows, ())))
    return NO_RAISE


def _clan_status_mirrored(clan: Clan, i: int, with_type_ii: bool) -> RootStatus:
    """Move at alpha_i (i < n) for a length-L clan of a type B/C/D pair.

    The reflection acts simultaneously at positions (i, i+1) and their
    mirror images (L-i, L+1-i).  Numbers at i and i+1 mated with those
    mirror images give the degree-two raise when ``with_type_ii`` is set
    (the orthogonal-type pairs) and no raise otherwise; all other clans
    follow the type A rule at (i, i+1).
    """
    size = len(clan)
    mi, mi1 = size - i, size + 1 - i
    if clan.mates[i - 1] == mi and clan.mates[i] == mi1:
        if with_type_ii:
            return RootStatus("noncompact_II", clan.swap(i, i + 1))
        return NO_RAISE
    return _adjacent_status(clan, (i, i + 1), (mi, mi1))


def _clan_status_b_last(clan: Clan, n: int) -> RootStatus:
    """Type B alpha_n: acts at positions n, n+2 of a length 2n+1 clan,
    mirror images of each other, around the sign at n+1."""
    # a symmetric clan has equal signs at the mirror positions n, n+2, so the
    # type A move there is complex or no raise
    status = _adjacent_status(clan, (n, n + 2))
    if status.raises:
        return status
    cn, mid = clan.mates[n - 1], clan.mates[n]
    if cn in (PLUS, MINUS) and mid in (PLUS, MINUS) and cn != mid:
        flipped = PLUS if mid == MINUS else MINUS
        target = clan.replace({n: n + 2, n + 2: n, n + 1: flipped})
        return RootStatus("noncompact_II", target)
    return NO_RAISE


def _clan_status_d_last(clan: Clan, n: int, with_type_ii: bool) -> RootStatus:
    """Type D alpha_n: the alpha_{n-1} move on the clan with positions n and
    n+1 swapped, swapped back.

    The diagram automorphism exchanging alpha_{n-1} and alpha_n is
    conjugation by the reflection that swaps e_n and e_{n+1}, an element of
    O(2n) outside SO(2n) that normalizes K for every type D pair; on a
    length-2n clan it swaps positions n and n+1.
    """
    status = _clan_status_mirrored(clan.swap(n, n + 1), n - 1, with_type_ii)
    if not status.raises:
        return status
    return RootStatus(status.kind, status.target.swap(n, n + 1))


def _clan_classify(pair: SymmetricPair, clan: Clan, i: int) -> RootStatus:
    n, kind = pair.n, pair.kind
    if kind.roots == "A" or (kind.roots == "C" and i == n):
        # type C: positions n, n+1 of a length-2n clan mirror each other, both
        # signs or both numbers
        return _adjacent_status(clan, (i, i + 1))
    # the degree-two raise pairs mirrored positions, which an
    # anti-reflexive rule forbids
    with_type_ii = not kind.clan_rule.anti_reflexive
    if i < n:
        return _clan_status_mirrored(clan, i, with_type_ii)
    if kind.roots == "B":
        return _clan_status_b_last(clan, n)
    return _clan_status_d_last(clan, n, with_type_ii)


# ---------------------------------------------------------------------------
# involution moves (orthogonal and symplectic subgroups of SL(N))


def _involution_status(images: tuple[int, ...], i: int) -> Optional[tuple[tuple[int, ...], bool]]:
    """(target, degree_two_flag) for the raise at s_i, or None.

    Raising happens when left multiplication by s_i shortens the
    involution; conjugation gives a degree-one cover when it moves the
    involution, otherwise the target is the left product (degree two).
    """
    n = len(images)
    if not 1 <= i <= n - 1:
        raise ContractViolation(f"root index {i} out of range")
    pos_i = images.index(i) + 1
    pos_i1 = images.index(i + 1) + 1
    if pos_i < pos_i1:  # l(s_i b) > l(b): no raise
        return None
    conjugated = _conjugate_by_transposition(images, i)
    if conjugated != images:
        return conjugated, False
    swapped = tuple({i: i + 1, i + 1: i}.get(v, v) for v in images)
    return swapped, True


def _conjugate_by_transposition(images: tuple[int, ...], i: int) -> tuple[int, ...]:
    t = {i: i + 1, i + 1: i}
    out = [0] * len(images)
    for pos in range(1, len(images) + 1):
        out[t.get(pos, pos) - 1] = t.get(images[pos - 1], images[pos - 1])
    return tuple(out)


def twisted_involution_action(
    a: SignedPermutation, i: int, theta: Callable[[SignedPermutation], SignedPermutation]
) -> SignedPermutation:
    """The monoid action m(s_i) * a on twisted involutions.

    ``theta`` is the ambient twist; ``a`` must satisfy theta(a) = a^{-1}.
    The three branches: drop (no move), left product (when the twisted
    action fixes a), twisted conjugation otherwise.
    """
    if theta(a) != a.inverse():
        raise ContractViolation("not a twisted involution for this twist")
    s = _transposition(a.n, i)
    sa = s * a
    if sa.length() < a.length():
        return a
    twisted = (s * a) * theta(s).inverse()
    if twisted == a:
        return sa
    return twisted


def _transposition(n: int, i: int) -> SignedPermutation:
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return SignedPermutation("A", tuple(images))


def conjugation_by_longest(n: int) -> Callable[[SignedPermutation], SignedPermutation]:
    """The twist w -> w0 w w0 used by all type A non-equal-rank pairs."""
    w0 = SignedPermutation("A", tuple(range(n, 0, -1)))

    def theta(w: SignedPermutation) -> SignedPermutation:
        return (w0 * w) * w0

    return theta


# ---------------------------------------------------------------------------
# classification and the cross action


def classify_simple_root(pair: SymmetricPair, param: OrbitParameter, i: int) -> RootStatus:
    """Kind of alpha_i for the orbit, with the raised orbit when one exists."""
    if not 1 <= i <= pair.num_simple_roots():
        raise ContractViolation(f"root index {i} out of range for {pair.describe()}")
    if isinstance(param, Clan):
        return _clan_classify(pair, param, i)
    move = _involution_status(param.involution, i)
    if move is None:
        return NO_RAISE
    target, degree_two = move
    if not degree_two:
        # A complex raise keeps the component tag.  In the coordinate basis
        # of classes._component_representatives, where the k-th two-cycle
        # takes the pair (e_k, e_{2n+1-k}), swapping the vectors at i and
        # i+1 of the + representative gives the + representative of the
        # conjugated involution, up to an SO(2n) permutation of those
        # pairs; that flag lies in Q.P_i but not in Q, and the O(2n)
        # component swap commutes with P_i.
        return RootStatus("complex", InvolutionOrbit(target, param.component))
    if param.component:
        # each component covers the unsplit target once
        return RootStatus("noncompact_I", InvolutionOrbit(target))
    if pair.kind.involutions == "fixed-point-free":
        # the left product acquires fixed points, which lies outside the
        # symplectic orbit set: no edge
        return NO_RAISE
    return RootStatus("noncompact_II", InvolutionOrbit(target))


def cross_action(pair: SymmetricPair, w: SignedPermutation, param: OrbitParameter) -> OrbitParameter:
    """The Weyl-group cross action on orbit parameters."""
    if isinstance(param, Clan):
        sigma = w if pair.ambient_family()[0] == "A" else w.embed_as_permutation(len(param))
        moved = [None] * len(param)
        for image, sym in zip(sigma.images, param.symbols):
            moved[image - 1] = sym
        return Clan(moved)  # type: ignore[arg-type]
    inv = SignedPermutation("A", param.involution)
    conjugated = (w * inv) * w.inverse()
    # a tagged component moves with the representative; callers that need
    # the precise tag use the localization machinery instead
    return InvolutionOrbit(conjugated.images, param.component)


# ---------------------------------------------------------------------------
# the weak order graph


class WeakEdge(Record):
    __slots__ = ("source", "target", "root_index", "degree")

    def __init__(self, source, target, root_index: int, degree: int) -> None:
        set_field(self, "source", source)
        set_field(self, "target", target)
        set_field(self, "root_index", root_index)
        set_field(self, "degree", degree)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.source, self.target, self.root_index, self.degree) == (
            other.source, other.target, other.root_index, other.degree
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.root_index, self.degree))


class WeakOrderGraph(Record):
    __slots__ = ("pair", "nodes", "edges", "closed", "dense", "level")

    def __init__(self, pair, nodes: tuple, edges: tuple, closed: tuple, dense, level: Mapping):
        set_fields(self, pair, nodes, edges, closed, dense, level)


@functools.lru_cache(maxsize=None)
def build_weak_order_graph(pair: SymmetricPair) -> WeakOrderGraph:
    """Breadth-first weak-order graph built up from the closed orbits.

    Walking the edges in order visits every source after all of its own
    in-edges.  The graph is cached per pair and shared by all callers.
    """
    closed = [param for param, _ in closed_orbits(pair)]
    level = {param: 0 for param in closed}
    edges: list[WeakEdge] = []
    frontier = closed
    depth = 0
    while frontier:
        next_frontier: list[OrbitParameter] = []
        for param in frontier:
            for i in range(1, pair.num_simple_roots() + 1):
                status = classify_simple_root(pair, param, i)
                if not status.raises:
                    continue
                target = status.target
                assert target is not None
                edges.append(WeakEdge(param, target, i, status.degree))
                if target not in level:
                    level[target] = depth + 1
                    next_frontier.append(target)
                elif level[target] != depth + 1:
                    raise _level_error(pair, param, i, target, level[target], depth + 1)
        frontier = next_frontier
        depth += 1
    return _finish_graph(pair, closed, level, edges)


def _level_error(pair, source, i: int, target, found: int, want: int) -> InternalError:
    return InternalError(
        f"{pair.spec_string()}: inconsistent level for {target}, raised "
        f"from {source} by alpha_{i}: {found} vs {want}"
    )


def _finish_graph(pair: SymmetricPair, closed: list, level: dict, edges: list) -> WeakOrderGraph:
    """The graph of a finished breadth-first walk, once it is checked to
    reach every orbit and to have one dense orbit.  Nodes are ordered by
    level, then as ``enumerate_orbits`` lists them; edges by the position
    of their source in that order, then by root.  ``level`` is keyed in
    ``enumerate_orbits`` order."""
    expected = enumerate_orbits(pair)
    ordered = {param: level[param] for param in expected if param in level}
    if len(ordered) != len(level) or len(level) != len(expected):
        raise InternalError(
            f"weak order graph of {pair.spec_string()} reached {len(level)} "
            f"of {len(expected)} orbit parameters"
        )
    sources = {edge.source for edge in edges}
    maximal = [param for param in expected if param not in sources]
    if len(maximal) != 1:
        raise InternalError(
            f"{pair.spec_string()}: expected one dense orbit, found "
            + ", ".join(map(str, maximal))
        )
    nodes = tuple(sorted(expected, key=ordered.__getitem__))  # a stable sort
    rank = {param: idx for idx, param in enumerate(nodes)}
    edges.sort(key=lambda e: (rank[e.source], e.root_index))
    return WeakOrderGraph(
        pair, nodes, tuple(edges), tuple(closed), maximal[0], types.MappingProxyType(ordered)
    )


# ---------------------------------------------------------------------------
# closure order comparison


def _rank_numbers(images: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    n = len(images)
    return tuple(
        tuple(sum(1 for k in range(1, i + 1) if images[k - 1] <= j) for j in range(1, n + 1))
        for i in range(1, n + 1)
    )


def closure_compare(pair: SymmetricPair, a: OrbitParameter, b: OrbitParameter) -> str:
    """Order verdict "equal" / "less" / "greater" / "incomparable".

    "less" means the closure of a is contained in the closure of b.  Clan
    cases use the rank/dominance criterion (a conjectural description of
    closures, verified here only along weak-order edges); involution cases
    use rank numbers, i.e. reverse Bruhat order.  Components of split
    orbits with the same underlying involution are incomparable.
    """
    if a == b:
        return "equal"
    if isinstance(a, Clan) and isinstance(b, Clan):
        return _dominance_verdict(a, b)
    inv_a = a.involution  # type: ignore[union-attr]
    inv_b = b.involution  # type: ignore[union-attr]
    if inv_a == inv_b:
        return "incomparable"
    ra, rb = _rank_numbers(inv_a), _rank_numbers(inv_b)
    below = all(ra[i][j] <= rb[i][j] for i in range(len(ra)) for j in range(len(ra)))
    above = all(ra[i][j] >= rb[i][j] for i in range(len(ra)) for j in range(len(ra)))
    if below and not above:
        return "less"
    if above and not below:
        return "greater"
    return "incomparable"


def _dominance_verdict(a: Clan, b: Clan) -> str:
    below = _clan_dominated(a, b)
    above = _clan_dominated(b, a)
    if below and above:
        return "equal"
    if below:
        return "less"
    if above:
        return "greater"
    return "incomparable"


def _clan_dominated(a: Clan, b: Clan) -> bool:
    """Closure of a inside closure of b under the dominance inequalities."""
    size = len(a)
    for i in range(1, size + 1):
        if a.gamma_plus(i) < b.gamma_plus(i) or a.gamma_minus(i) < b.gamma_minus(i):
            return False
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            if a.gamma_pair(i, j) > b.gamma_pair(i, j):
                return False
    return True


# ---------------------------------------------------------------------------
# DOT emission


def to_dot(graph: WeakOrderGraph) -> str:
    """Weak order as a DOT digraph; degree-two covers are blue."""
    lines = ["digraph weak_order {", "  rankdir=BT;"]
    names = {}
    for idx, node in enumerate(graph.nodes):
        names[node] = f"n{idx}"
        label = str(node).replace('"', r"\"")
        lines.append(f'  n{idx} [label="{label}"];')
    for edge in graph.edges:
        color = "blue" if edge.degree == 2 else "black"
        lines.append(
            f"  {names[edge.source]} -> {names[edge.target]} "
            f'[label="{edge.root_index}", color={color}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
