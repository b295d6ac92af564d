"""Orbit parametrizations and the weak order.

An orbit parameter is the label itself: a ``Clan`` (of the pair's clan
rule) or an ``InvolutionOrbit``, an involution of the ambient symmetric
group whose component "+" or "-" tags one of the two halves of a split
fixed-point-free involution of the even special-orthogonal pair and is
empty otherwise.  The module builds the weak-order graph by
breadth-first raising from the closed orbits, classifies simple roots
(complex / non-compact imaginary of type I or II), and emits the graph as
DOT.  A raise puts its source's closure in its target's; no other
closure containment is decided.  The closed orbits, the minimal elements
of the weak order, are picked out of the enumeration by
one closedness test; nothing here reads a torus-fixed point, which is
``classes``' business.  The cached graph, walked a frontier at a time in
the sorted enumeration's order, is the one record of which parameters
exist and which are closed; the parser accepts its nodes.  Clan moves
read and write a clan's mates without renumbering: each is the type A
move at one or two windows, at positions (i, i+1) and, for i < n, at
their mirror images.  Type D's alpha_n is the alpha_{n-1} move seen
through the diagram flip that swaps positions n and n+1.  Only type B's
alpha_n and the degree-two raises of the orthogonal pairs add a rule of
their own.
"""

from __future__ import annotations

import functools
import types
from typing import Mapping, Optional, Sequence, Union

from .clans import MINUS, PLUS, Clan, enumerate_clans
from .errors import ContractViolation, InternalError, UsageError
from .pairs import SymmetricPair
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

    A clan or an involution, with its component tag if any, is accepted
    when it is a node of the pair's weak-order graph, whose node set is
    checked against ``enumerate_orbits``.  With ``allow_union`` an
    untagged involution is also accepted when its two split components
    are both nodes; it denotes their union.
    """
    text = text.strip()
    level = build_weak_order_graph(pair).level
    if pair.is_clan_case():
        clan, want = Clan.parse(text), pair.clan_signature()
        if clan.signature() != want:
            raise UsageError(f"clan {clan} has signature {clan.signature()}, pair needs {want}")
        if clan not in level:
            raise UsageError(f"clan {clan} does not label an orbit of {pair.describe()}")
        return clan
    tag = text[:1] if text[:1] in (PLUS, MINUS) else ""
    param = InvolutionOrbit(parse_cycles(text[len(tag):], pair.ambient[1]).images, tag)
    parts = split_components(param) if allow_union and param not in level else (param,)
    if not all(part in level for part in parts):
        raise UsageError(f"{text!r} does not label an orbit of {pair.describe()}")
    return param


def split_components(param: InvolutionOrbit) -> tuple[InvolutionOrbit, ...]:
    """The two components of an untagged fixed-point-free involution, else itself."""
    if param.component or _has_fixed_point(param.involution):
        return (param,)
    return (InvolutionOrbit(param.involution, PLUS), InvolutionOrbit(param.involution, MINUS))


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
    for inv in involutions(pair.ambient[1]):
        fixed = _has_fixed_point(inv)
        if policy == "split" and not fixed:
            params.append(InvolutionOrbit(inv, PLUS))
            params.append(InvolutionOrbit(inv, MINUS))
        elif not (fixed and policy == "fixed-point-free"):
            params.append(InvolutionOrbit(inv))
    # involutions() is in lexicographic order, and components "" < "+" < "-"
    return params


# ---------------------------------------------------------------------------
# closed orbits


def _is_closed(pair: SymmetricPair, param: OrbitParameter) -> bool:
    """Is the orbit closed, a minimal element of the weak order?  An
    involution orbit is closed at the longest involution; a clan when it
    has no number pair, except that the closed clans of the unequal-rank
    orthogonal pair have exactly one, at the centre (n, n+1)."""
    if isinstance(param, InvolutionOrbit):
        return param.involution == tuple(range(len(param.involution), 0, -1))
    mates = param.mates
    numbers = len(mates) - mates.count(PLUS) - mates.count(MINUS)
    if pair.kind.closed == "oo_odd":
        return numbers == 2 and mates[pair.n - 1] == pair.n + 1
    return numbers == 0


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
# involution moves (the pairs (SL(N), SO(N)) and (SL(N), Sp(N)))


def _involution_status(images: tuple[int, ...], i: int) -> Optional[tuple[tuple[int, ...], bool]]:
    """(target, degree_two_flag) for the raise at s_i, or None.

    Raising happens when left multiplication by s_i shortens the
    involution; conjugation gives a degree-one cover when it moves the
    involution, otherwise the target is the left product (degree two).
    """
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


# ---------------------------------------------------------------------------
# classification


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
        # of the components' representatives (in classes), where the k-th
        # two-cycle takes the pair (e_k, e_{2n+1-k}), swapping the vectors
        # at i and i+1 of the + representative gives the + representative
        # of the conjugated involution, up to an SO(2n) permutation of
        # those pairs; that flag lies in Q.P_i but not in Q, and the O(2n)
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


# ---------------------------------------------------------------------------
# the weak order graph


class WeakEdge(Record):
    __slots__ = ("source", "target", "root_index", "degree")

    def __init__(self, source, target, root_index: int, degree: int) -> None:
        set_field(self, "source", source)
        set_field(self, "target", target)
        set_field(self, "root_index", root_index)
        set_field(self, "degree", degree)


class WeakOrderGraph(Record):
    __slots__ = ("nodes", "edges", "closed", "dense", "level")

    def __init__(self, nodes: tuple, edges: tuple, closed: tuple, dense, level: Mapping):
        set_fields(self, nodes, edges, closed, dense, level)


@functools.lru_cache(maxsize=None)
def build_weak_order_graph(pair: SymmetricPair) -> WeakOrderGraph:
    """Breadth-first weak-order graph built up from the closed orbits,
    the orbits of ``enumerate_orbits`` that ``_is_closed`` accepts, checked
    to reach every orbit and to have one dense orbit.  A closed orbit
    left out goes unreached, and another orbit let in is raised onto a
    level above its place, so a wrong closedness test is caught here.

    Each frontier is walked in ``enumerate_orbits`` order, so the nodes
    go by level, then in that order, and the edges by the position of
    their source, then by root: walking the edges in order visits every
    source after all of its own in-edges.  ``level`` is keyed in
    ``enumerate_orbits`` order.  The graph is cached per pair and shared
    by all callers.
    """
    expected = enumerate_orbits(pair)
    position = {param: k for k, param in enumerate(expected)}
    closed = tuple(param for param in expected if _is_closed(pair, param))
    level = dict.fromkeys(closed, 0)
    nodes: list[OrbitParameter] = []
    edges: list[WeakEdge] = []
    frontier, depth = list(closed), 0
    while frontier:
        frontier.sort(key=lambda param: position.get(param, -1))
        nodes += frontier
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
                    raise InternalError(
                        f"{pair.spec_string()}: inconsistent level for {target}, raised"
                        f" from {param} by alpha_{i}: {level[target]} vs {depth + 1}"
                    )
        frontier = next_frontier
        depth += 1
    if level.keys() != position.keys():
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
    ordered = types.MappingProxyType({param: level[param] for param in expected})
    return WeakOrderGraph(tuple(nodes), tuple(edges), closed, maximal[0], ordered)


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
