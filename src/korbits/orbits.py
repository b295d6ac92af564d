"""Orbit parametrizations and the weak closure order.

Each symmetric pair's orbits are labelled either by clans (with per-pair
validity filters) or by involutions of the ambient symmetric group; the
even special-orthogonal pair additionally splits fixed-point-free
involutions into two tagged components.  The module builds the weak-order
graph by breadth-first raising from the closed orbits, classifies simple
roots (complex / non-compact imaginary of type I or II), exposes the
monoid action on twisted involutions, a closure-order comparator, orbit
representatives as explicit flags, and DOT emission.
"""

from __future__ import annotations

import functools
import itertools
import types
from fractions import Fraction
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


class ClanOrbit(Record):
    __slots__ = ("clan",)

    def __init__(self, clan: Clan) -> None:
        set_field(self, "clan", clan)

    def __eq__(self, other):
        return self.clan == other.clan if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash((self.clan,))

    def __str__(self) -> str:
        return str(self.clan)

    def sort_key(self):
        return (0, self.clan.sort_key())


class InvolutionOrbit(Record):
    """An orbit labelled by an honest involution (image tuple)."""

    __slots__ = ("involution",)

    def __init__(self, involution: tuple[int, ...]) -> None:
        set_field(self, "involution", involution)

    def __eq__(self, other):
        return self.involution == other.involution if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash((self.involution,))

    def __str__(self) -> str:
        return SignedPermutation("A", self.involution).cycle_string()

    def sort_key(self):
        return (1, self.involution)


class SplitOrbit(Record):
    """One component of a split orbit of the even orthogonal pair."""

    __slots__ = ("involution", "component")  # component "+" or "-"

    def __init__(self, involution: tuple[int, ...], component: str) -> None:
        set_field(self, "involution", involution)
        set_field(self, "component", component)
        if component not in (PLUS, MINUS):
            raise ContractViolation("component tag must be + or -")
        perm = SignedPermutation("A", involution)
        if any(perm.images[i - 1] == i for i in range(1, perm.n + 1)):
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
        return (1, self.involution, self.component)


OrbitParameter = Union[ClanOrbit, InvolutionOrbit, SplitOrbit]


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
        return ClanOrbit(clan)
    policy, size = pair.kind.involutions, pair.ambient_family()[1]
    if policy == "split" and text[:1] in (PLUS, MINUS):
        perm = parse_cycles(text[1:], size)
        _require_involution(perm)
        return SplitOrbit(perm.images, text[0])
    perm = parse_cycles(text, size)
    _require_involution(perm)
    if policy == "fixed-point-free" and _has_fixed_point(perm.images):
        raise UsageError(f"{text!r} has fixed points; not an orbit of {pair.describe()}")
    if policy == "split" and not _has_fixed_point(perm.images) and not allow_union:
        raise UsageError(f"{text!r} needs a +/- component tag for {pair.describe()}")
    return InvolutionOrbit(perm.images)


def _require_involution(perm: SignedPermutation) -> None:
    if (perm * perm).images != tuple(range(1, perm.n + 1)):
        raise UsageError(f"{perm.cycle_string()} is not an involution")


def _has_fixed_point(images: tuple[int, ...]) -> bool:
    return any(v == i for i, v in enumerate(images, start=1))


# ---------------------------------------------------------------------------
# enumeration


def enumerate_orbits(pair: SymmetricPair) -> list[OrbitParameter]:
    """All orbit parameters of the pair, sorted deterministically."""
    rule, policy = pair.kind.clan_rule, pair.kind.involutions
    if rule is not None:
        clans = enumerate_clans(
            *pair.clan_signature(), mirror=rule.mirror, anti_reflexive=rule.anti_reflexive
        )
        return [
            ClanOrbit(c) for c in clans if not rule.even_front or c.front_parity_even()
        ]
    params: list[OrbitParameter] = []
    for inv in involutions(pair.ambient_family()[1]):
        fixed = _has_fixed_point(inv)
        if policy == "split" and not fixed:
            params.append(SplitOrbit(inv, PLUS))
            params.append(SplitOrbit(inv, MINUS))
        elif not (fixed and policy == "fixed-point-free"):
            params.append(InvolutionOrbit(inv))
    return sorted(params, key=lambda p: p.sort_key())


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
        yield ClanOrbit(Clan.of(signs)), SignedPermutation("A", images)


def _closed_longest(pair: SymmetricPair):
    size = pair.ambient_family()[1]
    yield InvolutionOrbit(_longest_involution(size)), SignedPermutation.identity("A", size)


def _closed_split(pair: SymmetricPair):
    size = pair.ambient_family()[1]
    w0 = _longest_involution(size)
    identity = SignedPermutation.identity("A", size)
    yield SplitOrbit(w0, PLUS), identity
    yield SplitOrbit(w0, MINUS), _value_swap(identity, pair.n)


def _closed_blocks(pair: SymmetricPair):
    # the odd-length (type B) clans carry a minus sign in the middle
    middle = [MINUS] if pair.root_family() == "B" else []
    for half in _sign_strings(pair.n, pair.p):
        clan = Clan.of(half + middle + half[::-1])
        images = _sign_string_images(half, pair.p)
        yield ClanOrbit(clan), SignedPermutation(pair.kind.ambient, images)


def _closed_gl(pair: SymmetricPair):
    family = pair.kind.ambient
    for signs in itertools.product((PLUS, MINUS), repeat=pair.n):
        if family == "D" and signs.count(MINUS) % 2:
            continue
        symbols = list(signs) + [PLUS if s == MINUS else MINUS for s in reversed(signs)]
        images = tuple(i if s == PLUS else -i for i, s in enumerate(signs, start=1))
        yield ClanOrbit(Clan.of(symbols)), SignedPermutation(family, images)


def _closed_oo_odd(pair: SymmetricPair):
    n, p = pair.n, pair.p
    for half in _sign_strings(n - 1, p):
        # position n goes to p+1, between the two blocks
        images = _sign_string_images(half, p + 1) + (p + 1,)
        yield ClanOrbit(Clan.of(half + [1, 1] + half[::-1])), SignedPermutation("D", images)


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
    label = clan.fresh_label()
    updates = {}
    for offset, pos_pair in enumerate(zip(positions[::2], positions[1::2])):
        for pos in pos_pair:
            updates[pos] = label + offset
    return clan.replace(updates)


def _clan_status_type_a(clan: Clan, i: int) -> RootStatus:
    """Weak-order move for a plain (p,q)-clan at alpha_i."""
    c1, c2 = clan.symbols[i - 1], clan.symbols[i]
    s1, s2 = clan.is_sign(i), clan.is_sign(i + 1)
    if not s1 and not s2 and c1 != c2:
        if clan.mate(i) < clan.mate(i + 1):
            return RootStatus("complex", ClanOrbit(clan.swap(i, i + 1)))
        return NO_RAISE
    if s1 and not s2 and clan.mate(i + 1) > i + 1:
        return RootStatus("complex", ClanOrbit(clan.swap(i, i + 1)))
    if not s1 and s2 and clan.mate(i) < i:
        return RootStatus("complex", ClanOrbit(clan.swap(i, i + 1)))
    if s1 and s2 and c1 != c2:
        return RootStatus("noncompact_I", ClanOrbit(_fresh_pair(clan, (i, i + 1))))
    return NO_RAISE


def _clan_status_mirrored(clan: Clan, i: int, with_type_ii: bool) -> RootStatus:
    """Move at alpha_i (i < n) for a length-L clan of a type B/C/D pair.

    The reflection acts simultaneously at positions (i, i+1) and their
    mirror images (L-i, L+1-i).  ``with_type_ii`` enables the degree-two
    branch (present for the orthogonal-type pairs, absent for the
    symplectic-block and type-D general-linear pairs).
    """
    size = len(clan)
    mi, mi1 = size - i, size + 1 - i
    c1, c2 = clan.symbols[i - 1], clan.symbols[i]
    s1, s2 = clan.is_sign(i), clan.is_sign(i + 1)

    def both_swapped() -> ClanOrbit:
        return ClanOrbit(clan.swap(i, i + 1).swap(mi, mi1))

    if s1 and not s2 and clan.mate(i + 1) > i + 1:
        return RootStatus("complex", both_swapped())
    if not s1 and s2 and clan.mate(i) < i:
        return RootStatus("complex", both_swapped())
    if not s1 and not s2 and c1 != c2:
        mirrored = clan.mate(i) == mi and clan.mate(i + 1) == mi1
        if mirrored:
            if with_type_ii:
                return RootStatus("noncompact_II", ClanOrbit(clan.swap(i, i + 1)))
            return NO_RAISE
        if clan.mate(i) < clan.mate(i + 1):
            return RootStatus("complex", both_swapped())
        return NO_RAISE
    if s1 and s2 and c1 != c2:
        return RootStatus(
            "noncompact_I", ClanOrbit(_fresh_pair(clan, (i, i + 1, mi, mi1)))
        )
    return NO_RAISE


def _clan_status_b_last(clan: Clan, n: int) -> RootStatus:
    """Type B alpha_n: acts at positions n, n+2 of a length 2n+1 clan."""
    cn, mid, cn2 = clan.symbols[n - 1], clan.symbols[n], clan.symbols[n + 1]
    if not clan.is_sign(n) and not clan.is_sign(n + 2) and cn != cn2:
        if clan.mate(n) < clan.mate(n + 2):
            return RootStatus("complex", ClanOrbit(clan.swap(n, n + 2)))
        return NO_RAISE
    if clan.is_sign(n) and clan.is_sign(n + 1) and cn != mid:
        label = clan.fresh_label()
        flipped = PLUS if mid == MINUS else MINUS
        target = clan.replace({n: label, n + 2: label, n + 1: flipped})
        return RootStatus("noncompact_II", ClanOrbit(target))
    return NO_RAISE


def _clan_status_c_last(clan: Clan, n: int) -> RootStatus:
    """Type C alpha_n: acts at positions n, n+1 of a length 2n clan."""
    c1, c2 = clan.symbols[n - 1], clan.symbols[n]
    s1, s2 = clan.is_sign(n), clan.is_sign(n + 1)
    if not s1 and not s2 and c1 != c2:
        if clan.mate(n) < clan.mate(n + 1):
            return RootStatus("complex", ClanOrbit(clan.swap(n, n + 1)))
        return NO_RAISE
    if s1 and s2 and c1 != c2:
        return RootStatus("noncompact_I", ClanOrbit(_fresh_pair(clan, (n, n + 1))))
    return NO_RAISE


def _clan_status_d_last_orthogonal(clan: Clan, n: int) -> RootStatus:
    """Type D alpha_n for the orthogonal-block pairs.

    Acts on the window (n-1, n, n+1, n+2) of a length 2n clan; the complex
    branch has eight patterns, the non-compact branch three.
    """
    size = 2 * n
    a, b, c, d = n - 1, n, n + 1, n + 2
    sa, sb, sc, sd = (clan.is_sign(pos) for pos in (a, b, c, d))
    sym = clan.symbols

    def swapped() -> ClanOrbit:
        return ClanOrbit(clan.swap(a, c).swap(b, d))

    # non-compact branch first: sign window (+,-,-,+) / (-,+,+,-) is type I,
    # adjacent mate pairs (1,1,2,2) are type II
    if sa and sb and sc and sd:
        window = (sym[a - 1], sym[b - 1], sym[c - 1], sym[d - 1])
        if window in ((PLUS, MINUS, MINUS, PLUS), (MINUS, PLUS, PLUS, MINUS)):
            return RootStatus("noncompact_I", ClanOrbit(_fresh_pair(clan, (a, c, b, d))))
        return NO_RAISE
    if not sa and not sb and not sc and not sd:
        if clan.mate(a) == b and clan.mate(c) == d:
            return RootStatus("noncompact_II", ClanOrbit(clan.swap(a, c)))
    # complex branch, eight patterns
    if sa and sd and not sb and not sc:
        if clan.mate(b) == c:
            return RootStatus("complex", swapped())
        if clan.mate(b) < a and clan.mate(c) > d:
            return RootStatus("complex", swapped())
        return NO_RAISE
    if not sa and not sd and sb and sc:
        if clan.mate(a) < a and clan.mate(d) > d:
            return RootStatus("complex", swapped())
        return NO_RAISE
    if not (sa or sb or sc or sd):
        ma, mb, mc, md = clan.mate(a), clan.mate(b), clan.mate(c), clan.mate(d)
        if mb == c and ma < a and md > d:
            # window (1,2,2,3)
            return RootStatus("complex", swapped())
        if ma == d and mb < a and mc > d:
            # window (1,2,3,1)
            return RootStatus("complex", swapped())
        distinct = len({ma, mb, mc, md} | {a, b, c, d}) == 8
        if distinct:
            if ma < a and mb < a and mc > d and md > d:
                return RootStatus("complex", swapped())
            if ma < a and mc < a and mb > d and md > d and ma + mb < size + 1:
                return RootStatus("complex", swapped())
            if mb < a and md < a and ma > d and mc > d and ma + mb < size + 1:
                return RootStatus("complex", swapped())
    return NO_RAISE


def _clan_status_d_last_gl(clan: Clan, n: int) -> RootStatus:
    """Type D alpha_n for the general-linear pair: flip positions n, n+1,
    apply the alpha_{n-1} move, flip back.  All covers have degree one."""
    flipped = clan.swap(n, n + 1)
    inner = _clan_status_mirrored(flipped, n - 1, with_type_ii=False)
    if not inner.raises:
        return NO_RAISE
    assert isinstance(inner.target, ClanOrbit)
    target = inner.target.clan.swap(n, n + 1)
    if target == clan:
        return NO_RAISE
    kind = "complex" if inner.kind == "complex" else "noncompact_I"
    return RootStatus(kind, ClanOrbit(target))


def _clan_classify(pair: SymmetricPair, clan: Clan, i: int) -> RootStatus:
    n, kind = pair.n, pair.kind
    if kind.roots == "A":
        return _clan_status_type_a(clan, i)
    if i < n:
        # the degree-two raise pairs mirrored positions, which an
        # anti-reflexive rule forbids
        return _clan_status_mirrored(clan, i, not kind.clan_rule.anti_reflexive)
    if kind.roots == "B":
        return _clan_status_b_last(clan, n)
    if kind.roots == "C":
        return _clan_status_c_last(clan, n)
    if kind.clan_rule.mirror == "symmetric":
        return _clan_status_d_last_orthogonal(clan, n)
    return _clan_status_d_last_gl(clan, n)


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
    if isinstance(param, ClanOrbit):
        return _clan_classify(pair, param.clan, i)
    move = _involution_status(param.involution, i)
    if move is None:
        return NO_RAISE
    target, degree_two = move
    if isinstance(param, SplitOrbit):
        if degree_two:
            # each component covers the unsplit target once
            return RootStatus("noncompact_I", InvolutionOrbit(target))
        # A complex raise keeps the component tag.  Swapping vectors i and
        # i+1 of the + flag from _involution_basis gives the + flag of the
        # conjugated involution, up to an SO(2n) permutation of the pairs
        # (e_k, e_{2n+1-k}); that flag lies in Q.P_i but not in Q, and the
        # O(2n) component swap commutes with P_i.
        return RootStatus("complex", SplitOrbit(target, param.component))
    if not degree_two:
        return RootStatus("complex", InvolutionOrbit(target))
    if pair.kind.involutions == "fixed-point-free":
        # the left product acquires fixed points, which lies outside the
        # symplectic orbit set: no edge
        return NO_RAISE
    return RootStatus("noncompact_II", InvolutionOrbit(target))


def cross_action(pair: SymmetricPair, w: SignedPermutation, param: OrbitParameter) -> OrbitParameter:
    """The Weyl-group cross action on orbit parameters."""
    if isinstance(param, ClanOrbit):
        clan = param.clan
        if pair.ambient_family()[0] == "A":
            sigma = w
        else:
            sigma = w.embed_as_permutation(len(clan))
        moved = [None] * len(clan)
        for pos in range(1, len(clan) + 1):
            moved[sigma.images[pos - 1] - 1] = clan.symbols[pos - 1]
        return ClanOrbit(Clan.of(moved))  # type: ignore[arg-type]
    inv = SignedPermutation("A", param.involution)
    conjugated = (w * inv) * w.inverse()
    if isinstance(param, SplitOrbit):
        # the tagged component moves with the representative; callers that
        # need the precise tag use the localization machinery instead
        return SplitOrbit(conjugated.images, param.component)
    return InvolutionOrbit(conjugated.images)


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

    Edges come sorted by the level of their source, so walking them in
    order visits every source after all of its own in-edges.  The graph is
    cached per pair and shared by all callers.
    """
    closed = [param for param, _ in closed_orbits(pair)]
    level = {param: 0 for param in closed}
    edges: list[WeakEdge] = []
    frontier = sorted(closed, key=lambda p: p.sort_key())
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
                    raise InternalError(
                        f"inconsistent level for {target}: "
                        f"{level[target]} vs {depth + 1}"
                    )
        frontier = sorted(set(next_frontier), key=lambda p: p.sort_key())
        depth += 1
    expected = enumerate_orbits(pair)
    if sorted(level, key=lambda p: p.sort_key()) != expected:
        raise InternalError(
            f"weak order graph of {pair.describe()} reached {len(level)} "
            f"of {len(expected)} orbit parameters"
        )
    sources = {edge.source for edge in edges}
    maximal = [param for param in expected if param not in sources]
    if len(maximal) != 1:
        raise InternalError(f"expected one dense orbit, found {maximal}")
    edges.sort(key=lambda e: (level[e.source], e.source.sort_key(), e.root_index))
    nodes = tuple(sorted(level, key=lambda p: (level[p], p.sort_key())))
    return WeakOrderGraph(
        pair, nodes, tuple(edges), tuple(closed), maximal[0], types.MappingProxyType(level)
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
    if isinstance(a, ClanOrbit) and isinstance(b, ClanOrbit):
        return _dominance_verdict(a.clan, b.clan)
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
# representative flags


class FlagRepresentative(Record):
    """A flag given by an ordered basis with exact rational coordinates;
    vector k spans the new direction of the k-th subspace."""

    __slots__ = ("vectors",)

    def __init__(self, vectors: tuple[tuple[Fraction, ...], ...]) -> None:
        set_fields(self, vectors)
        if not _independent([list(v) for v in vectors]):
            raise ContractViolation("flag vectors are linearly dependent")

    def __str__(self) -> str:
        return "<" + ", ".join(_format_vector(v) for v in self.vectors) + ">"


def _format_vector(vector: tuple[Fraction, ...]) -> str:
    out = ""
    for idx, coeff in enumerate(vector, start=1):
        if coeff == 0:
            continue
        text = f"e{idx}" if coeff == 1 else f"-e{idx}" if coeff == -1 else f"{coeff}*e{idx}"
        out += text if not out or text.startswith("-") else "+" + text
    return out or "0"


def _independent(rows: list[list[Fraction]]) -> bool:
    """Gaussian elimination over the rationals: do the rows have full rank?"""
    cols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / lead[col]
            if factor:
                rows[r] = [b - factor * a for a, b in zip(lead, rows[r])]
        rank += 1
    return rank == len(rows)


def _unit(size: int, idx: int, coeff: int = 1) -> list[Fraction]:
    row = [Fraction(0)] * size
    row[idx - 1] = Fraction(coeff)
    return row


def _vector_sum(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    return [x + y for x, y in zip(a, b)]


def representative_flag(pair: SymmetricPair, param: OrbitParameter) -> FlagRepresentative:
    """An explicit flag in the orbit.

    Implemented for every orbit of the type A pairs and for the closed
    orbits of all pairs (their torus-fixed coordinate flags).
    """
    family, size = pair.ambient_family()
    if family == "A" and isinstance(param, ClanOrbit):
        return _clan_flag(param.clan, pair.p)
    if family == "A":
        inv = param.involution  # type: ignore[union-attr]
        vectors = _involution_basis(inv, size)
        if isinstance(param, SplitOrbit) and param.component == MINUS:
            n = pair.n
            swap = {n: n + 1, n + 1: n}
            vectors = [
                [row[swap.get(c + 1, c + 1) - 1] for c in range(size)] for row in vectors
            ]
        return FlagRepresentative(tuple(tuple(v) for v in vectors))
    for closed_param, rep in closed_orbits(pair):
        if closed_param == param:
            size = pair.matrix_size()
            sigma = rep.embed_as_permutation(size)
            vectors = [_unit(size, sigma.images[i - 1]) for i in range(1, size + 1)]
            return FlagRepresentative(tuple(tuple(v) for v in vectors))
    raise ContractViolation(
        f"no representative implemented for {param} in {pair.describe()}"
    )


def _clan_flag(clan: Clan, p: int) -> FlagRepresentative:
    """Deterministic flag for any (p,q)-clan: first occurrences of a pair
    carry + signature, the assignment permutation fills each block in
    position order."""
    size = len(clan)
    signature = {}
    for pos in range(1, size + 1):
        if clan.is_sign(pos):
            signature[pos] = clan.symbols[pos - 1]
        else:
            signature[pos] = PLUS if clan.mate(pos) > pos else MINUS
    sigma = {}
    plus_seen = minus_seen = 0
    for pos in range(1, size + 1):
        if signature[pos] == PLUS:
            plus_seen += 1
            sigma[pos] = plus_seen
        else:
            minus_seen += 1
            sigma[pos] = p + minus_seen
    vectors = []
    for pos in range(1, size + 1):
        if clan.is_sign(pos):
            vectors.append(_unit(size, sigma[pos]))
        else:
            mate = clan.mate(pos)
            if mate > pos:
                vectors.append(_vector_sum(_unit(size, sigma[pos]), _unit(size, sigma[mate])))
            else:
                vectors.append(_vector_sum(_unit(size, sigma[mate]), _unit(size, sigma[pos], -1)))
    return FlagRepresentative(tuple(tuple(v) for v in vectors))


def _involution_basis(images: tuple[int, ...], size: int) -> list[list[Fraction]]:
    """Basis flag making the defining form monomial with the given shape.

    Two-cycles consume coordinate pairs (e_k, e_{size+1-k}); the first
    fixed point takes the middle vector when the size is odd; remaining
    fixed points pair up as e_k +- e_{size+1-k}."""
    vectors: list[Optional[list[Fraction]]] = [None] * size
    next_k = 1
    for i in range(1, size + 1):
        j = images[i - 1]
        if j > i:
            vectors[i - 1] = _unit(size, next_k)
            vectors[j - 1] = _unit(size, size + 1 - next_k)
            next_k += 1
    fixed = [i for i in range(1, size + 1) if images[i - 1] == i]
    if size % 2 == 1 and fixed:
        vectors[fixed[0] - 1] = _unit(size, (size + 1) // 2)
        fixed = fixed[1:]
    for a, b in zip(fixed[::2], fixed[1::2]):
        vectors[a - 1] = _vector_sum(_unit(size, next_k), _unit(size, size + 1 - next_k))
        vectors[b - 1] = _vector_sum(_unit(size, next_k), _unit(size, size + 1 - next_k, -1))
        next_k += 1
    assert all(v is not None for v in vectors)
    return [list(v) for v in vectors]  # type: ignore[arg-type]


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
