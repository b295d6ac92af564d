"""The ten symmetric pairs (G, K) handled by the library.

A pair is its kind record plus its rank data (n, and the block sizes p, q).
Everything the library knows about a kind of pair is written down once, in
its :class:`PairKind` record in ``KINDS``, keyed by its descriptor: its
description, the root system of G (which fixes the ambient Weyl group),
the rule saying which clans or involutions label its orbits, the name of
its closed-orbit rule (the key of the rule table in ``classes``), its
restriction map to the small torus, its Chern form and its inner class.
Pairs are parsed from strings like ``A:glpq:2,2`` or ``D:oo-odd:1,2``.
"""

from __future__ import annotations

from . import algebra  # runs on first use (see __init__), in variable_space
from .errors import UsageError, parse_decimal
from .records import Record, set_field, set_fields

# Descriptor parameter forms.
PQ = "p,q"        # the two block sizes; n = p + q
RANK = "n"        # the rank
ODD = "odd N"     # the matrix size N = 2n + 1
EVEN = "even N"   # the matrix size N = 2n


class ClanRule(Record):
    """Which clans of a pair's signature label its orbits (Matsuki-Oshima):
    those equal to their reverse ("symmetric") or negated reverse
    ("skew"), with no number at a mirrored pair of positions when
    ``anti_reflexive``, and with an even front when ``even_front``.  It is
    applied only by generating clans (``enumerate_orbits``, ``count``); a
    parsed clan is looked up among the pair's orbits instead."""

    __slots__ = ("mirror", "anti_reflexive", "even_front")

    def __init__(self, mirror=None, anti_reflexive=False, even_front=False) -> None:
        set_fields(self, mirror, anti_reflexive, even_front)


class InnerClass(Record):
    """An inner class of involutions of the signed group ``family`` (with
    the sign-change ``parity`` "any" or "odd").  The one-sided fiber over a twisted
    involution has 2^k points, k its positive fixed points, or 2^(k+1) when
    ``doubled`` and no position is swapped with its mirror."""

    __slots__ = ("name", "family", "parity", "doubled")

    def __init__(self, name: str, family: str, parity: str = "any", doubled: bool = False):
        set_fields(self, name, family, parity, doubled)


INNER_B = InnerClass("B", "BC")
INNER_C = InnerClass("C", "BC", doubled=True)
INNER_D_COMPACT = InnerClass("D-compact", "D", doubled=True)
INNER_D_UNEQUAL = InnerClass("D-unequal", "BC", parity="odd")


class PairKind(Record):
    """Everything that depends on a pair's kind alone."""

    __slots__ = (
        "descriptor",  # "TYPE:case", before the parameters; the key in KINDS
        "form",  # parameter form: PQ, RANK, ODD or EVEN
        "template",  # describe() over N (matrix size), n and the signature a, b
        "roots",  # root family of G: "A", "B", "C" or "D" (Weyl family "BC" for B and C)
        "closed",  # closed-orbit rule: the key of classes' rule table
        # y_j -> x_j ("identity"); y_j -> x_j, y_{N+1-j} -> -x_j and any middle
        # y -> 0 ("fold"); y_{p+1} -> 0 and the later x-labels close up ("drop")
        "restriction",
        "signature",  # None, or (n, p, q) -> the clan signature
        "clan_rule",  # None: orbits are labelled by involutions
        # which involutions of S_N label orbits: "all", "fixed-point-free", or
        # "split" (all, each fixed-point-free one as two tagged components)
        "involutions",
        "chern",  # "blocks" (z-generators), "euler", or None
        "inner_class",  # None, or the InnerClass that `count` files the pair under
    )

    def __init__(
        self, descriptor, form, template, roots, closed, restriction="identity",
        signature=None, clan_rule=None, involutions=None, chern=None, inner_class=None,
    ) -> None:
        set_fields(
            self, descriptor, form, template, roots, closed, restriction, signature,
            clan_rule, involutions, chern, inner_class,
        )

    def __repr__(self) -> str:  # a pair's repr names its kind, not every field
        return f"KINDS[{self.descriptor!r}]"


_ORTHOGONAL_BLOCKS = "(SO({N}), S(O({a}) x O({b})))"

KINDS = {
    kind.descriptor: kind
    for kind in (
        PairKind(
            "A:glpq", PQ, "(SL({N}), S(GL({a}) x GL({b})))", "A",
            closed="glpq", signature=lambda n, p, q: (p, q), clan_rule=ClanRule(), chern="blocks",
        ),
        PairKind(
            "A:so", ODD, "(SL({N}), SO({N}))", "A",
            closed="so_odd", restriction="fold", involutions="all", chern="euler",
        ),
        PairKind(
            "A:so-even", EVEN, "(SL({N}), SO({N}))", "A",
            closed="so_even", restriction="fold", involutions="split", chern="euler",
        ),
        PairKind(
            "A:sp", EVEN, "(SL({N}), Sp({N}))", "A",
            closed="sp", restriction="fold", involutions="fixed-point-free", chern="euler",
        ),
        PairKind(
            "B:oo", PQ, _ORTHOGONAL_BLOCKS, "B",
            closed="blocks", signature=lambda n, p, q: (2 * p, 2 * q + 1),
            clan_rule=ClanRule("symmetric"), inner_class=INNER_B,
        ),
        PairKind(
            "C:spsp", PQ, "(Sp({N}), Sp({a}) x Sp({b}))", "C",
            closed="blocks", signature=lambda n, p, q: (2 * p, 2 * q),
            clan_rule=ClanRule("symmetric", anti_reflexive=True), inner_class=INNER_C,
        ),
        PairKind(
            "C:gl", RANK, "(Sp({N}), GL({n}))", "C",
            closed="gl", signature=lambda n, p, q: (n, n),
            clan_rule=ClanRule("skew"), inner_class=INNER_C,
        ),
        PairKind(
            "D:oo", PQ, _ORTHOGONAL_BLOCKS, "D",
            closed="blocks", signature=lambda n, p, q: (2 * p, 2 * q),
            clan_rule=ClanRule("symmetric"), inner_class=INNER_D_COMPACT,
        ),
        PairKind(
            "D:gl", RANK, "(SO({N}), GL({n}))", "D",
            closed="gl", signature=lambda n, p, q: (n, n),
            clan_rule=ClanRule("skew", anti_reflexive=True, even_front=True),
            inner_class=INNER_D_COMPACT,
        ),
        PairKind(
            "D:oo-odd", PQ, _ORTHOGONAL_BLOCKS, "D",
            closed="oo_odd", restriction="drop", signature=lambda n, p, q: (2 * p + 1, 2 * q - 1),
            clan_rule=ClanRule("symmetric"), inner_class=INNER_D_UNEQUAL,
        ),
    )
}

# the inner class names that `count` accepts, in KINDS order
INNER_CLASSES = tuple(dict.fromkeys(k.inner_class.name for k in KINDS.values() if k.inner_class))


class SymmetricPair(Record):
    # ambient: (family, size) of the ambient Weyl group, derived from the rest
    __slots__ = ("kind", "n", "p", "q", "ambient")

    def __init__(self, descriptor: str, n: int, p: int = 0, q: int = 0) -> None:
        kind = KINDS.get(descriptor)
        if kind is None:
            raise UsageError(f"unknown case {descriptor!r}")
        set_field(self, "kind", kind)
        set_field(self, "n", n)
        set_field(self, "p", p)
        set_field(self, "q", q)
        size = {ODD: 2 * n + 1, EVEN: 2 * n}.get(kind.form, n)
        set_field(self, "ambient", ("BC" if kind.roots in ("B", "C") else kind.roots, size))
        if self.n < 1:
            raise UsageError("rank must be at least 1")
        if kind.form == PQ:
            if self.p < 0 or self.q < 0 or self.p + self.q != self.n:
                raise UsageError("need p, q >= 0 with p + q = n")
            if min(self.clan_signature()) < 0:
                raise UsageError(
                    f"{self.spec_string()} has clan signature {self.clan_signature()}; "
                    f"the odd orthogonal split needs q >= 1"
                )
        if kind.roots == "D" and self.n < 2:
            raise UsageError("type D pairs need n >= 2")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        same = self.n == other.n and self.p == other.p and self.q == other.q
        return same and self.kind is other.kind

    def __hash__(self) -> int:
        return hash((self.kind.descriptor, self.n, self.p, self.q))

    # -- descriptive data -------------------------------------------------

    def num_simple_roots(self) -> int:
        family, size = self.ambient
        return size - 1 if family == "A" else size

    def variable_space(self) -> algebra.VariableSpace:
        """x's for K's torus (one fewer when the restriction drops a
        coordinate) and one y per ambient coordinate."""
        x_count = self.n - 1 if self.kind.restriction == "drop" else self.n
        return algebra.VariableSpace(x_count, self.ambient[1])

    def is_clan_case(self) -> bool:
        return self.kind.clan_rule is not None

    def clan_signature(self) -> tuple[int, int]:
        """(#plus, #minus) signature of the clans labelling the orbits."""
        signature = self.kind.signature
        if signature is None:
            raise UsageError(f"{self.spec_string()} is not clan-parametrized")
        return signature(self.n, self.p, self.q)

    def matrix_size(self) -> int:
        """N with G inside SL(N), SO(N) or Sp(N)."""
        if self.is_clan_case():
            return sum(self.clan_signature())
        return self.ambient[1]

    def describe(self) -> str:
        a, b = self.clan_signature() if self.is_clan_case() else (0, 0)
        return self.kind.template.format(N=self.matrix_size(), n=self.n, a=a, b=b)

    def spec_string(self) -> str:
        kind = self.kind
        if kind.form == PQ:
            params = f"{self.p},{self.q}"
        else:
            params = str(self.n if kind.form == RANK else self.matrix_size())
        return f"{kind.descriptor}:{params}"


def _parse_pq(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected p,q but got {text!r}")
    return parse_decimal(parts[0], "p"), parse_decimal(parts[1], "q")


def parse_pair_spec(text: str) -> SymmetricPair:
    """Parse descriptors like A:glpq:2,2, A:so:5, C:gl:2, D:oo-odd:1,2."""
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise UsageError(f"pair descriptor {text!r} is not TYPE:case:params")
    descriptor = f"{parts[0].upper()}:{parts[1].lower()}"
    kind = KINDS.get(descriptor)
    if kind is None:
        raise UsageError(f"unknown pair descriptor {text!r}")
    if kind.form == PQ:
        p, q = _parse_pq(parts[2])
        return SymmetricPair(descriptor, p + q, p, q)
    if kind.form == RANK:
        return SymmetricPair(descriptor, parse_decimal(parts[2], "n"))
    size = parse_decimal(parts[2], "N")
    odd = kind.form == ODD
    if size < 2 + odd or size % 2 != odd:
        raise UsageError(f"{descriptor}:N needs {kind.form} >= {2 + odd}")
    return SymmetricPair(descriptor, size // 2)
