"""The ten symmetric pairs (G, K) handled by the library.

A pair is a case tag plus its rank data (n, and the block sizes p, q).
Everything the library knows about a case is written down once, in that
case's :class:`PairKind` record in ``KINDS``: its descriptor and
description, the ambient Weyl group and root system of G, the rule saying
which clans or involutions label its orbits, its restriction map to the
small torus, the root blocks of K, its Chern form and its inner class.
Pair descriptors are parsed from strings like ``A:glpq:2,2`` or
``D:oo-odd:1,2``.
"""

from __future__ import annotations

from .algebra import SimpleRootAction, VariableSpace, simple_root_action
from .errors import UsageError
from .records import Record, set_field, set_fields

# Case tags.  "A_*" pairs live inside SL(N); the rest inside SO/Sp.
A_GLPQ = "A_GLPQ"        # (SL(p+q), S(GL(p) x GL(q)))
A_SO_ODD = "A_SO_ODD"    # (SL(2n+1), SO(2n+1))
A_SO_EVEN = "A_SO_EVEN"  # (SL(2n), SO(2n))
A_SP = "A_SP"            # (SL(2n), Sp(2n))
B_OO = "B_OO"            # (SO(2n+1), S(O(2p) x O(2q+1)))
C_SPSP = "C_SPSP"        # (Sp(2n), Sp(2p) x Sp(2q))
C_GL = "C_GL"            # (Sp(2n), GL(n))
D_OO = "D_OO"            # (SO(2n), S(O(2p) x O(2q)))
D_GL = "D_GL"            # (SO(2n), GL(n))
D_OO_ODD = "D_OO_ODD"    # (SO(2n), S(O(2p+1) x O(2q-1)))

# Descriptor parameter forms.
PQ = "p,q"        # the two block sizes; n = p + q
RANK = "n"        # the rank
ODD = "odd N"     # the matrix size N = 2n + 1
EVEN = "even N"   # the matrix size N = 2n


class ClanRule(Record):
    """Which clans of a pair's signature label its orbits (Matsuki-Oshima)."""

    __slots__ = ("mirror", "anti_reflexive", "even_front")

    def __init__(self, mirror=None, anti_reflexive=False, even_front=False) -> None:
        set_fields(self, mirror, anti_reflexive, even_front)  # mirror: "symmetric" or "skew"

    def admits(self, clan) -> bool:
        if self.mirror == "symmetric" and not clan.is_symmetric():
            return False
        if self.mirror == "skew" and not clan.is_skew_symmetric():
            return False
        if self.anti_reflexive and not clan.is_anti_reflexive():
            return False
        return not self.even_front or clan.front_parity_even()


class InnerClass(Record):
    """An inner class of involutions of the signed group ``family`` (with
    the given sign-change ``parity``).  The one-sided fiber over a twisted
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
    """Everything that depends on a pair's case alone."""

    __slots__ = (
        "tag",
        "descriptor",  # "TYPE:case", before the parameters
        "form",  # parameter form: PQ, RANK, ODD or EVEN
        "template",  # describe() over N (matrix size), n and the signature a, b
        "ambient",  # Weyl family of G: "A", "BC" or "D"
        "roots",  # root family of G: "A", "B", "C" or "D"
        # root families of K's blocks: one block x_1..x_r, or two split after x_p
        "subgroup",
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
        self, tag, descriptor, form, template, ambient, roots, subgroup, restriction="identity",
        signature=None, clan_rule=None, involutions=None, chern=None, inner_class=None,
    ) -> None:
        set_fields(
            self, tag, descriptor, form, template, ambient, roots, subgroup, restriction,
            signature, clan_rule, involutions, chern, inner_class,
        )


_ORTHOGONAL_BLOCKS = "(SO({N}), S(O({a}) x O({b})))"

KINDS = {
    kind.tag: kind
    for kind in (
        PairKind(
            A_GLPQ, "A:glpq", PQ, "(SL({N}), S(GL({a}) x GL({b})))", "A", "A", ("A", "A"),
            signature=lambda n, p, q: (p, q), clan_rule=ClanRule(), chern="blocks",
        ),
        PairKind(
            A_SO_ODD, "A:so", ODD, "(SL({N}), SO({N}))", "A", "A", ("B",),
            restriction="fold", involutions="all", chern="euler",
        ),
        PairKind(
            A_SO_EVEN, "A:so-even", EVEN, "(SL({N}), SO({N}))", "A", "A", ("D",),
            restriction="fold", involutions="split", chern="euler",
        ),
        PairKind(
            A_SP, "A:sp", EVEN, "(SL({N}), Sp({N}))", "A", "A", ("C",),
            restriction="fold", involutions="fixed-point-free", chern="euler",
        ),
        PairKind(
            B_OO, "B:oo", PQ, _ORTHOGONAL_BLOCKS, "BC", "B", ("D", "B"),
            signature=lambda n, p, q: (2 * p, 2 * q + 1),
            clan_rule=ClanRule("symmetric"), inner_class=INNER_B,
        ),
        PairKind(
            C_SPSP, "C:spsp", PQ, "(Sp({N}), Sp({a}) x Sp({b}))", "BC", "C", ("C", "C"),
            signature=lambda n, p, q: (2 * p, 2 * q),
            clan_rule=ClanRule("symmetric", anti_reflexive=True), inner_class=INNER_C,
        ),
        PairKind(
            C_GL, "C:gl", RANK, "(Sp({N}), GL({n}))", "BC", "C", ("A",),
            signature=lambda n, p, q: (n, n),
            clan_rule=ClanRule("skew"), inner_class=INNER_C,
        ),
        PairKind(
            D_OO, "D:oo", PQ, _ORTHOGONAL_BLOCKS, "D", "D", ("D", "D"),
            signature=lambda n, p, q: (2 * p, 2 * q),
            clan_rule=ClanRule("symmetric"), inner_class=INNER_D_COMPACT,
        ),
        PairKind(
            D_GL, "D:gl", RANK, "(SO({N}), GL({n}))", "D", "D", ("A",),
            signature=lambda n, p, q: (n, n),
            clan_rule=ClanRule("skew", anti_reflexive=True, even_front=True),
            inner_class=INNER_D_COMPACT,
        ),
        PairKind(
            D_OO_ODD, "D:oo-odd", PQ, _ORTHOGONAL_BLOCKS, "D", "D", ("B", "B"),
            restriction="drop", signature=lambda n, p, q: (2 * p + 1, 2 * q - 1),
            clan_rule=ClanRule("symmetric"), inner_class=INNER_D_UNEQUAL,
        ),
    )
}


class SymmetricPair(Record):
    # ambient: (family, size) of the ambient Weyl group, derived from the rest
    __slots__ = ("case", "n", "p", "q", "ambient")

    def __init__(self, case: str, n: int, p: int = 0, q: int = 0) -> None:
        set_field(self, "case", case)
        set_field(self, "n", n)
        set_field(self, "p", p)
        set_field(self, "q", q)
        kind = KINDS.get(case)
        if kind is None:
            raise UsageError(f"unknown case {case!r}")
        size = {ODD: 2 * n + 1, EVEN: 2 * n}.get(kind.form, n)
        set_field(self, "ambient", (kind.ambient, size))
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
        if kind.ambient == "D" and self.n < 2:
            raise UsageError("type D pairs need n >= 2")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        same = self.n == other.n and self.p == other.p and self.q == other.q
        return same and self.case == other.case

    def __hash__(self) -> int:
        return hash((self.case, self.n, self.p, self.q))

    # -- descriptive data -------------------------------------------------

    @property
    def kind(self) -> PairKind:
        return KINDS[self.case]

    def ambient_family(self) -> tuple[str, int]:
        """(family, size): family "A" with S_N, or "BC"/"D" signed rank n."""
        return self.ambient

    def root_family(self) -> str:
        """Root-system family of G, for divided difference operators."""
        return self.kind.roots

    def num_simple_roots(self) -> int:
        family, size = self.ambient
        return size - 1 if family == "A" else size

    def variable_space(self) -> VariableSpace:
        """x's for K's torus (one fewer when the restriction drops a
        coordinate) and one y per ambient coordinate."""
        x_count = self.n - 1 if self.kind.restriction == "drop" else self.n
        return VariableSpace(x_count, self.ambient_family()[1])

    def root_action(self, i: int) -> SimpleRootAction:
        return simple_root_action(self.variable_space(), self.root_family(), i)

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
        return self.ambient_family()[1]

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


_BY_DESCRIPTOR = {kind.descriptor: kind for kind in KINDS.values()}


def parse_decimal(text: str, what: str) -> int:
    """A numeral of the descriptor grammar: decimal digits only, never the
    sign, underscores or spaces that int() also reads."""
    if not text.isdecimal():
        raise UsageError(f"{what} must be a decimal integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # longer than the interpreter's int-string digit limit
        raise UsageError(f"{what} of {len(text)} digits is too long") from None


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
    kind = _BY_DESCRIPTOR.get(descriptor)
    if kind is None:
        raise UsageError(f"unknown pair descriptor {text!r}")
    if kind.form == PQ:
        p, q = _parse_pq(parts[2])
        return SymmetricPair(kind.tag, p + q, p, q)
    if kind.form == RANK:
        return SymmetricPair(kind.tag, parse_decimal(parts[2], "n"))
    size = parse_decimal(parts[2], "N")
    odd = kind.form == ODD
    if size < 2 + odd or size % 2 != odd:
        raise UsageError(f"{descriptor}:N needs {kind.form} >= {2 + odd}")
    return SymmetricPair(kind.tag, size // 2)
