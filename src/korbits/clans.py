"""Clan combinatorics.

A clan of signature (a, b) is a string whose entries are '+', '-' or a
natural number, every number occurring exactly twice, with #plus - #minus
= a - b.  Only the positions of matching numbers matter, so a clan is
stored by its mates: each position holds its sign or the position of the
other end of its pair.  The numbers exist only in printed text, as 1, 2,
... in order of first occurrence.  On top of the type itself the module
provides enumeration, the even-front parity of D:gl's clan rule, and the
position involution attached to a clan.  The rest of each pair's clan
rule (kept with the pair, in ``pairs.KINDS``) is applied by the generator:
one fill serves every rule, placing a position and its image (its mirror
under a symmetric or skew rule) at a time.  A clan read from input is checked
against the pair's orbit set, in ``orbits.parse_orbit_parameter``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .errors import ContractViolation, UsageError, parse_decimal
from .records import Record, set_field
from .weyl import SignedPermutation

Symbol = Union[str, int]

PLUS = "+"
MINUS = "-"


class Clan(Record):
    __slots__ = ("mates",)  # mates[i-1]: the sign at i, or the position of its partner

    def __init__(self, symbols: Sequence[Symbol]) -> None:
        """The clan of printed symbols, under any numbering of the pairs."""
        mates: list[Symbol] = list(symbols)
        ends: dict[int, list[int]] = {}
        for pos, sym in enumerate(mates, start=1):
            if sym not in (PLUS, MINUS):
                if not isinstance(sym, int) or sym < 1:
                    raise ContractViolation(f"bad clan symbol {sym!r}")
                ends.setdefault(sym, []).append(pos)
        for label, where in ends.items():
            if len(where) != 2:
                raise ContractViolation(f"number {label} appears {len(where)} times")
            mates[where[0] - 1], mates[where[1] - 1] = where[1], where[0]
        set_field(self, "mates", tuple(mates))

    # -- construction -----------------------------------------------------

    @classmethod
    def _trusted(cls, mates: tuple[Symbol, ...]) -> "Clan":
        """Wrap a mate tuple already known to pair its positions."""
        obj = object.__new__(cls)
        set_field(obj, "mates", mates)
        return obj

    def __eq__(self, other):
        return self.mates == other.mates if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash((self.mates,))

    @classmethod
    def parse(cls, text: str) -> "Clan":
        body = text.strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        symbols: list[Symbol] = []
        for token in body.replace(",", " ").split():
            if token == PLUS:
                symbols.append(PLUS)
            elif token == MINUS:
                symbols.append(MINUS)
            elif token.isdigit():
                symbols.append(parse_decimal(token, "clan number"))
            else:
                raise UsageError(f"bad clan symbol {token!r}")
        if not symbols:
            raise UsageError("empty clan")
        try:
            return cls(symbols)
        except ContractViolation as exc:
            raise UsageError(str(exc)) from None

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        """The printed symbols: pairs numbered 1, 2, ... in order of first
        occurrence."""
        out = list(self.mates)
        label = 0
        for pos, mate in enumerate(self.mates, start=1):
            if mate not in (PLUS, MINUS) and mate > pos:
                label += 1
                out[pos - 1] = out[mate - 1] = label
        return tuple(out)

    def __str__(self) -> str:
        return "(" + ",".join(str(s) for s in self.symbols) + ")"

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.mates)

    def sort_key(self):
        order = {PLUS: (0, 0), MINUS: (1, 0)}
        return tuple(order.get(s, (2, s)) for s in self.symbols)

    def signature(self) -> tuple[int, int]:
        """(a, b) with a - b = #plus - #minus and a + b = length."""
        plus = self.mates.count(PLUS)
        minus = self.mates.count(MINUS)
        pairs = (len(self.mates) - plus - minus) // 2
        return (plus + pairs, minus + pairs)

    def replace(self, updates: dict[int, Symbol]) -> "Clan":
        """Mate entries at some positions replaced by a sign or a partner's
        position; the caller keeps every pairing mutual."""
        mates = list(self.mates)
        for pos, entry in updates.items():
            mates[pos - 1] = entry
        return Clan._trusted(tuple(mates))

    def swap(self, i: int, j: int) -> "Clan":
        """Positions i and j exchanged; the partners of moved numbers are
        repointed."""
        mates = list(self.mates)
        a, b = mates[i - 1], mates[j - 1]
        if a == j:  # i and j are each other's partners
            return self
        mates[i - 1], mates[j - 1] = b, a
        if a not in (PLUS, MINUS):
            mates[a - 1] = j
        if b not in (PLUS, MINUS):
            mates[b - 1] = i
        return Clan._trusted(tuple(mates))

    # -- the even-front rule ----------------------------------------------------

    def front_parity_even(self) -> bool:
        """Minus signs plus complete pairs among the first half, mod 2."""
        front = self.mates[: len(self.mates) // 2]
        # a pair is complete when its second end, mated backwards, is in the front
        ends = sum(1 for pos, m in enumerate(front, start=1) if m not in (PLUS, MINUS) and m < pos)
        return (front.count(MINUS) + ends) % 2 == 0

    # -- the position involution ------------------------------------------------

    def position_involution(self) -> SignedPermutation:
        """The involution whose 2-cycles are the mate-position pairs."""
        images = tuple(
            pos if mate in (PLUS, MINUS) else mate for pos, mate in enumerate(self.mates, start=1)
        )
        return SignedPermutation("A", images)


def enumerate_clans(
    a: int, b: int, *, mirror: Optional[str] = None, anti_reflexive: bool = False
) -> list[Clan]:
    """All clans of signature (a, b), sorted.

    ``mirror="symmetric"`` keeps only clans equal to their reverse,
    ``mirror="skew"`` only clans equal to their negated reverse, and
    ``anti_reflexive`` only clans with no number at a mirrored pair of
    positions.  Every rule is generated directly, a position and its image
    at a time, so the work grows with the clans returned, not with all
    clans of the signature.
    """
    if a < 0 or b < 0:
        raise ContractViolation("signature parts must be nonnegative")
    if mirror not in (None, "symmetric", "skew"):
        raise ContractViolation(f"unknown mirror kind {mirror!r}")
    # A position's image is its mirror L-1-pos under a mirror rule and
    # itself otherwise; the open positions stay closed under it.  The
    # smallest open position i and its image m are filled together: a sign
    # at i and its image sign (the same, or the opposite under a skew rule)
    # at m, where i == m takes only a sign equal to its image; or numbers
    # pairing i with an open j and m with j's image, where j is no middle
    # position, nor i's mirror under an anti-reflexive rule.  A sign uses
    # one unit of its side of the (a, b) budget and a number pair one of
    # each, so every leaf has used the budget exactly; a pair writes at each
    # end the position of the other, so a leaf is a finished mate tuple.
    size = a + b
    image = [size - 1 - pos if mirror else pos for pos in range(size)]
    flip = {PLUS: MINUS, MINUS: PLUS} if mirror == "skew" else {PLUS: PLUS, MINUS: MINUS}
    # (sign at i, sign at m, a used, b used), for i != m and for i == m
    signs = (
        [(s, flip[s], (s, flip[s]).count(PLUS), (s, flip[s]).count(MINUS)) for s in flip],
        [(s, s, int(s == PLUS), int(s == MINUS)) for s in flip if flip[s] == s],
    )
    # partners[i]: (j, j's image, units of each side used) for each j that may pair with i
    partners = [
        [(j, image[j], 1 if image[i] in (i, j) else 2) for j in range(i + 1, size)
         if not (mirror and image[j] == j or anti_reflexive and j == size - 1 - i)]
        for i in range(size)
    ]
    mates: list[Optional[Symbol]] = [None] * size
    clans: list[Clan] = []

    def fill(pos: int, a_left: int, b_left: int) -> None:
        while pos < size and mates[pos] is not None:
            pos += 1
        if pos == size:
            clans.append(Clan._trusted(tuple(mates)))
            return
        pos_image = image[pos]
        for sign, image_sign, a_use, b_use in signs[pos == pos_image]:
            if a_use <= a_left and b_use <= b_left:
                mates[pos], mates[pos_image] = sign, image_sign
                fill(pos + 1, a_left - a_use, b_left - b_use)
        mates[pos] = mates[pos_image] = None
        for mate, mate_image, use in partners[pos]:
            if mates[mate] is None and use <= a_left and use <= b_left:
                mates[pos], mates[mate] = mate + 1, pos + 1
                mates[pos_image], mates[mate_image] = mate_image + 1, pos_image + 1
                fill(pos + 1, a_left - use, b_left - use)
                mates[pos] = mates[mate] = mates[pos_image] = mates[mate_image] = None

    fill(0, a, b)
    return sorted(clans, key=Clan.sort_key)
