"""Clan combinatorics.

A clan of signature (a, b) is a string whose entries are '+', '-' or a
natural number, every number occurring exactly twice, with #plus - #minus
= a - b.  Only the positions of matching numbers matter, so clans are
stored canonically: pair labels are renumbered 1, 2, ... in order of
first occurrence.  On top of the type itself the module provides
enumeration, the counting invariants gamma(i;+), gamma(i;-), gamma(i;j),
the symmetry predicates used outside type A, the test of a clan against a
pair's clan rule (kept with the pair, in ``pairs.KINDS``), and the
position involution attached to a clan.  Symmetric and skew-symmetric
clans are generated directly, a position and its mirror at a time, rather
than filtered out of all clans.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .errors import ContractViolation, UsageError
from .pairs import SymmetricPair
from .records import Record, set_field
from .weyl import SignedPermutation

Symbol = Union[str, int]

PLUS = "+"
MINUS = "-"
_OPPOSITE = {PLUS: MINUS, MINUS: PLUS}


def _canonical(symbols: Sequence[Symbol]) -> tuple[Symbol, ...]:
    rename: dict[int, int] = {}
    out: list[Symbol] = []
    for sym in symbols:
        if sym in (PLUS, MINUS):
            out.append(sym)
        else:
            if sym not in rename:
                rename[sym] = len(rename) + 1
            out.append(rename[sym])
    return tuple(out)


class Clan(Record):
    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple[Symbol, ...]) -> None:
        set_field(self, "symbols", symbols)
        counts: dict[int, int] = {}
        for sym in symbols:
            if sym in (PLUS, MINUS):
                continue
            if not isinstance(sym, int) or sym < 1:
                raise ContractViolation(f"bad clan symbol {sym!r}")
            counts[sym] = counts.get(sym, 0) + 1
        for label, count in counts.items():
            if count != 2:
                raise ContractViolation(f"number {label} appears {count} times")
        if symbols != _canonical(symbols):
            raise ContractViolation("clan symbols are not in canonical form")

    # -- construction -----------------------------------------------------

    @classmethod
    def of(cls, symbols: Sequence[Symbol]) -> "Clan":
        return cls(_canonical(tuple(symbols)))

    @classmethod
    def _trusted(cls, symbols: tuple[Symbol, ...]) -> "Clan":
        """Wrap symbols already known to form a clan in canonical form."""
        obj = object.__new__(cls)
        set_field(obj, "symbols", symbols)
        return obj

    def __eq__(self, other):
        return self.symbols == other.symbols if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash((self.symbols,))

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
                symbols.append(int(token))
            else:
                raise UsageError(f"bad clan symbol {token!r}")
        if not symbols:
            raise UsageError("empty clan")
        try:
            return cls.of(symbols)
        except ContractViolation as exc:
            raise UsageError(str(exc)) from None

    def __str__(self) -> str:
        return "(" + ",".join(str(s) for s in self.symbols) + ")"

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.symbols)

    def sort_key(self):
        order = {PLUS: (0, 0), MINUS: (1, 0)}
        return tuple(order.get(s, (2, s)) for s in self.symbols)

    def signature(self) -> tuple[int, int]:
        """(a, b) with a - b = #plus - #minus and a + b = length."""
        plus = self.symbols.count(PLUS)
        minus = self.symbols.count(MINUS)
        pairs = (len(self.symbols) - plus - minus) // 2
        return (plus + pairs, minus + pairs)

    def is_sign(self, i: int) -> bool:
        return self.symbols[i - 1] in (PLUS, MINUS)

    def mate(self, i: int) -> int:
        """Position of the partner of the number at position i (1-based)."""
        sym = self.symbols[i - 1]
        if sym in (PLUS, MINUS):
            raise ContractViolation(f"position {i} holds a sign")
        for j, other in enumerate(self.symbols, start=1):
            if j != i and other == sym:
                return j
        raise ContractViolation("unpaired number")  # pragma: no cover

    def replace(self, updates: dict[int, Symbol]) -> "Clan":
        symbols = list(self.symbols)
        for pos, sym in updates.items():
            symbols[pos - 1] = sym
        return Clan.of(symbols)

    def swap(self, i: int, j: int) -> "Clan":
        """Positions i and j exchanged; a clan stays a clan, so only relabel."""
        symbols = list(self.symbols)
        symbols[i - 1], symbols[j - 1] = symbols[j - 1], symbols[i - 1]
        return Clan._trusted(_canonical(symbols))

    def fresh_label(self) -> int:
        numbers = [s for s in self.symbols if isinstance(s, int)]
        return max(numbers, default=0) + 1

    # -- counting invariants -------------------------------------------------

    def gamma_plus(self, i: int) -> int:
        """Plus signs plus complete number pairs among the first i symbols."""
        self._check_index(i)
        prefix = self.symbols[:i]
        pairs = sum(
            1 for label in set(s for s in prefix if isinstance(s, int))
            if prefix.count(label) == 2
        )
        return prefix.count(PLUS) + pairs

    def gamma_minus(self, i: int) -> int:
        self._check_index(i)
        prefix = self.symbols[:i]
        pairs = sum(
            1 for label in set(s for s in prefix if isinstance(s, int))
            if prefix.count(label) == 2
        )
        return prefix.count(MINUS) + pairs

    def gamma_pair(self, i: int, j: int) -> int:
        """Number pairs c_s = c_t with s <= i < j < t."""
        if not 1 <= i < j <= len(self.symbols):
            raise ContractViolation("need 1 <= i < j <= n")
        count = 0
        for s in range(1, i + 1):
            if isinstance(self.symbols[s - 1], int):
                t = self.mate(s)
                if t > j:
                    count += 1
        return count

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= len(self.symbols):
            raise ContractViolation(f"index {i} out of range")

    # -- symmetry -------------------------------------------------------------

    def reverse(self) -> "Clan":
        return Clan.of(tuple(reversed(self.symbols)))

    def is_symmetric(self) -> bool:
        return _canonical(self.symbols[::-1]) == self.symbols

    def is_skew_symmetric(self) -> bool:
        """Equal to its reverse with every sign flipped."""
        flipped = [_OPPOSITE.get(s, s) for s in reversed(self.symbols)]
        return _canonical(flipped) == self.symbols

    def is_anti_reflexive(self) -> bool:
        """No number sits at a pair of mirrored positions (i, L+1-i)."""
        symbols = self.symbols
        return not any(
            isinstance(s, int) and s == symbols[-1 - i]
            for i, s in enumerate(symbols[: len(symbols) // 2])
        )

    def front_parity_even(self) -> bool:
        """Minus signs plus complete pairs among the first half, mod 2."""
        half = len(self.symbols) // 2
        return (self.gamma_minus(half) % 2) == 0

    # -- the position involution ------------------------------------------------

    def position_involution(self) -> SignedPermutation:
        """The involution whose 2-cycles are the mate-position pairs."""
        size = len(self.symbols)
        images = list(range(1, size + 1))
        for i in range(1, size + 1):
            if not self.is_sign(i):
                images[i - 1] = self.mate(i)
        return SignedPermutation("A", tuple(images))


def enumerate_clans(
    a: int, b: int, *, mirror: Optional[str] = None, anti_reflexive: bool = False
) -> list[Clan]:
    """All clans of signature (a, b), canonical, sorted.

    ``mirror="symmetric"`` keeps only clans equal to their reverse,
    ``mirror="skew"`` only clans equal to their negated reverse, and
    ``anti_reflexive`` only clans with no number at a mirrored pair of
    positions.  Clans of either mirror kind are generated a position and
    its mirror at a time, so the work grows with the clans returned, not
    with all clans of the signature.
    """
    if a < 0 or b < 0:
        raise ContractViolation("signature parts must be nonnegative")
    if mirror not in (None, "symmetric", "skew"):
        raise ContractViolation(f"unknown mirror kind {mirror!r}")
    if mirror is None:
        clans = _plain_clans(a, b, anti_reflexive)
    elif mirror == "skew" and (a + b) % 2:
        # the middle position would need a sign equal to its own opposite
        # or a number mated with itself
        clans = []
    else:
        clans = _mirrored_clans(a, b, mirror == "skew", anti_reflexive)
    return sorted(clans, key=Clan.sort_key)


# Both generators fill the smallest open position next.  A sign uses one
# unit of its own side of the (a, b) budget and a number pair one unit of
# each, so the budgets left always add up to the open positions and every
# leaf has used them exactly.


def _plain_clans(a: int, b: int, anti_reflexive: bool) -> list[Clan]:
    # Labels are handed out in order of first occurrence, so every leaf is
    # already canonical.
    size = a + b
    symbols: list[Optional[Symbol]] = [None] * size
    results: list[Clan] = []

    def fill(pos: int, a_left: int, b_left: int, next_label: int) -> None:
        while pos < size and symbols[pos] is not None:
            pos += 1
        if pos == size:
            results.append(Clan(tuple(symbols)))
            return
        if a_left:
            symbols[pos] = PLUS
            fill(pos + 1, a_left - 1, b_left, next_label)
        if b_left:
            symbols[pos] = MINUS
            fill(pos + 1, a_left, b_left - 1, next_label)
        symbols[pos] = None
        if a_left and b_left:
            for mate in range(pos + 1, size):
                if symbols[mate] is None and not (anti_reflexive and mate == size - 1 - pos):
                    symbols[pos] = symbols[mate] = next_label
                    fill(pos + 1, a_left - 1, b_left - 1, next_label + 1)
                    symbols[pos] = symbols[mate] = None

    fill(0, a, b, 1)
    return results


def _mirrored_clans(a: int, b: int, skew: bool, anti_reflexive: bool) -> list[Clan]:
    # The open positions stay closed under i -> L-1-i, so the smallest open
    # position i and its mirror m are filled together: a sign at i and the
    # same (symmetric) or opposite (skew) sign at m; a number pairing i with
    # m; or numbers pairing i with an open j and m with L-1-j.  Only a sign
    # fits the middle position of an odd length, where i == m.
    size = a + b
    symbols: list[Optional[Symbol]] = [None] * size
    results: list[Clan] = []

    def fill(pos: int, a_left: int, b_left: int, next_label: int) -> None:
        while pos < size and symbols[pos] is not None:
            pos += 1
        if pos == size:
            results.append(Clan.of(symbols))
            return
        mirror_pos = size - 1 - pos
        if pos == mirror_pos:
            # the last open position: exactly one budget unit is left
            symbols[pos] = PLUS if a_left else MINUS
            fill(pos + 1, 0, 0, next_label)
            symbols[pos] = None
            return
        for sign in (PLUS, MINUS):
            pair = (sign, _OPPOSITE[sign] if skew else sign)
            a_use = pair.count(PLUS)
            if a_use <= a_left and 2 - a_use <= b_left:
                symbols[pos], symbols[mirror_pos] = pair
                fill(pos + 1, a_left - a_use, b_left - 2 + a_use, next_label)
        symbols[pos] = symbols[mirror_pos] = None
        if a_left and b_left and not anti_reflexive:
            symbols[pos] = symbols[mirror_pos] = next_label
            fill(pos + 1, a_left - 1, b_left - 1, next_label + 1)
            symbols[pos] = symbols[mirror_pos] = None
        if a_left >= 2 and b_left >= 2:
            for mate in range(pos + 1, size):
                mate_mirror = size - 1 - mate
                if symbols[mate] is None and mate not in (mirror_pos, mate_mirror):
                    symbols[pos] = symbols[mate] = next_label
                    symbols[mirror_pos] = symbols[mate_mirror] = next_label + 1
                    fill(pos + 1, a_left - 2, b_left - 2, next_label + 2)
                    symbols[pos] = symbols[mate] = None
                    symbols[mirror_pos] = symbols[mate_mirror] = None

    fill(0, a, b, 1)
    return results


def pair_validity(clan: Clan, pair: SymmetricPair) -> bool:
    """True when the clan labels an orbit of the given symmetric pair."""
    rule = pair.kind.clan_rule
    if rule is None:
        raise ContractViolation(f"{pair.spec_string()} is not clan-parametrized")
    if clan.signature() != pair.clan_signature():
        raise ContractViolation(
            f"clan {clan} has signature {clan.signature()}, "
            f"pair needs {pair.clan_signature()}"
        )
    return rule.admits(clan)


def clan_to_signed_involution(clan: Clan) -> SignedPermutation:
    """Position involution of a symmetric or skew-symmetric clan.

    For those clans the result is a signed element of the ambient
    symmetric group (it commutes with position reversal).
    """
    if not (clan.is_symmetric() or clan.is_skew_symmetric()):
        raise ContractViolation("clan is neither symmetric nor skew-symmetric")
    return clan.position_involution()
