"""Signed-permutation Weyl groups of the classical types.

Elements are stored as image tuples: ``w.images[i-1]`` is the signed value
w(i).  Family "A" means plain permutations, "BC" signed permutations with
any number of sign changes, "D" signed permutations with an even number.
Generator conventions (fixed once, all other modules depend on them):
s_i swaps positions i, i+1; the last BC generator negates n; the last D
generator swaps and negates n-1, n.
No statistic of an element lives here: the signs of the closed-orbit
formulas are read off the clans' sign strings, in ``classes``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import TYPE_CHECKING, Iterator, Optional

from .errors import ContractViolation, UsageError, parse_decimal
from .pairs import SymmetricPair
from .records import Record, set_field

if TYPE_CHECKING:  # annotations only, so importing weyl runs no polynomial code
    from .algebra import PlanEntry

#: Restriction targets per y-index: None for zero, else (sign, x_index).
RestrictionMap = tuple[Optional[tuple[int, int]], ...]


class SignedPermutation(Record):
    __slots__ = ("family", "images")  # family "A", "BC" or "D"

    def __init__(self, family: str, images: tuple[int, ...]) -> None:
        set_field(self, "family", family)
        set_field(self, "images", images)
        n = len(images)
        if sorted(abs(v) for v in images) != list(range(1, n + 1)):
            raise ContractViolation(f"{images} is not a signed permutation")
        if family == "A" and any(v < 0 for v in images):
            raise ContractViolation("type A elements change no signs")
        if family == "D" and self.sign_changes() % 2:
            raise ContractViolation("type D elements change an even number of signs")
        if family not in ("A", "BC", "D"):
            raise ContractViolation(f"unknown family {family!r}")

    # -- basics -----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.images)

    def sign_changes(self) -> int:
        return sum(1 for v in self.images if v < 0)

    # -- embeddings ---------------------------------------------------------

    def embed_as_permutation(self, ambient: int) -> "SignedPermutation":
        """Embed a signed permutation as a signed element of S_{2n}/S_{2n+1}.

        A signed element of S_N satisfies sigma(N+1-i) = N+1-sigma(i); for
        odd N the middle point is fixed.
        """
        n = self.n
        if ambient not in (2 * n, 2 * n + 1):
            raise ContractViolation("ambient size must be 2n or 2n+1")
        images = [0] * ambient
        for i in range(1, n + 1):
            v = self.images[i - 1]
            images[i - 1] = v if v > 0 else ambient + 1 + v
        if ambient % 2:
            images[n] = n + 1
        for i in range(1, n + 1):
            images[ambient - i] = ambient + 1 - images[i - 1]
        return SignedPermutation("A", tuple(images))

    # -- printing -------------------------------------------------------------

    def cycle_string(self) -> str:
        """Cycle notation for plain permutations (used for involutions)."""
        if self.family != "A":
            raise ContractViolation("cycle notation only for plain permutations")
        seen = set()
        cycles = []
        for start in range(1, self.n + 1):
            if start in seen or self.images[start - 1] == start:
                continue
            cycle = [start]
            seen.add(start)
            current = self.images[start - 1]
            while current != start:
                cycle.append(current)
                seen.add(current)
                current = self.images[current - 1]
            cycles.append(cycle)
        if not cycles:
            return "id"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)


def parse_cycles(text: str, n: int) -> SignedPermutation:
    """Parse cycle notation like "(1,3)(2,4)" or "id" into S_n."""
    text = text.strip()
    images = list(range(1, n + 1))
    if text in ("id", "e", "1"):
        return SignedPermutation("A", tuple(images))
    if not text.startswith("("):
        raise UsageError(f"bad cycle notation {text!r}")
    seen: set[int] = set()  # disjoint cycles of distinct entries make a permutation
    for chunk in text.replace(")(", ")|(").split("|"):
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise UsageError(f"bad cycle {chunk!r}")
        # decimal digits only, with spaces around them as in the clan grammar
        entries = [parse_decimal(v.strip(), "cycle entry") for v in chunk[1:-1].split(",")]
        for a, b in zip(entries, entries[1:] + entries[:1]):
            if not 1 <= a <= n:
                raise UsageError(f"cycle entry {a} outside 1..{n}")
            if a in seen:
                raise UsageError(f"entry {a} repeated in {text!r}")
            seen.add(a)
            images[a - 1] = b
    return SignedPermutation("A", tuple(images))


def group_images(family: str, n: int) -> Iterator[tuple[int, ...]]:
    """The image tuples of all elements: each permutation in
    lexicographic order, with its sign patterns in ``itertools.product``
    order of (1, -1) (type D keeps the even ones)."""
    if family not in ("A", "BC", "D"):
        raise ContractViolation(f"unknown family {family!r}")
    perms = itertools.permutations(range(1, n + 1))
    if family == "A":
        return perms
    signs = itertools.product((1, -1), repeat=n)
    patterns = [s for s in signs if family == "BC" or not s.count(-1) % 2]
    return (tuple(map(operator.mul, s, perm)) for perm in perms for s in patterns)


def involutions(size: int) -> list[tuple[int, ...]]:
    """The involutions of S_size as image tuples, in lexicographic order."""
    results: list[tuple[int, ...]] = []
    images = list(range(1, size + 1))

    def fill(start: int) -> None:
        while start <= size and images[start - 1] != start:
            start += 1
        free = [i for i in range(start, size + 1) if images[i - 1] == i]
        if not free:
            results.append(tuple(images))
            return
        i = free[0]
        # i stays fixed
        fill(i + 1)
        for j in free[1:]:
            images[i - 1], images[j - 1] = j, i
            fill(i + 1)
            images[i - 1], images[j - 1] = i, j

    fill(1)
    return results


def group_order(family: str, n: int) -> int:
    import math

    base = math.factorial(n)
    if family == "A":
        return base
    if family == "BC":
        return base << n
    return base << max(n - 1, 0)


# ---------------------------------------------------------------------------
# restriction maps


def restriction_map(pair: SymmetricPair) -> RestrictionMap:
    """The per-pair map sending each torus coordinate Y_j into the small
    torus: entries are (sign, x_index) or None for the coordinate that
    restricts to zero."""
    n, size = pair.n, pair.ambient[1]
    rule = pair.kind.restriction
    if rule == "fold":
        return tuple(
            (1, j) if j <= n else (-1, size + 1 - j) if j > size - n else None
            for j in range(1, size + 1)
        )
    if rule == "drop":
        # internal x-labels are contiguous, so X_j becomes x_{j-1} past p+1
        p = pair.p
        return tuple(
            (1, j) if j <= p else None if j == p + 1 else (1, j - 1)
            for j in range(1, n + 1)
        )
    return tuple((1, j) for j in range(1, n + 1))


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
