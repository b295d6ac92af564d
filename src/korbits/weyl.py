"""Signed-permutation Weyl groups of the classical types.

Elements are stored as image tuples: ``w.images[i-1]`` is the signed value
w(i).  Family "A" means plain permutations, "BC" signed permutations with
any number of sign changes, "D" signed permutations with an even number.
Generator conventions (fixed once, all other modules depend on them):
s_i swaps positions i, i+1; the last BC generator negates n; the last D
generator swaps and negates n-1, n.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Optional

from .algebra import PlanEntry
from .errors import ContractViolation, UsageError
from .pairs import SymmetricPair
from .records import Record, set_field

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

    @classmethod
    def _trusted(cls, family: str, images: tuple[int, ...]) -> "SignedPermutation":
        """Wrap images already known to form an element of the family."""
        obj = object.__new__(cls)
        set_field(obj, "family", family)
        set_field(obj, "images", images)
        return obj

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.images == other.images and self.family == other.family

    def __hash__(self) -> int:
        return hash((self.family, self.images))

    # -- basics -----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        """Signed evaluation: w(-i) = -w(i)."""
        if i > 0:
            return self.images[i - 1]
        return -self.images[-i - 1]

    def sign_changes(self) -> int:
        return sum(1 for v in self.images if v < 0)

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    @classmethod
    def identity(cls, family: str, n: int) -> "SignedPermutation":
        return cls(family, tuple(range(1, n + 1)))

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """(self * other)(i) = self(other(i))."""
        if other.n != self.n:
            raise ContractViolation("size mismatch in composition")
        images = tuple(self(other(i)) for i in range(1, self.n + 1))
        return SignedPermutation(_join_family(self.family, other.family), images)

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        return self.compose(other)

    def inverse(self) -> "SignedPermutation":
        images = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            if v > 0:
                images[v - 1] = i
            else:
                images[-v - 1] = -i
        return SignedPermutation(self.family, tuple(images))

    def absolute(self) -> "SignedPermutation":
        """The underlying unsigned permutation, as a type A element."""
        return SignedPermutation("A", tuple(abs(v) for v in self.images))

    # -- Coxeter structure -------------------------------------------------

    def length(self) -> int:
        """Coxeter length: positive roots sent negative.

        A root +-e_a +- e_b is negative exactly when the coefficient of
        the smaller index is negative; a short root +-e_a by its sign.
        """
        count = 0
        for i in range(1, self.n + 1):
            vi = self.images[i - 1]
            if self.family == "BC" and vi < 0:
                count += 1
            for j in range(i + 1, self.n + 1):
                vj = self.images[j - 1]
                for eps in ((-1,) if self.family == "A" else (-1, 1)):
                    if abs(vi) < abs(vj):
                        lead = vi
                    else:
                        lead = eps * vj
                    if lead < 0:
                        count += 1
        return count

    def times_generator(self, i: int) -> "SignedPermutation":
        """Right multiplication by s_i (acts on positions)."""
        imgs = list(self.images)
        if 1 <= i < self.n:
            imgs[i - 1], imgs[i] = imgs[i], imgs[i - 1]
        elif i == self.n and self.family == "BC":
            imgs[-1] = -imgs[-1]
        elif i == self.n and self.family == "D":
            imgs[-2], imgs[-1] = -imgs[-1], -imgs[-2]
        else:
            raise ContractViolation(f"generator s_{i} out of range")
        return SignedPermutation(self.family, tuple(imgs))

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

    # -- statistics -----------------------------------------------------------

    def neg_set(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.images, start=1) if v < 0)

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


def _join_family(a: str, b: str) -> str:
    if a == b:
        return a
    if "BC" in (a, b):
        return "BC"
    if "D" in (a, b):
        # product of a D element with a plain permutation stays even
        return "D" if "A" in (a, b) else "BC"
    return "A"


def parse_cycles(text: str, n: int) -> SignedPermutation:
    """Parse cycle notation like "(1,3)(2,4)" or "id" into S_n."""
    text = text.strip()
    images = list(range(1, n + 1))
    if text in ("id", "e", "1", ""):
        return SignedPermutation("A", tuple(images))
    if not text.startswith("("):
        raise UsageError(f"bad cycle notation {text!r}")
    for chunk in text.replace(")(", ")|(").split("|"):
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise UsageError(f"bad cycle {chunk!r}")
        try:
            entries = [int(v) for v in chunk[1:-1].split(",")]
        except ValueError:
            raise UsageError(f"cycle entries must be integers in {chunk!r}") from None
        if len(set(entries)) != len(entries):
            raise UsageError(f"repeated entry in cycle {chunk!r}")
        for a, b in zip(entries, entries[1:] + entries[:1]):
            if not 1 <= a <= n:
                raise UsageError(f"cycle entry {a} outside 1..{n}")
            images[a - 1] = b
    if sorted(images) != list(range(1, n + 1)):
        raise UsageError(f"{text!r} is not a permutation of 1..{n}")
    return SignedPermutation("A", tuple(images))


def enumerate_group(family: str, n: int) -> Iterator[SignedPermutation]:
    """All elements: n! for A, 2^n n! for BC, 2^(n-1) n! for D.

    Elements are valid by construction, so they skip the validation of
    ``SignedPermutation``."""
    if family not in ("A", "BC", "D"):
        raise ContractViolation(f"unknown family {family!r}")
    trusted = SignedPermutation._trusted
    for perm in itertools.permutations(range(1, n + 1)):
        if family == "A":
            yield trusted("A", perm)
            continue
        for signs in itertools.product((1, -1), repeat=n):
            if family == "D" and signs.count(-1) % 2:
                continue
            yield trusted(family, tuple(s * v for s, v in zip(signs, perm)))


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
# statistics used in sign prefactors


def l_p(w: SignedPermutation, p: int) -> int:
    """Count pairs i < j with w(j) <= p < w(i), for a plain permutation."""
    if w.family != "A":
        raise ContractViolation("l_p is a statistic of plain permutations")
    if not 0 <= p <= w.n:
        raise ContractViolation("p out of range")
    count = 0
    for i in range(w.n):
        for j in range(i + 1, w.n):
            if w.images[j] <= p < w.images[i]:
                count += 1
    return count


def sign_stats(w: SignedPermutation) -> tuple[tuple[int, ...], int, int]:
    """(Neg(w), f(w), g(w)) with g = sum of (n - i) over i in Neg(w)."""
    neg = w.neg_set()
    return neg, len(neg), sum(w.n - i for i in neg)


def unequal_rank_stats(w: SignedPermutation, p: int) -> tuple[tuple[int, ...], dict[int, int], int]:
    """(I_w, C, f) for a standard representative in the unequal-rank split.

    Requires: w plain, w(n) = p+1, and the preimages of 1..p and of
    p+2..n appear in increasing order.
    """
    n = w.n
    if any(v < 0 for v in w.images):
        raise ContractViolation("standard representatives change no signs")
    if w.images[-1] != p + 1:
        raise ContractViolation("standard representative must send n to p+1")
    inv = w.inverse()
    low = [inv.images[v - 1] for v in range(1, p + 1)]
    high = [inv.images[v - 1] for v in range(p + 2, n + 1)]
    if low != sorted(low) or high != sorted(high):
        raise ContractViolation("standard representative has scrambled blocks")
    i_set = tuple(i for i in range(1, n) if w.images[i - 1] > p + 1)
    c_map = {
        i: sum(1 for j in range(i + 1, n) if w.images[j - 1] <= p) for i in i_set
    }
    return i_set, c_map, sum(c_map.values())


# ---------------------------------------------------------------------------
# restriction maps


def restriction_map(pair: SymmetricPair) -> RestrictionMap:
    """The per-pair map sending each torus coordinate Y_j into the small
    torus: entries are (sign, x_index) or None for the coordinate that
    restricts to zero."""
    n, size = pair.n, pair.ambient_family()[1]
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


def restriction_assignment(pair: SymmetricPair, w: SignedPermutation):
    """Substitution y_j -> rho(w . Y_j) as an algebra assignment dict."""
    rho = restriction_map(pair)
    assignment = {}
    for j in range(1, len(rho) + 1):
        v = w.images[j - 1]
        target = rho[abs(v) - 1]
        if target is None:
            assignment[j] = None
        else:
            sign, idx = target
            assignment[j] = (sign if v > 0 else -sign, "x", idx)
    return assignment


@functools.lru_cache(maxsize=None)
def signed_targets(pair: SymmetricPair) -> tuple[PlanEntry, ...]:
    """Substitution plan entries of restriction, indexed by the signed value
    v = w(j) itself (a negative v counts from the end): the entry sends y_j
    to the restriction map's target of Y_|v|, negated for v < 0, or to zero
    (entry 0).  A plan at w is then ``[table[v] for v in w.images]``."""
    rho = restriction_map(pair)
    table: list[PlanEntry] = [None] * (2 * len(rho) + 1)
    for v, target in enumerate(rho, start=1):
        if target is None:
            table[v] = table[-v] = 0
        else:
            sign, idx = target
            table[v], table[-v] = (sign, idx - 1), (-sign, idx - 1)
    return tuple(table)
