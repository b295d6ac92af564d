"""Consistency check between clan totals and one-sided fiber counts.

For each inner class of involutions, every twisted involution tau carries
a fiber of size 2^k or 2^(k+1) (k the number of positive fixed points of
the matching signed-element involution; the doubled count occurs exactly
when no position is swapped with its mirror).  Summing clans over all
symmetric subgroups in the inner class and grouping them by their
position involution must reproduce these fiber sizes.  The clans of each
subgroup come straight from the mirror-aware generator
``enumerate_clans(..., mirror=..., anti_reflexive=...)`` under that
subgroup's rule, so no clan outside the inner class is ever built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .clans import enumerate_clans
from .errors import InternalError, UsageError
from .weyl import SignedPermutation

INNER_CLASSES = ("B", "C", "D-compact", "D-unequal")


@dataclass(frozen=True)
class CountRow:
    involution: str
    clan_count: int
    fiber_count: int

    @property
    def ok(self) -> bool:
        return self.clan_count == self.fiber_count


def _involutions(family: str, n: int, parity: str = "any"):
    """The involutions of the signed group, in ``enumerate_group`` order.

    w(i) = s_i * pi(i) squares to the identity exactly when pi does and
    s_i = s_pi(i), so only involutive pi get a sign loop and only sign
    patterns constant on the cycles of pi become elements.
    """
    for perm in itertools.permutations(range(1, n + 1)):
        if any(perm[v - 1] != i for i, v in enumerate(perm, start=1)):
            continue
        for signs in itertools.product((1, -1), repeat=n):
            images = tuple(s * v for s, v in zip(signs, perm))
            if any((v < 0) != (images[abs(v) - 1] < 0) for v in images):
                continue
            changes = signs.count(-1)
            if family == "D" and changes % 2:
                continue
            if parity == "odd" and changes % 2 == 0:
                continue
            if parity == "even" and changes % 2:
                continue
            yield SignedPermutation(family, images)


def _fixed_low(sigma: SignedPermutation, n: int) -> int:
    return sum(1 for i in range(1, n + 1) if sigma.images[i - 1] == i)


def _mirrored_swap(sigma: SignedPermutation, n: int) -> bool:
    size = sigma.n
    return any(sigma.images[i - 1] == size + 1 - i for i in range(1, n + 1))


def count_report(inner_class: str, n: int) -> list[CountRow]:
    """Rows (involution, clan total, fiber size) for the inner class."""
    if inner_class == "B":
        size = 2 * n + 1
        clans = [
            c
            for p in range(n + 1)
            for c in enumerate_clans(2 * p, 2 * (n - p) + 1, mirror="symmetric")
        ]
        taus = [w.embed_as_permutation(size) for w in _involutions("BC", n)]

        def fiber(sigma: SignedPermutation) -> int:
            return 2 ** _fixed_low(sigma, n)

    elif inner_class == "C":
        size = 2 * n
        clans = [
            c
            for p in range(n + 1)
            for c in enumerate_clans(
                2 * p, 2 * (n - p), mirror="symmetric", anti_reflexive=True
            )
        ]
        clans += enumerate_clans(n, n, mirror="skew")
        taus = [w.embed_as_permutation(size) for w in _involutions("BC", n)]

        def fiber(sigma: SignedPermutation) -> int:
            k = _fixed_low(sigma, n)
            return 2 ** k if _mirrored_swap(sigma, n) else 2 ** (k + 1)

    elif inner_class == "D-compact":
        size = 2 * n
        clans = [
            c
            for p in range(n + 1)
            for c in enumerate_clans(2 * p, 2 * (n - p), mirror="symmetric")
        ]
        # the two non-conjugate general-linear subgroups split the
        # anti-reflexive skew clans between them by the front parity, so the
        # D:gl rule without its front-parity test gives the inner-class total
        clans += enumerate_clans(n, n, mirror="skew", anti_reflexive=True)
        taus = [w.embed_as_permutation(size) for w in _involutions("D", n)]

        def fiber(sigma: SignedPermutation) -> int:
            k = _fixed_low(sigma, n)
            return 2 ** k if _mirrored_swap(sigma, n) else 2 ** (k + 1)

    elif inner_class == "D-unequal":
        size = 2 * n
        clans = [
            c
            for p in range(n)
            for c in enumerate_clans(2 * p + 1, 2 * (n - p) - 1, mirror="symmetric")
        ]
        taus = [
            w.embed_as_permutation(size) for w in _involutions("BC", n, parity="odd")
        ]

        def fiber(sigma: SignedPermutation) -> int:
            return 2 ** _fixed_low(sigma, n)

    else:
        raise UsageError(
            f"unknown inner class {inner_class!r}; pick from {INNER_CLASSES}"
        )

    buckets: dict[tuple[int, ...], int] = {}
    for clan in clans:
        key = clan.position_involution().images
        buckets[key] = buckets.get(key, 0) + 1
    rows = [
        CountRow(sigma.cycle_string(), buckets.get(sigma.images, 0), fiber(sigma))
        for sigma in taus
    ]
    if sum(row.clan_count for row in rows) != len(clans):
        raise InternalError(
            "some clans sit over involutions outside the enumerated inner class"
        )
    return rows
