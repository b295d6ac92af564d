"""Consistency check between clan totals and one-sided fiber counts.

For each inner class of involutions, every twisted involution tau carries
a fiber of size 2^k or 2^(k+1) (k the number of positive fixed points of
the matching signed-element involution; the doubled count occurs exactly
when no position is swapped with its mirror).  Summing clans over every
symmetric pair (G, K) in the inner class and grouping them by their
position involution must reproduce these fiber sizes.  The pairs of an
inner class are the pair kinds that name it; the clans of each come
straight from the clan generator, which builds only the clans of that
kind's rule, so no clan outside the inner class is ever built.
"""

from __future__ import annotations

import itertools

from .clans import enumerate_clans
from .errors import InternalError, UsageError
from .pairs import INNER_CLASSES, KINDS, PQ
from .records import Record, set_fields
from .weyl import SignedPermutation, involutions


class CountRow(Record):
    __slots__ = ("involution", "clan_count", "fiber_count")

    def __init__(self, involution: str, clan_count: int, fiber_count: int) -> None:
        set_fields(self, involution, clan_count, fiber_count)

    @property
    def ok(self) -> bool:
        return self.clan_count == self.fiber_count


def _involutions(family: str, n: int, parity: str = "any"):
    """The involutions of the signed group, in ``group_images`` order.

    w(i) = s_i * pi(i) squares to the identity exactly when pi does and
    s_i = s_pi(i), so only involutive pi get a sign loop and only sign
    patterns constant on the cycles of pi become elements.
    """
    for perm in involutions(n):
        for signs in itertools.product((1, -1), repeat=n):
            images = tuple(s * v for s, v in zip(signs, perm))
            if any((v < 0) != (images[abs(v) - 1] < 0) for v in images):
                continue
            changes = signs.count(-1)
            if family == "D" and changes % 2:
                continue
            if parity == "odd" and changes % 2 == 0:
                continue
            yield SignedPermutation(family, images)


def _fixed_low(sigma: SignedPermutation, n: int) -> int:
    return sum(1 for i in range(1, n + 1) if sigma.images[i - 1] == i)


def _mirrored_swap(sigma: SignedPermutation, n: int) -> bool:
    size = sigma.n
    return any(sigma.images[i - 1] == size + 1 - i for i in range(1, n + 1))


def count_report(inner_class: str, n: int) -> list[CountRow]:
    """Rows (involution, clan total, fiber size) for the inner class."""
    kinds = [
        kind for kind in KINDS.values()
        if kind.inner_class is not None and kind.inner_class.name == inner_class
    ]
    if not kinds:
        raise UsageError(
            f"unknown inner class {inner_class!r}; pick from {INNER_CLASSES}"
        )
    inner = kinds[0].inner_class
    size = sum(kinds[0].signature(n, 0, n))  # one clan length for the class
    clans = []
    for kind in kinds:
        rule = kind.clan_rule
        for p in range(n + 1) if kind.form == PQ else (0,):
            a, b = kind.signature(n, p, n - p)
            if a < 0 or b < 0:
                continue
            # the front-parity test of the type D general-linear rule splits
            # its clans between two non-conjugate choices of K in the
            # inner class, so it is left out here
            clans += enumerate_clans(
                a, b, mirror=rule.mirror, anti_reflexive=rule.anti_reflexive
            )
    taus = [
        w.embed_as_permutation(size)
        for w in _involutions(inner.family, n, parity=inner.parity)
    ]

    def fiber(sigma: SignedPermutation) -> int:
        k = _fixed_low(sigma, n)
        return 2 ** (k + 1) if inner.doubled and not _mirrored_swap(sigma, n) else 2 ** k

    buckets = dict.fromkeys([sigma.images for sigma in taus], 0)
    for clan in clans:
        sigma = clan.position_involution()
        if sigma.images not in buckets:
            raise InternalError(
                f"inner class {inner_class}:{n}: clan {clan} sits over the involution"
                f" {sigma.cycle_string()}, outside the enumerated inner class"
            )
        buckets[sigma.images] += 1
    return [CountRow(sigma.cycle_string(), buckets[sigma.images], fiber(sigma)) for sigma in taus]
