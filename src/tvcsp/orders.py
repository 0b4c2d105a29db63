"""Weak orders on tuple positions: the order types of tuples over Q.

A tuple of rationals is described, up to every order-preserving bijection of
Q, by the pattern of equalities and strict comparisons among its entries.
We store that pattern as a canonical rank vector: position ``p`` gets rank
``r`` when exactly ``r`` distinct smaller values occur in the tuple.  The
rank values used are always the initial segment ``{0, …, m-1}``.

Everything downstream indexes cost tables by these weak orders, so this
module also provides their enumeration (counted by the ordered Bell
numbers) and joint configurations: canonical weak orders on the ``2k``
coordinates of a pair of tuples, optionally with the constant 0 placed
among them, which is what binary canonical operations consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterator, Optional, Sequence

from . import config
from .errors import CapacityError


@dataclass(frozen=True, order=True, slots=True)
class WeakOrder:
    """Canonical surjective rank vector; hashable table index."""

    ranks: tuple[int, ...]

    def __post_init__(self):
        if not self.ranks:
            raise ValueError("weak order needs at least one position")
        m = max(self.ranks) + 1
        if set(self.ranks) != set(range(m)):
            raise ValueError(f"ranks {self.ranks} are not canonical")

    @property
    def arity(self) -> int:
        return len(self.ranks)

    @property
    def levels(self) -> int:
        return max(self.ranks) + 1

    def reversed(self) -> "WeakOrder":
        """Top-for-bottom reversal: the order type of the negated tuple."""
        m = self.levels - 1
        return WeakOrder(tuple(m - r for r in self.ranks))

    def is_injective(self) -> bool:
        return self.levels == self.arity

    def __str__(self) -> str:
        return "[" + ",".join(str(r) for r in self.ranks) + "]"


def canonical_weak_order(values: Sequence) -> WeakOrder:
    """Order type of a tuple of mutually comparable values.

    Two inputs yield the same result exactly when they have the same
    pattern of ``<`` and ``=`` comparisons.
    """
    if not values:
        raise ValueError("cannot take the order type of an empty tuple")
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return WeakOrder(tuple(rank[v] for v in values))


def canonical_ranks(values: Sequence) -> tuple[int, ...]:
    """Like :func:`canonical_weak_order` but returns the bare rank tuple."""
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return tuple(rank[v] for v in values)


def bottom_order(k: int) -> WeakOrder:
    """The all-equal order type on ``k`` positions."""
    return WeakOrder((0,) * k)


def set_partitions(items: Sequence) -> list[list[list]]:
    """All partitions of ``items`` into unordered nonempty blocks.

    Blocks appear in order of their first element; partitions come out in a
    fixed deterministic order (first item alone first).
    """
    items = list(items)
    if not items:
        return [[]]
    head, rest = items[0], items[1:]
    out = []
    for sub in set_partitions(rest):
        out.append([[head]] + [list(b) for b in sub])
        for i in range(len(sub)):
            out.append([list(b) for b in sub[:i]]
                       + [[head] + list(sub[i])]
                       + [list(b) for b in sub[i + 1:]])
    return out


@lru_cache(maxsize=None)
def _weak_orders(k: int) -> tuple[WeakOrder, ...]:
    out = []
    for blocks in set_partitions(range(k)):
        m = len(blocks)
        for perm in permutations(range(m)):
            ranks = [0] * k
            for b, block in enumerate(blocks):
                for p in block:
                    ranks[p] = perm[b]
            out.append(tuple(ranks))
    out.sort()
    return tuple(WeakOrder(r) for r in out)


def enumerate_weak_orders(k: int, cap: Optional[int] = None) -> tuple[WeakOrder, ...]:
    """All weak orders on ``k`` positions, sorted by rank vector.

    The count is the ordered Bell number of ``k`` (1, 3, 13, 75, 541, 4683,
    …), so ``k`` is capped; pass ``cap`` to override the configured default.
    """
    if k < 1:
        raise ValueError("arity must be at least 1")
    limit = config.arity_cap() if cap is None else cap
    if k > limit:
        cap_name = config.ARITY_CAP_NAME if cap is None else "cap"
        raise CapacityError("weak-order enumeration", k, cap_name, limit)
    return _weak_orders(k)


def ordered_bell(k: int) -> int:
    return len(enumerate_weak_orders(k))


def partition_signature(w: WeakOrder) -> tuple[int, ...]:
    """Equality pattern of ``w`` alone: block ids in first-occurrence order.

    Two weak orders get the same signature exactly when they have the same
    equality classes, irrespective of how the classes compare.
    """
    seen: dict[int, int] = {}
    sig = []
    for r in w.ranks:
        if r not in seen:
            seen[r] = len(seen)
        sig.append(seen[r])
    return tuple(sig)


@dataclass(frozen=True, slots=True)
class JointConfig:
    """Canonical weak order on the coordinates of a pair of tuples.

    ``s_ranks[i]`` and ``t_ranks[i]`` are ranks on one common scale, so
    every comparison between any coordinates of the two tuples is
    determined.  ``zero_rank``, when present, places the constant 0 on the
    same scale; operations that branch on the sign of an argument need it.
    """

    s_ranks: tuple[int, ...]
    t_ranks: tuple[int, ...]
    zero_rank: Optional[int] = None

    def __post_init__(self):
        used = set(self.s_ranks) | set(self.t_ranks)
        if self.zero_rank is not None:
            used.add(self.zero_rank)
        if used != set(range(len(used))):
            raise ValueError("joint ranks are not a canonical initial segment")

    @property
    def arity(self) -> int:
        return len(self.s_ranks)

    @property
    def marginal_s(self) -> WeakOrder:
        return canonical_weak_order(self.s_ranks)

    @property
    def marginal_t(self) -> WeakOrder:
        return canonical_weak_order(self.t_ranks)

    def __str__(self) -> str:
        z = "" if self.zero_rank is None else f" zero@{self.zero_rank}"
        return (f"s={list(self.s_ranks)} t={list(self.t_ranks)}{z}")


@lru_cache(maxsize=None)
def level_merges(m1: int, m2: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """All ways to merge two rank scales of ``m1`` and ``m2`` levels.

    Yields pairs of strictly increasing maps ``(a, b)`` into a common scale
    whose images cover an initial segment.  Deterministic order: at each
    step the shared level comes first, then the first scale alone, then the
    second.
    """
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def rec(i: int, j: int, a: list[int], b: list[int], level: int) -> None:
        if i == m1 and j == m2:
            out.append((tuple(a), tuple(b)))
            return
        if i < m1 and j < m2:
            a.append(level)
            b.append(level)
            rec(i + 1, j + 1, a, b, level + 1)
            a.pop()
            b.pop()
        if i < m1:
            a.append(level)
            rec(i + 1, j, a, b, level + 1)
            a.pop()
        if j < m2:
            b.append(level)
            rec(i, j + 1, a, b, level + 1)
            b.pop()

    rec(0, 0, [], [], 0)
    return tuple(out)


def joint_configs(w1: WeakOrder, w2: WeakOrder,
                  with_zero: bool = False) -> Iterator[JointConfig]:
    """All joint configurations with the given marginal order types.

    Enumerated as interleavings of the two level scales rather than as raw
    weak orders on ``2k`` points; with ``with_zero`` the constant 0 is
    additionally placed at every gap and every level, bottom-up.  The order
    is deterministic, which makes counterexample reports reproducible.
    """
    for a, b in level_merges(w1.levels, w2.levels):
        s = tuple(a[r] for r in w1.ranks)
        t = tuple(b[r] for r in w2.ranks)
        if not with_zero:
            yield JointConfig(s, t, None)
            continue
        levels = max(max(a), max(b)) + 1
        for slot in range(2 * levels + 1):
            if slot % 2 == 0:
                # gap below level slot//2: shift higher levels up
                g = slot // 2
                yield JointConfig(
                    tuple(r + 1 if r >= g else r for r in s),
                    tuple(r + 1 if r >= g else r for r in t),
                    g,
                )
            else:
                yield JointConfig(s, t, slot // 2)
