from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvcsp import (
    CapacityError,
    JointConfig,
    WeakOrder,
    canonical_weak_order,
    enumerate_weak_orders,
    joint_configs,
    ordered_bell,
)
from tvcsp.orders import bottom_order, level_merges, set_partitions

ORDERED_BELL = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541, 6: 4683}


def brute_force_weak_orders(k):
    """Independent oracle: all surjective rank maps onto an initial segment."""
    out = set()
    for ranks in product(range(k), repeat=k):
        used = set(ranks)
        if used == set(range(len(used))):
            out.add(ranks)
    return out


@pytest.mark.parametrize("values,expected", [
    ((3, 1, 3), (1, 0, 1)),
    ((5,), (0,)),
    ((2, 2, 2), (0, 0, 0)),
])
def test_canonical_weak_order_examples(values, expected):
    assert canonical_weak_order(values).ranks == expected


def test_canonical_rejects_empty():
    with pytest.raises(ValueError):
        canonical_weak_order(())


def test_weak_order_validation():
    with pytest.raises(ValueError):
        WeakOrder((0, 2))
    WeakOrder((1, 0, 1))  # canonical even though 0 is not first


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_enumeration_matches_brute_force(k):
    got = {w.ranks for w in enumerate_weak_orders(k)}
    assert got == brute_force_weak_orders(k)


@pytest.mark.parametrize("k,count", sorted(ORDERED_BELL.items()))
def test_ordered_bell_counts(k, count):
    assert ordered_bell(k) == count


def test_enumeration_sorted_and_deterministic():
    ws = enumerate_weak_orders(3)
    assert [w.ranks for w in ws] == sorted(w.ranks for w in ws)
    assert enumerate_weak_orders(3) == ws


def test_k2_enumeration():
    assert {w.ranks for w in enumerate_weak_orders(2)} == {
        (0, 0), (0, 1), (1, 0)}
    assert [w.ranks for w in enumerate_weak_orders(1)] == [(0,)]


def test_cap_error_names_cap():
    with pytest.raises(CapacityError) as err:
        enumerate_weak_orders(9)
    assert "TVCSP_ARITY_CAP" in str(err.value)
    assert enumerate_weak_orders(7, cap=7)  # explicit raise of the cap


small_orders = st.integers(1, 4).flatmap(
    lambda k: st.sampled_from(enumerate_weak_orders(k)))


@given(small_orders)
def test_canonical_idempotent(w):
    assert canonical_weak_order(w.ranks) == w


@given(small_orders)
def test_reversal_involution(w):
    assert w.reversed().reversed() == w


def test_set_partitions_counts():
    bell = [1, 1, 2, 5, 15, 52]
    for n, b in enumerate(bell):
        assert len(set_partitions(range(n))) == b


def test_level_merges_counts():
    # central Delannoy numbers 3, 13, 63 count the merges of equal chains
    assert len(level_merges(1, 1)) == 3
    assert len(level_merges(2, 2)) == 13
    assert len(level_merges(3, 3)) == 63


def test_joint_config_validation():
    with pytest.raises(ValueError):
        JointConfig((0, 2), (2, 2))  # gap in the rank scale
    JointConfig((0, 2), (1, 1), None)  # covers 0..2: fine
    with pytest.raises(ValueError):
        JointConfig((0, 1), (1, 0), 3)  # zero beyond the scale


def test_joint_configs_marginals():
    for w1 in enumerate_weak_orders(2):
        for w2 in enumerate_weak_orders(3):
            seen = set()
            for cfg in joint_configs(w1, w2):
                assert cfg.marginal_s == w1
                assert cfg.marginal_t == w2
                assert cfg not in seen
                seen.add(cfg)


def _marginal(ranks):
    lo = sorted(set(ranks))
    return tuple(lo.index(r) for r in ranks)


@pytest.mark.parametrize("k", [1, 2])
def test_joint_configs_match_raw_enumeration(k):
    # independent oracle: weak orders on 2k points, grouped by marginals
    raw = {}
    for w in enumerate_weak_orders(2 * k):
        s, t = w.ranks[:k], w.ranks[k:]
        raw.setdefault((_marginal(s), _marginal(t)), set()).add((s, t))
    for w1 in enumerate_weak_orders(k):
        for w2 in enumerate_weak_orders(k):
            got = {(c.s_ranks, c.t_ranks) for c in joint_configs(w1, w2)}
            assert got == raw[(w1.ranks, w2.ranks)]


@pytest.mark.parametrize("k", [1, 2])
def test_joint_configs_with_zero_match_raw_enumeration(k):
    # same oracle with an extra coordinate holding the constant 0
    raw = {}
    for w in enumerate_weak_orders(2 * k + 1):
        s, t, z = w.ranks[:k], w.ranks[k:2 * k], w.ranks[2 * k]
        raw.setdefault((_marginal(s), _marginal(t)), set()).add((s, t, z))
    for w1 in enumerate_weak_orders(k):
        for w2 in enumerate_weak_orders(k):
            got = {(c.s_ranks, c.t_ranks, c.zero_rank)
                   for c in joint_configs(w1, w2, with_zero=True)}
            assert got == raw[(w1.ranks, w2.ranks)]


def test_joint_configs_with_zero():
    w = bottom_order(1)
    no_zero = list(joint_configs(w, w))
    with_zero = list(joint_configs(w, w, with_zero=True))
    assert all(c.zero_rank is None for c in no_zero)
    assert all(c.zero_rank is not None for c in with_zero)
    # each merge with L levels admits 2L+1 zero placements
    expected = sum(2 * (max(max(c.s_ranks), max(c.t_ranks)) + 1) + 1
                   for c in no_zero)
    assert len(with_zero) == expected
    assert len(set(with_zero)) == len(with_zero)
