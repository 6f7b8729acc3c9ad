"""Coordinate-partition construction and subset square-norms."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snsm import partition as part

RULES = ("equip", "ragged", "sqrt", "rows", "columns", "norm", "coord")


def _case(rule, a, b):
    """A partition of one rule and its explicit per-coordinate subset labels."""
    if rule == "equip":
        return part.build("equip", b, (a * b,)), np.arange(a * b) // b
    if rule == "ragged":
        return part.Partition(a, min(a, b)), np.arange(a) // b
    if rule == "sqrt":
        k = max(1, round(math.sqrt(a) / 2))
        return part.build("heuristic2d", None, (a,)), np.arange(a) // k
    if rule == "rows":
        m, n = max(a, b), min(a, b)
        return part.build("heuristic2d", None, (m, n)), np.repeat(np.arange(m), n)
    if rule == "columns":
        m, n = min(a, b), max(a, b) + 1
        return part.build("heuristic2d", None, (m, n)), np.tile(np.arange(n), m)
    if rule == "norm":
        return part.build("norm", None, (a,)), np.zeros(a, dtype=np.int64)
    return part.build("coord", None, (a,)), np.arange(a)


def _sizes(p):
    """Each subset's coordinate count, as the subset norms of a vector of ones."""
    return part.subset_sqnorms(p, np.ones(p.d))


def _assert_matches_labels(p, labels, rng):
    """Subset norms, sizes and per-coordinate division agree with a bincount
    and a gather over the explicit label array, for one gradient and for a
    stack of three replicas."""
    g = rng.standard_normal(p.d)
    ref = np.bincount(labels, weights=g * g)
    assert p.c == ref.size
    np.testing.assert_array_equal(_sizes(p), np.bincount(labels))
    # both sides sum at most d non-negative terms in float64
    np.testing.assert_allclose(part.subset_sqnorms(p, g), ref,
                               rtol=p.d * np.finfo(np.float64).eps, atol=0)
    G = rng.standard_normal((3, p.d))
    refs = np.stack([np.bincount(labels, weights=r * r) for r in G])
    np.testing.assert_allclose(part.subset_sqnorms(p, G), refs,
                               rtol=p.d * np.finfo(np.float64).eps, atol=0)
    denoms = rng.uniform(0.5, 2.0, (3, p.c))
    # the division runs in place, so the reference reads the input first
    for a, values in ((G, denoms), (g, denoms[0])):
        want = a / values[..., labels]
        assert part.subset_divide(p, a, values) is a
        np.testing.assert_array_equal(a, want)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RULES), st.integers(1, 40), st.integers(1, 40),
       st.integers(0, 2 ** 32 - 1))
def test_partition_matches_label_reference(rule, a, b, seed):
    p, labels = _case(rule, a, b)
    _assert_matches_labels(p, labels, np.random.default_rng(seed))
    for f in dataclasses.fields(p):
        assert type(getattr(p, f.name)) in (int, bool)


@pytest.mark.parametrize("d,k", [(1024, 256), (1024, 1024), (50, 4), (50, 48)],
                         ids=["k-divides-d", "one-block", "ragged", "ragged-2"])
def test_whole_and_ragged_blocks_match_label_reference(d, k):
    # k | d takes the reshape-only path of segment_sqnorms and subset_divide,
    # a ragged d (the heuristic2d blocks of 4 and a tail of 2 of a d = 50
    # vector) the path that reduces and divides the short last block on its own
    p = part.Partition(d, k)
    labels = np.arange(d) // k
    rng = np.random.default_rng(d + k)
    _assert_matches_labels(p, labels, rng)
    # a strided last axis is still divided in place, through a view
    a = np.asfortranarray(rng.standard_normal((3, d)))
    values = rng.uniform(0.5, 2.0, (3, p.c))
    want = a / values[..., labels]
    assert part.subset_divide(p, a, values) is a
    np.testing.assert_array_equal(a, want)


def test_partition_fields_from_numpy_ints_are_python_scalars():
    p = part.build("heuristic2d", None, (np.int64(3), np.int64(7)))
    assert (type(p.d), type(p.k), type(p.columns)) == (int, int, bool)


@pytest.mark.parametrize("make,message", [
    (lambda: part.Partition(0, 1), "a partition needs d >= 1 coordinates$"),
    (lambda: part.Partition(4, 0), r"subset size k=0 out of range \[1, d=4\]$"),
    (lambda: part.Partition(4, 5), r"subset size k=5 out of range \[1, d=4\]$"),
    (lambda: part.Partition(6, 4, columns=True), "column height k=4 does not divide d=6$"),
    # a shape with a dimension below 1 reaches these checks through build
    (lambda: part.build("heuristic2d", None, (0, 5)),
     "a partition needs d >= 1 coordinates$"),
    (lambda: part.build("heuristic2d", None, (-2, -3)),
     r"subset size k=-3 out of range \[1, d=6\]$"),
], ids=["no-coordinates", "k-below-1", "k-above-d", "column-height", "zero-dim",
        "negative-dims"])
def test_partition_rejects_a_bad_geometry(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_equipartition_blocks():
    p = part.build("equip", 2, (6,))
    _assert_matches_labels(p, np.array([0, 0, 1, 1, 2, 2]),
                           np.random.default_rng(0))
    assert p.c == 3
    np.testing.assert_array_equal(_sizes(p), [2, 2, 2])


def test_equipartition_extremes():
    assert part.build("equip", 4, (4,)).c == 1  # single global subset
    assert part.build("equip", 1, (4,)).c == 4  # per-coordinate subsets


def test_equipartition_divisibility_error():
    # equip cuts the flat coordinates, whatever the shape
    for shape in ((10,), (2, 5)):
        with pytest.raises(ValueError, match="subset size k=3 does not divide d=10$"):
            part.build("equip", 3, shape)


def test_ragged_last_block_smaller():
    p = part.Partition(10, 3)
    np.testing.assert_array_equal(_sizes(p), [3, 3, 3, 1])


def test_heuristic_2d_grouping():
    p = part.build("heuristic2d", None, (2048, 1024))
    assert p.c == 2048  # one subset per row
    assert np.all(_sizes(p) == 1024)
    p = part.build("heuristic2d", None, (3, 7))
    assert p.c == 7  # columns when rows are the smaller dimension
    assert np.all(_sizes(p) == 3)
    assert part.build("heuristic2d", None, (5, 5)).c == 5  # tie broken toward rows


def test_heuristic_2d_row_groups_are_contiguous():
    # row-major flattening: row i occupies [i*n, (i+1)*n)
    p = part.build("heuristic2d", None, (4, 3))
    _assert_matches_labels(p, np.repeat(np.arange(4), 3),
                           np.random.default_rng(0))


def test_heuristic_2d_state_size_is_max_dim():
    for m, n in [(2, 9), (9, 2), (6, 6), (1, 1)]:
        assert part.build("heuristic2d", None, (m, n)).c == max(m, n)


def test_sqrt_heuristic_subset_size():
    # sqrt(400)/2 = 10, for a vector and for a tensor of more than two axes
    for shape in ((400,), (4, 10, 10)):
        p = part.build("heuristic2d", None, shape)
        assert (p.d, p.k, p.columns) == (400, 10, False)


def test_subset_sqnorms_hand_example():
    p = part.Partition(4, 2)
    np.testing.assert_array_equal(
        part.subset_sqnorms(p, np.array([3.0, 4.0, 0.0, 0.0])), [25.0, 0.0])


def test_subset_sqnorms_zero_and_norm_reduction():
    p1 = part.Partition(5, 5)
    g = np.arange(5.0)
    np.testing.assert_array_equal(part.subset_sqnorms(p1, np.zeros(5)), [0.0])
    assert part.subset_sqnorms(p1, g)[0] == g @ g


def test_subset_sqnorms_length_mismatch():
    with pytest.raises(ValueError):
        part.subset_sqnorms(part.Partition(3, 3), np.ones(4))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300), st.integers(1, 20), st.integers(0, 2 ** 32 - 1))
def test_partition_properties(d, k, seed):
    p = part.Partition(d, min(d, k))
    sizes = _sizes(p)
    assert sizes.sum() == d
    assert sizes.shape == (p.c,)
    assert np.all(sizes > 0)  # all subsets non-empty
    g = np.random.default_rng(seed).standard_normal(d)
    sq = part.subset_sqnorms(p, g)
    assert np.all(sq >= 0)
    assert abs(sq.sum() - g @ g) <= 1e-12 * max(1.0, g @ g)


def test_scale_grouping_permutation_invariance():
    # shuffling coordinates inside one subset leaves subset norms unchanged
    p = part.Partition(8, 4)
    rng = np.random.default_rng(0)
    g = rng.standard_normal(8)
    g2 = g.copy()
    g2[:4] = g[rng.permutation(4)]
    np.testing.assert_allclose(part.subset_sqnorms(p, g),
                               part.subset_sqnorms(p, g2), atol=1e-12)
