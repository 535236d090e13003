import contextlib
import hashlib
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexchain import counting
from convexchain.counting import (
    CountTable,
    _check_rebuilt,
    _count_sweep,
    _dp_cost_estimate,
    _garner,
    _live_rect,
    _maximal_candidates,
    _rebuild,
    _shifts,
    brute_force_enum,
    count_lines_k,
    max_vertices,
)
from convexchain.lattice import MultiplicityDistribution, primitive_vectors_in_box
from oracles import count_sweep, max_vertices_sweep, rebuild_check
from paper import erdos_lehner_ratio

LENGTH_CAP = 15.0


def bigint_count_entries(n1, n2, kmax):
    """The pure-Python big-int fold the numpy sweep replaced, kept as the
    exactness oracle: the same layered DP with every cell a Python int.

    Each vector v is folded in by adding, for every multiplicity m >= 1, the
    shift of layer[j-1] by m*v, reading layer[j-1] before it is touched (j
    runs downward), so v contributes to exactly one support slot.
    """
    width = n2 + 1
    layers = [[[0] * width for _ in range(n1 + 1)] for _ in range(kmax + 1)]
    layers[0][0][0] = 1

    for p, q in primitive_vectors_in_box(n1, n2):
        for j in range(kmax, 0, -1):
            src = layers[j - 1]
            dst = layers[j]
            m = 1
            while m * p <= n1 and m * q <= n2:
                dp, dq = m * p, m * q
                w = width - dq
                for a in range(dp, n1 + 1):
                    row_d = dst[a]
                    row_s = src[a - dp]
                    row_d[dq:] = [x + y for x, y in zip(row_d[dq:], row_s[:w])]
                m += 1

    entries = {}
    for j in range(1, kmax + 1):
        lay = layers[j]
        for a in range(n1 + 1):
            row = lay[a]
            for b in range(n2 + 1):
                if row[b]:
                    entries[(a, b, j)] = row[b]
    return entries


def count_by_length(Lmax, order="slope"):
    """Counts of lines from the origin (any endpoint) with Euclidean length
    < Lmax, bucketed by (floor(length), K).  Empty line excluded.

    `order` picks the DFS vector ordering ("slope" or "length"); the buckets
    must not depend on it, which the tests exercise as a cross-check.
    """
    if Lmax <= 0:
        raise ValueError("Lmax must be positive")
    if Lmax > LENGTH_CAP:
        raise ValueError(f"enumeration capped at Lmax = {LENGTH_CAP}")
    box = int(math.floor(Lmax))
    vecs = [
        (p, q)
        for p, q in primitive_vectors_in_box(max(box, 1), max(box, 1))
        if math.hypot(p, q) <= Lmax
    ]
    if order == "slope":
        pass  # already slope-sorted
    elif order == "length":
        vecs = sorted(vecs, key=lambda v: (math.hypot(v[0], v[1]), v))
    else:
        raise ValueError(f"unknown order {order!r}")
    norms = [math.hypot(p, q) for p, q in vecs]

    buckets = {}

    def rec(i, length, k):
        if k > 0:
            key = (int(math.floor(length)), k)
            buckets[key] = buckets.get(key, 0) + 1
        for j in range(i, len(vecs)):
            step = norms[j]
            if length + step > Lmax:
                continue
            m = 1
            while length + m * step <= Lmax:
                rec(j + 1, length + m * step, k + 1)
                m += 1

    rec(0, 0.0, 0)
    return buckets


# Exact values from the independent max-vertices DP, spot-checked by hand
# (e.g. 12 distinct primitive directions already need coordinate sum >= 44,
# so M(20,20) = 11 is provably right).
MAX_VERTICES_KNOWN = {
    (1, 1): 2,
    (1, 2): 2,
    (2, 2): 3,
    (3, 3): 3,
    (4, 4): 4,
    (5, 5): 5,
    (10, 10): 7,
    (20, 20): 11,
}


@pytest.fixture(scope="module")
def table8():
    return count_lines_k(8, 8, 10)


def test_tiny_counts(table8):
    assert {k: table8.p(1, 1, k) for k in (1, 2)} == {1: 1, 2: 1}
    assert {k: table8.p(2, 2, k) for k in (1, 2, 3)} == {1: 1, 2: 3, 3: 1}
    for n in range(1, 9):
        assert table8.p(n, n, 1) == 1


def test_oracle_equivalence_small(table8):
    for n1, n2 in [(1, 1), (2, 2), (3, 3), (2, 5), (4, 3), (5, 5)]:
        by_k = Counter(om.vertex_count for om in brute_force_enum(n1, n2))
        dp = {k: table8.p(n1, n2, k) for k in range(1, 11) if table8.p(n1, n2, k)}
        assert dp == dict(by_k), (n1, n2)


def test_brute_force_is_duplicate_free():
    lines = brute_force_enum(4, 4)
    assert len(lines) == len({tuple(om.support.items()) for om in lines})
    assert all(om.endpoint() == (4, 4) for om in lines)


def test_brute_force_cap():
    with pytest.raises(ValueError):
        brute_force_enum(13, 2)


def test_symmetry(table8):
    for n1 in range(1, 9):
        for n2 in range(1, 9):
            for k in range(1, 11):
                assert table8.p(n1, n2, k) == table8.p(n2, n1, k)


def test_totals_match_sum_over_k(table8):
    for n1, n2 in [(3, 3), (6, 4), (8, 8)]:
        total = sum(table8.p(n1, n2, k) for k in range(1, table8.kmax + 1))
        assert total == len(brute_force_enum(n1, n2))


def test_support_window(table8):
    # p(n,n;k) > 0 exactly for 1 <= k <= M(n,n)
    for n in (2, 3, 4, 5, 8):
        m = max_vertices(n, n)
        for k in range(1, 11):
            assert (table8.p(n, n, k) > 0) == (1 <= k <= m), (n, k)


def test_max_vertices_known_values():
    for (n1, n2), m in MAX_VERTICES_KNOWN.items():
        assert max_vertices(n1, n2) == m


def test_max_vertices_matches_brute_force():
    for n1, n2 in [(1, 1), (3, 2), (4, 4), (6, 5)]:
        best = max(om.vertex_count for om in brute_force_enum(n1, n2))
        assert max_vertices(n1, n2) == best


# the skinny boxes are where both the cone and the strip bound bite
@pytest.mark.parametrize("box", [(200, 200), (300, 100), (100, 300), (400, 40), (40, 400),
                                 (1, 300), (300, 1)])
def test_max_vertices_matches_the_full_sweep(box):
    assert max_vertices(*box) == max_vertices_sweep(*box)


def test_max_vertices_matches_the_full_sweep_on_every_small_box():
    for n1 in range(1, 31):
        for n2 in range(1, 31):
            assert max_vertices(n1, n2) == max_vertices_sweep(n1, n2), (n1, n2)


def test_maximal_lines_use_only_kept_vectors():
    for n1 in range(1, 9):
        for n2 in range(1, 9):
            kept = set(map(tuple, _maximal_candidates(n1, n2)[0].tolist()))
            lines = brute_force_enum(n1, n2)
            most = max(om.vertex_count for om in lines)
            for om in lines:
                if om.vertex_count == most:
                    assert set(om.support) <= kept, (n1, n2, om.support)


@pytest.mark.parametrize("box", [(1, 1), (1, 30), (30, 1), (8, 5), (20, 20), (200, 200), (300, 100)])
def test_lightest_prefix_is_a_line(box):
    n1, n2 = box
    kept, lightest = _maximal_candidates(*box)
    support = {tuple(v): 1 for v in lightest.tolist()}
    rest = (n1, n2) - lightest.sum(axis=0)
    support[(1, 0)] += int(rest[0])  # the axes absorb the remainder
    support[(0, 1)] += int(rest[1])
    om = MultiplicityDistribution(support)
    assert om.endpoint() == box
    assert om.vertex_count == len(lightest) <= max_vertices(*box)
    # a line with |lightest| vertices meets the bound that keeps a vector
    assert set(map(tuple, lightest.tolist())) <= set(map(tuple, kept.tolist()))


def test_layers_stop_at_the_longest_line():
    # no line to (a, b) has more than a + b vertices: a kmax far past it
    # sweeps n1 + n2 layers, under a kilobyte of cells
    want = count_lines_k(3, 3, 6).entries
    tracemalloc.start()
    try:
        table = count_lines_k(3, 3, 2 * 10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.entries == want and table.kmax == 2 * 10**8
    assert peak < 2**20


@pytest.mark.parametrize("call, value", [
    (lambda: count_lines_k(2.0, 2, 1), "2.0"),
    (lambda: count_lines_k(2, "2", 1), "'2'"),
    (lambda: count_lines_k(2, 2, 1.0), "1.0"),
    (lambda: count_lines_k(2, 2, None), "None"),
    (lambda: max_vertices(2.5, 2), "2.5"),
    (lambda: max_vertices(2, np.float64(2.0)), "np.float64(2.0)"),
    (lambda: brute_force_enum(2, 2.0), "2.0"),
    (lambda: primitive_vectors_in_box(None, 2), "None"),
])
def test_non_integer_sides_are_refused(call, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(value)} is not an integer$"):
        call()


def test_integer_sides_of_any_type_are_kept():
    assert max_vertices(True, 1) == max_vertices(1, 1) == 2
    assert max_vertices(np.int64(20), np.uint16(20)) == 11
    table = count_lines_k(np.int32(4), np.int64(3), np.uint8(5))
    assert table.entries == count_lines_k(4, 3, 5).entries
    assert (table.n1, table.n2, table.kmax) == (4, 3, 5)
    assert brute_force_enum(np.int64(3), 3) == brute_force_enum(3, 3)
    assert primitive_vectors_in_box(np.int16(5), 5) == primitive_vectors_in_box(5, 5)


def test_resource_guard(monkeypatch):
    monkeypatch.setattr(counting, "COUNT_OP_BUDGET", 1000)
    with pytest.raises(ResourceWarning, match="budget"):
        count_lines_k(60, 60, 8)
    with pytest.raises(ResourceWarning):
        max_vertices(500, 500)


def test_erdos_lehner_trivial():
    assert erdos_lehner_ratio(1, 1) == 1.0


def test_two_edge_count_closed_form():
    # a 2-edge line is determined by its first edge (v, m): the remainder to
    # (n,n) then fixes the second edge, and the slope constraint reduces to
    # v1 > v2.  So p(n,n;2) = sum over primitive v1>v2 of floor(n/v1).
    for n in (10, 25, 60):
        expected = 0
        for v1 in range(1, n + 1):
            for v2 in range(v1):
                if math.gcd(v1, v2) == 1:
                    expected += n // v1
        assert count_lines_k(n, n, 2).p(n, n, 2) == expected


def test_frozen_counts_at_sixty():
    # frozen from two independent enumerations (closed-form first-edge sum for
    # k=2; first-edge x second-edge loop for k=3) that both match the table
    tab = count_lines_k(60, 60, 3)
    assert tab.p(60, 60, 2) == 1830
    assert tab.p(60, 60, 3) == 589670
    assert count_lines_k(30, 30, 3).p(30, 30, 3) == 39585


def test_erdos_lehner_uses_table():
    tab = count_lines_k(10, 10, 3)
    r = erdos_lehner_ratio(10, 2, table=tab)
    assert r == erdos_lehner_ratio(10, 2)
    assert 0.5 < r < 1.5


def test_count_by_length_smallest_bucket():
    assert count_by_length(1.5) == {(1, 1): 3}


def test_count_by_length_excludes_empty_line():
    buckets = count_by_length(3.2)
    assert all(k >= 1 for (_, k) in buckets)
    assert all(b >= 1 for (b, _) in buckets)  # bucket 0 empty: length >= 1


def test_count_by_length_order_invariance():
    assert count_by_length(10.0, "slope") == count_by_length(10.0, "length")


def test_count_by_length_caps():
    with pytest.raises(ValueError):
        count_by_length(20.0)
    with pytest.raises(ValueError):
        count_by_length(5.0, "sideways")


@pytest.mark.parametrize("n1, n2", [(1, 1), (1, 40), (40, 1), (17, 45), (30, 30)])
def test_shifts_are_the_box_points_and_price_the_sweep(n1, n2):
    # the float pass's error bound and the closed-form cost both rest on the
    # shifts m*v being the nonzero points of the box, each exactly once
    shifts = [(m * p, m * q) for p, q, M in _shifts(n1, n2, primitive_vectors_in_box(n1, n2))
              for m in range(1, M + 1)]
    assert sorted(shifts) == [(a, b) for a in range(n1 + 1) for b in range(n2 + 1) if a or b]
    cells = sum((n1 - a + 1) * (n2 - b + 1) for a, b in shifts)
    assert _dp_cost_estimate(n1, n2, 3) == 3 * cells


@pytest.mark.parametrize("n1, n2", [(1, 1), (1, 40), (40, 1), (17, 45), (30, 30)])
def test_bounded_sweeps_update_no_more_cells_than_the_price(n1, n2):
    # each sweep updates, per shift, the rectangle `_live_rect` gives it; the
    # budget's closed form prices the unbounded sweep, so it bounds them all
    def cells(vectors, strip):
        total = 0
        for p, q, M in _shifts(n1, n2, vectors):
            first, cols = _live_rect(n1, n2, (p, q), strip)
            for m in range(1, M + 1):
                dp, dq = m * p, m * q
                assert first + dp <= n1 and cols >= 1
                total += (n1 + 1 - first - dp) * min(cols, n2 + 1 - dq)
        return total

    assert 3 * cells(primitive_vectors_in_box(n1, n2), False) <= _dp_cost_estimate(n1, n2, 3)
    assert cells(_maximal_candidates(n1, n2)[0].tolist(), True) <= _dp_cost_estimate(n1, n2, 1)


# One table per box shape covers every sub-box: square, both skinny
# orientations and the one-row / one-column edge cases.
ORACLE_BOXES = [(30, 30, 12), (45, 17, 8), (17, 45, 8), (1, 40, 3), (40, 1, 3)]


@pytest.mark.parametrize("box", ORACLE_BOXES)
def test_sweep_matches_bigint_oracle(box):
    assert count_lines_k(*box).entries == bigint_count_entries(*box)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(1, 14), st.integers(1, 8))
def test_sweep_matches_bigint_oracle_property(n1, n2, kmax):
    assert count_lines_k(n1, n2, kmax).entries == bigint_count_entries(n1, n2, kmax)


def _oracle_array(n1, n2, kmax):
    want = np.zeros((kmax + 1, n1 + 1, n2 + 1), dtype=object)
    want[0, 0, 0] = 1
    for (a, b, j), c in bigint_count_entries(n1, n2, kmax).items():
        want[j, a, b] = c
    return want


@pytest.mark.parametrize("modulus", [3, 65537, 4294967291])
@pytest.mark.parametrize("box", [(30, 30, 12), (17, 45, 8)])
def test_prime_residue_sweep_matches_oracle(box, modulus):
    residues = _count_sweep(*box, np.uint64, modulus)
    assert residues.max() < modulus
    assert (residues.astype(object) == _oracle_array(*box) % modulus).all()


# The unbounded sweep of `oracles.count_sweep` makes the same additions in
# the same order plus only += 0, so the bounded, interleaved sweep keeps its
# bits: the square and both skinny boxes, one row and one column, more
# layers than any line has, and (70, 70, 16), whose float pass is inexact.
BIT_BOXES = ORACLE_BOXES + [(6, 4, 14), (70, 70, 16)]


@pytest.mark.parametrize("box", BIT_BOXES)
def test_sweep_keeps_the_unbounded_sweeps_bits(box):
    flt, want = _count_sweep(*box, np.float64), count_sweep(*box, np.float64)
    assert flt.shape == want.shape == (box[2] + 1, box[0] + 1, box[1] + 1)
    assert (flt.view(np.uint64) == want.view(np.uint64)).all()
    for modulus in (0, 4294967291):
        got = _count_sweep(*box, np.uint64, modulus)
        assert (got == count_sweep(*box, np.uint64, modulus)).all(), modulus
    if box == (70, 70, 16):
        assert flt.max() > 2**53


@contextlib.contextmanager
def _bufsize(size):
    old = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(old)


# the caller's own ufunc buffer size: numpy's default, or one it set itself
CALLER_BUFSIZES = [np.getbufsize(), 4096]


@pytest.mark.parametrize("caller", CALLER_BUFSIZES)
def test_sweeps_run_under_their_buffer_and_give_the_callers_back(monkeypatch, caller):
    seen, live_rect = [], counting._live_rect

    def spy(*args, **kwargs):
        seen.append(np.getbufsize())
        return live_rect(*args, **kwargs)

    monkeypatch.setattr(counting, "_live_rect", spy)
    with _bufsize(caller):
        # (70, 70, 16) needs the float and uint64 passes; (30, 30, 12) at a
        # bound of 2^130 the prime passes as well
        count_lines_k(70, 70, 16)
        assert np.getbufsize() == caller
        _rebuild(30, 30, 12, _count_sweep(30, 30, 12, np.float64), 2**130)
        assert np.getbufsize() == caller
        assert seen and set(seen) == {counting._SWEEP_BUFSIZE}
        seen.clear()
        max_vertices(60, 60)  # runs under the caller's buffer
        assert seen and set(seen) == {caller}


@pytest.mark.parametrize("caller", CALLER_BUFSIZES)
@pytest.mark.parametrize("calls", [1, 20])
def test_a_sweep_that_raises_gives_the_callers_buffer_back(monkeypatch, caller, calls):
    live_rect = counting._live_rect

    def fail_on_nth(*args, **kwargs):
        fail_on_nth.calls += 1
        if fail_on_nth.calls == calls:
            raise RuntimeError("stopped")
        return live_rect(*args, **kwargs)

    fail_on_nth.calls = 0
    monkeypatch.setattr(counting, "_live_rect", fail_on_nth)
    with _bufsize(caller):
        with pytest.raises(RuntimeError, match="stopped"):
            count_lines_k(30, 30, 12)
        assert np.getbufsize() == caller


def test_rebuild_past_64_bits_matches_oracle():
    # a bound of 2^130 forces the residues mod 2^64 and three primes through
    # Garner's CRT on a box small enough for the oracle
    box = (30, 30, 12)
    exact = _rebuild(*box, _count_sweep(*box, np.float64), 2**130)
    assert (exact == _oracle_array(*box)).all()


def test_rebuild_refuses_a_disagreeing_float_pass():
    box = (17, 45, 8)
    flt = _count_sweep(*box, np.float64)
    flt[5, 17, 45] += 1
    with pytest.raises(ArithmeticError, match="disagrees"):
        _rebuild(*box, flt, 2**70)


def _verdict(check, *args):
    """None if the check passes, else its ArithmeticError's message."""
    try:
        check(*args)
    except ArithmeticError as err:
        return str(err)
    return None


def test_rebuilt_check_matches_the_loop_on_62_bit_counts():
    box, adds = (100, 100, 10), 101 * 101 - 1
    flt = _count_sweep(*box, np.float64)
    exact = _garner([_count_sweep(*box, np.uint64)], [2**64])
    assert max(exact.flat).bit_length() == 62
    assert _verdict(_check_rebuilt, *box, exact, flt) is None
    assert _verdict(rebuild_check, *box, exact, flt) is None
    # floats 1024 short of a cell's bound, then 1024 past it at two cells
    # (58 to 61 bits, so ulps of 32 to 256): the first failing cell is named
    for cell, by in [((9, 100, 98), -1024), ((9, 100, 99), 1024), ((10, 99, 100), 1024)]:
        x = exact[cell]
        flt[cell] = float(x + (x * adds >> 52) + by)
    got = _verdict(_check_rebuilt, *box, exact, flt)
    assert got == _verdict(rebuild_check, *box, exact, flt)
    assert f"rebuilt count {exact[9, 100, 99]} " in got


def test_rebuilt_check_matches_the_loop_past_64_bits():
    box = (30, 30, 12)
    flt = _count_sweep(*box, np.float64)
    exact = _rebuild(*box, flt, 2**130)  # residues mod 2^64 and three primes
    assert _verdict(rebuild_check, *box, exact, flt) is None
    # the same layers scaled past 2^64, against a float pass off by one part
    # in 2^40: every nonzero cell fails, and the first one, the origin, is named
    big, off = exact << 70, (flt * 2.0**70) * (1 + 2.0**-40)
    got = _verdict(_check_rebuilt, *box, big, off)
    assert got == _verdict(rebuild_check, *box, big, off)
    assert f"rebuilt count {2**70} " in got


# (x, f, passes) for box (1, 1), whose adds is 3: |x - f| * 2^52 == x * adds
# passes and one unit more fails, below and above x, below 2^53 and past 2^64
BOUNDARY = [(2**52, 2**52 - 3, True), (2**52, 2**52 - 4, False),
            (2**52, 2**52 + 3, True), (2**52, 2**52 + 4, False),
            (2**70, 2**70 + 3 * 2**18, True), (2**70 - 1, 2**70 + 3 * 2**18, False),
            (2**70, 2**70 - 3 * 2**18, True), (2**70 + 1, 2**70 - 3 * 2**18, False),
            (0, 0, True), (0, 1, False)]


@pytest.mark.parametrize("x, f, passes", BOUNDARY)
def test_rebuilt_check_decides_the_boundary_as_the_loop(x, f, passes):
    # a passing cell before, a failing one (9 against 1.0) after
    exact = np.array([[5, x], [9, 7]], dtype=object)
    flt = np.array([[5.0, f], [1.0, 7.0]], dtype=np.float64)
    assert flt[0, 1] == f
    got = _verdict(_check_rebuilt, 1, 1, 1, exact, flt)
    assert got == _verdict(rebuild_check, 1, 1, 1, exact, flt)
    assert ("rebuilt count 9 " in got) == passes


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 400), st.integers(1, 400), st.integers(0, 2**90), st.integers(-4, 4),
       st.booleans())
def test_rebuilt_check_decides_near_the_bound_as_the_loop(n1, n2, x, by, below):
    adds = (n1 + 1) * (n2 + 1) - 1
    f = float(x + (-1) ** below * ((x * adds >> 52) + by))
    exact, flt = np.array([x], dtype=object), np.array([f])
    assert _verdict(_check_rebuilt, n1, n2, 1, exact, flt) == \
        _verdict(rebuild_check, n1, n2, 1, exact, flt)


# (6, 4, 14) has int64 layers and kmax past n1 + n2; the counts of
# (70, 70, 16) reach 56 bits, past the float pass, so its layers hold Python
# ints.  An index past either end of the box, k = 0, or k past n1 + n2 or
# kmax reads 0 and never a wrapped cell.
@pytest.mark.parametrize("box, dtype", [((6, 4, 14), np.int64), ((70, 70, 16), object)])
def test_table_reads_its_layers_behind_a_bounds_check(box, dtype):
    n1, n2, kmax = box
    table = count_lines_k(*box)
    assert "entries" not in vars(table)  # derived on first read only
    assert table.layers.dtype == dtype and not table.layers.flags.writeable
    assert table.layers.shape == (min(kmax, n1 + n2) + 1, n1 + 1, n2 + 1)
    assert table.p(n1, n2, 2) > 0
    for a, b, k in [(-1, n2, 2), (n1, -1, 2), (n1 + 1, n2, 2), (n1, n2 + 1, 2),
                    (0, 0, 0), (n1, n2, 0), (n1, n2, -1), (n1, n2, n1 + n2 + 1),
                    (n1, n2, kmax + 1)]:
        assert table.p(a, b, k) == 0, (a, b, k)


@pytest.mark.parametrize("box", [(6, 4, 14), (30, 30, 12)])
def test_csv_rows_are_the_oracles_sorted_counts(box):
    want = bigint_count_entries(*box)
    rows = [(a, b, k, str(c)) for (a, b, k), c in sorted(want.items())]
    # the same layers as Python ints, as `_rebuild` gives them past 2^53
    rebuilt = CountTable(*box, _rebuild(*box, _count_sweep(*box, np.float64), 2**130))
    for table in (count_lines_k(*box), rebuilt):
        assert list(table.csv_rows()) == rows
        assert table.entries == want


# sha256 of csv_rows() of the big-int oracle's table for (100, 100, 14),
# whose largest counts need 71 bits: the uint64 + one-prime CRT path
P100_DIGEST = "7bd16efadb7863d5158b6b327c6c9111bf8999de4d40a5fc4a75fa8d2d89d1f6"
P100_K14 = 1342913338029167466334


@pytest.mark.slow
def test_counts_past_64_bits_match_frozen_oracle():
    table = count_lines_k(100, 100, 14)
    h = hashlib.sha256()
    for row in table.csv_rows():
        h.update((",".join(map(str, row)) + "\n").encode())
    assert table.p(100, 100, 14) == P100_K14
    assert max(table.entries.values()) >= 2**64
    assert h.hexdigest() == P100_DIGEST


def test_max_vertices_fits_the_budget_at_300():
    # frozen from the previous int64 sweep run with its budget lifted
    assert max_vertices(300, 300) == 63
