import io
import json
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexchain import cli, lattice
from convexchain.gibbs import EnergyModel, GibbsParams, sample_omega
from convexchain.lattice import (
    ConvexPolyline,
    MultiplicityDistribution,
    _mask_rows,
    _primitive_grid,
    omega_to_polyline,
    primitive_vectors_in_box,
    slope_sorted,
)
from convexchain.shapes import ShapeCurve, hausdorff_distance, normalize
from convexchain.tolerances import SITE_BUDGET
from oracles import (
    check_polyline,
    check_support,
    polyline_json,
    polyline_of_support,
    polyline_to_omega,
    primitive_grid_gcd,
    primitive_vectors_by_weight,
    slope_sorted_exact,
)


def _read_line(text):
    """The line that `shape-distance --line -` reads from `text` on stdin."""
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        return cli._load_polyline("-")


def _grid_rows(n1, n2):
    """Each `_primitive_grid` block as the int64 (x1, x2) arrays of its
    mask's true cells, row-major."""
    for x0, keep in _primitive_grid(n1, n2):
        assert keep.dtype == bool and keep.ndim == 2
        yield _mask_rows(x0, keep)[:2]


def _grid_count(n1, n2):
    return sum(int(np.count_nonzero(keep)) for _, keep in _primitive_grid(n1, n2))


def test_box_small_examples():
    assert primitive_vectors_in_box(1, 1) == [(1, 0), (1, 1), (0, 1)]
    assert primitive_vectors_in_box(2, 2) == [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1)]


def test_box_count_100():
    # 2*sum(phi(k), k<=100) - 1 interior coprime pairs, plus (1,0) and (0,1)
    assert _grid_count(100, 100) == 6089
    assert len(primitive_vectors_in_box(100, 100)) == 6089


def test_box_matches_gcd_filter():
    n1, n2 = 13, 7
    expected = {
        (a, b)
        for a in range(n1 + 1)
        for b in range(n2 + 1)
        if math.gcd(a, b) == 1
    }
    got = primitive_vectors_in_box(n1, n2)
    assert set(got) == expected
    assert len(got) == len(expected)


def test_slope_order_strict_cross_products():
    vecs = primitive_vectors_in_box(40, 40)
    for u, v in zip(vecs, vecs[1:]):
        assert u[0] * v[1] - u[1] * v[0] > 0, (u, v)


@pytest.mark.parametrize("n1, n2", [(200, 200), (1, 5000), (5000, 1), (523, 97)])
def test_float_slope_key_orders_exactly(n1, n2):
    # the float key x2/x1 against the exact integer cross product on every
    # adjacent pair, in square, flat, tall and lopsided boxes
    vecs = np.array(primitive_vectors_in_box(n1, n2), dtype=np.int64)
    u, v = vecs[:-1], vecs[1:]
    assert np.all(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0] > 0)
    assert tuple(vecs[0]) == (1, 0) and tuple(vecs[-1]) == (0, 1)
    assert len(vecs) == _grid_count(n1, n2)


def test_grid_is_row_major_and_matches_gcd():
    rows = list(_grid_rows(37, 11))
    x1 = np.concatenate([r[0] for r in rows])
    x2 = np.concatenate([r[1] for r in rows])
    expected = [(a, b) for a in range(38) for b in range(12) if math.gcd(a, b) == 1]
    assert list(zip(x1.tolist(), x2.tolist())) == expected
    # a tall box comes one row per block: rows 0..3 hold 1, all, the odd and
    # the non-multiples of 3 among 0..n2
    n2 = 2_100_000
    rows = list(_grid_rows(3, n2))
    assert [np.unique(x1).tolist() for x1, _ in rows] == [[0], [1], [2], [3]]
    assert [x2.size for _, x2 in rows] == [1, n2 + 1, n2 // 2, n2 + 1 - (n2 // 3 + 1)]
    assert all(np.all(np.diff(x2) > 0) for _, x2 in rows)


# 64-cell blocks: 8 rows of an n2 = 7 box, 2 of n2 = 31, 1 from n2 = 32 on
@pytest.mark.parametrize("n1, n2", [
    (0, 9), (9, 0), (0, 0), (1, 9), (9, 1), (1, 1),  # axes and unit sides
    (13, 17), (31, 7), (2, 3),  # prime sides
    (6, 7), (7, 7), (8, 7), (15, 7), (16, 7),  # either side of a row block
    (5, 30), (5, 31), (5, 32), (4, 63), (4, 64),  # either side of a one-row block
    (2000, 7),
])
def test_sieve_matches_the_gcd_grid_block_by_block(monkeypatch, n1, n2):
    monkeypatch.setattr(lattice, "_GRID_BLOCK", 64)
    got = list(_grid_rows(n1, n2))
    want = list(primitive_grid_gcd(n1, n2, block_cells=64))
    assert len(got) == len(want)
    for (x1, x2), (w1, w2) in zip(got, want):
        assert x1.dtype == w1.dtype == np.int64 and x2.dtype == w2.dtype == np.int64
        np.testing.assert_array_equal(x1, w1)
        np.testing.assert_array_equal(x2, w2)


def test_oversized_grid_refused_up_front():
    side = math.isqrt(SITE_BUDGET)
    with pytest.raises(ResourceWarning, match="over the budget"):
        primitive_vectors_in_box(side, side)


def test_density_towards_6_over_pi_squared():
    n = 2000
    density = _grid_count(n, n) / n**2
    target = 6 / np.pi**2
    assert abs(density - target) / target < 0.01


def test_by_weight_examples():
    assert set(primitive_vectors_by_weight(lambda a, b: a + b, 2)) == {
        (1, 0),
        (0, 1),
        (1, 1),
    }
    assert set(primitive_vectors_by_weight(lambda a, b: math.hypot(a, b), 2.3)) == {
        (1, 0),
        (0, 1),
        (1, 1),
        (2, 1),
        (1, 2),
    }


def test_by_weight_density():
    cutoff = 4000.0
    n = sum(1 for _ in primitive_vectors_by_weight(lambda a, b: a + b, cutoff))
    target = 6 / np.pi**2 * cutoff**2 / 2
    assert abs(n - target) / target < 0.01


def test_by_weight_agrees_with_box_filter():
    got = set(primitive_vectors_by_weight(lambda a, b: 0.3 * a + 0.7 * b, 6.0))
    expected = {
        (a, b)
        for (a, b) in primitive_vectors_in_box(20, 9)
        if 0.3 * a + 0.7 * b <= 6.0
    }
    assert got == expected


def test_by_weight_rejects_bad_energy():
    with pytest.raises(ValueError):
        list(primitive_vectors_by_weight(lambda a, b: a - 2 * b, 5.0))
    with pytest.raises(ValueError):
        list(primitive_vectors_by_weight(lambda a, b: a + b, -1.0))


def test_primitive_convention():
    assert MultiplicityDistribution({(1, 0): 1, (0, 1): 1}).vertex_count == 2
    for x in [(0, 0), (2, 4), (0, 2), (-1, 0)]:
        with pytest.raises(ValueError, match="not a primitive vector"):
            MultiplicityDistribution({x: 1})


def test_omega_to_polyline_examples():
    assert omega_to_polyline(MultiplicityDistribution({(1, 1): 2})).vertices == (
        (0, 0),
        (2, 2),
    )
    assert omega_to_polyline(
        MultiplicityDistribution({(1, 0): 1, (0, 1): 1})
    ).vertices == ((0, 0), (1, 0), (1, 1))
    assert omega_to_polyline(
        MultiplicityDistribution({(2, 1): 1, (1, 2): 3})
    ).vertices == ((0, 0), (2, 1), (5, 7))
    # partial sums past int64, and directions past it
    assert omega_to_polyline(
        MultiplicityDistribution({(1, 1): 2**62, (1, 0): 2**62})
    ).vertices == ((0, 0), (2**62, 0), (2**63, 2**62))
    assert omega_to_polyline(
        MultiplicityDistribution({(1, 1): 2, (2**70, 1): 1})
    ).vertices == ((0, 0), (2**70, 1), (2**70 + 2, 3))


def test_polyline_to_omega_examples():
    assert polyline_to_omega(ConvexPolyline(((0, 0), (2, 2)))) == (
        MultiplicityDistribution({(1, 1): 2})
    )
    assert polyline_to_omega(ConvexPolyline(((0, 0), (1, 0), (1, 1)))) == (
        MultiplicityDistribution({(1, 0): 1, (0, 1): 1})
    )


_COORD = st.sampled_from([2**4, 2**31, 2**40, 2**64]).flatmap(lambda n: st.integers(0, n))


@st.composite
def _vertex_lists(draw):
    """Vertices of a convex polyline with steps on both sides of 2^31 and
    sums past 2^63, or of one broken first, in the middle or last."""
    steps = slope_sorted_exact(draw(st.lists(st.tuples(_COORD, _COORD), max_size=8)))
    if steps:
        i = draw(st.sampled_from([0, len(steps) // 2, len(steps) - 1]))
        flaw = draw(st.sampled_from(["none", "zero", "negative", "parallel", "swap"]))
        if flaw == "zero":
            steps[i] = (0, 0)
        elif flaw == "negative":
            steps[i] = (steps[i][0], -1 - steps[i][1])
        elif flaw == "parallel" and i:
            steps[i] = (2 * steps[i - 1][0], 2 * steps[i - 1][1])
        elif flaw == "swap" and i:
            steps[i - 1], steps[i] = steps[i], steps[i - 1]
    verts = [(0, 0)]
    for a, b in steps:
        verts.append((verts[-1][0] + a, verts[-1][1] + b))
    if draw(st.integers(0, 9)) == 0:
        verts[0] = (1, 0)
    return verts


@settings(deadline=None, max_examples=300)
@given(_vertex_lists())
@example([])
@example([(1, 0), (2, 1)])
@example([(0, 0), (1, 1), (3, 0)])  # a quadrant and a slope error on edge 1
@example([(0, 0), (2**31, 1), (2**32, 2)])  # parallel past 2^31
@example([(0, 0), (2**64, 1), (2**64, 2**64)])
@example([(0, 0), (3 * 2**61, 1), (-(2**62), 2)])  # a step of -5 * 2^61
@example([(0, 0, 5), (1, 1, 9)])  # a row of three values
def test_polyline_validation_matches_the_oracle(verts):
    try:
        want = check_polyline(verts)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            ConvexPolyline(verts)
        assert str(got.value) == str(exc)
    else:
        line = ConvexPolyline(verts)
        assert line.vertices == want
        assert all(type(c) is int for p in line.vertices for c in p)
        assert _read_line(polyline_json(line)) == line


def test_polyline_validation_names_bad_edge():
    with pytest.raises(ValueError, match="edge 1"):
        # slopes 1 then 1/2: decreasing
        ConvexPolyline(((0, 0), (1, 1), (3, 2)))
    with pytest.raises(ValueError, match="start"):
        ConvexPolyline(((1, 0), (2, 1)))
    with pytest.raises(ValueError, match="edge 0"):
        ConvexPolyline(((0, 0), (0, 0), (1, 1)))


def test_multiplicity_normalization_and_validation():
    om = MultiplicityDistribution({(1, 0): 2, (1, 1): 0})
    assert om.support == {(1, 0): 2}
    assert om.vertex_count == 1
    with pytest.raises(ValueError):
        MultiplicityDistribution({(2, 4): 1})
    with pytest.raises(ValueError):
        MultiplicityDistribution({(1, 1): -2})


_BIG = [2**62, 2**63, 2**64 + 1, 3**41]
# mostly valid entries, with non-primitive, negative and past-int64 ones
_KEYS = st.one_of(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                  st.tuples(st.sampled_from([-1, 0, 1, 2, *_BIG]),
                            st.sampled_from([0, 1, 2, *_BIG])))
_MULTS = st.one_of(st.integers(0, 5), st.sampled_from([-1, -(2**70), 2**63, 7**30]))


def _array_form(support):
    return (np.array(list(support), dtype=object).reshape(-1, 2),
            np.array(list(support.values()), dtype=object))


@settings(deadline=None, max_examples=300)
@given(st.dictionaries(_KEYS, _MULTS, max_size=10))
@example({(2, 4): 1, (1, 0): 1, (0, 1): 1})  # a bad entry first,
@example({(1, 0): 1, (1, 1): -2, (0, 1): 1})  # in the middle
@example({(1, 0): 1, (0, 1): 1, (3, 6): 2})  # and last
@example({(2, 2): 1, (1, 0): -1})  # of two, the first in input order
@example({(1, 0): -1, (2, 2): 1})
@example({(2, 4): 0, (-1, 3): 0, (0, 0): 0, (1, 2): 1})  # zeros are dropped, not refused
@example({(np.int64(3), np.int32(2)): np.int64(4), (np.uint64(1), np.int8(0)): np.uint8(1)})
@example({(2**64 + 1, 2**64): 3, (1, 0): 2**63, (3**41, 2): 1})  # the object path
@example({(2**64, 2**64): 1})
@example({(1, 1): -(2**70)})
@example({(1, 1): 2**62, (1, 0): 2**62})  # partial sums past int64
@example({(1, 1): 2, (2**70, 1): 1})
def test_validation_matches_the_per_entry_oracle(support):
    try:
        want = check_support(support)
    except ValueError as exc:
        for args in ((support,), _array_form(support)):
            with pytest.raises(ValueError) as got:
                MultiplicityDistribution(*args)
            assert str(got.value) == str(exc)
        return
    om = MultiplicityDistribution(support)
    assert om == MultiplicityDistribution(*_array_form(dict(sorted(want.items()))))
    assert list(om.support.items()) == sorted(want.items())  # row-major
    assert om.vertex_count == len(want)
    int64 = max(sum(x[0] for x in want), sum(x[1] for x in want), sum(want.values())) < 2**62
    assert om.xy.dtype == om.mult.dtype == (np.int64 if int64 else object)
    assert not om.xy.flags.writeable and not om.mult.flags.writeable
    line = omega_to_polyline(om)
    assert line.vertices == polyline_of_support(want)
    assert line.endpoint() == om.endpoint() == polyline_of_support(want)[-1]


@pytest.mark.parametrize("build,first", [
    (lambda: ConvexPolyline([(0, 0), (1.5, 1.9)]), "1.5"),
    (lambda: ConvexPolyline(np.array([[0, 0], [1.5, 1.9]])), "np.float64(0.0)"),
    (lambda: ConvexPolyline([(0, 0), (1, 2.0)]), "2.0"),
    (lambda: ConvexPolyline([(0, 0), (1, "2")]), "'2'"),
    (lambda: ConvexPolyline([(0, 0), (None, 2)]), "None"),
    (lambda: ConvexPolyline([(0, 0), (2**70, 0.5)]), "0.5"),  # past int64
    (lambda: MultiplicityDistribution({(1.5, 0.7): 2.9}), "1.5"),
    (lambda: MultiplicityDistribution({(1, 0): 2, (1, 1): 2.0}), "2.0"),
    (lambda: MultiplicityDistribution({(2, 4): 1, (1, 0.5): 0}), "0.5"),  # before any other check
    (lambda: MultiplicityDistribution(np.array([[1.5, 0.7]]), np.array([2.9])), "1.5"),
    # a float array holds floats only, 1.0 included
    (lambda: MultiplicityDistribution(np.array([[1, 0], [1, 1]]), np.array([1, 0.5])), "1.0"),
])
def test_non_integer_input_is_refused(build, first):
    with pytest.raises(ValueError, match=rf"^{re.escape(first)} is not an integer$"):
        build()


@pytest.mark.parametrize("build,first", [
    # the flattened values once re-paired into the line to (5, 7)
    (lambda: ConvexPolyline([(0, 0, 5), (7,)]), "row 0 is (0, 0, 5)"),
    (lambda: ConvexPolyline([(0, 0), (1, 2, 3)]), "row 1 is (1, 2, 3)"),  # the 3 was dropped
    (lambda: ConvexPolyline([(0, 0, 1, 2), (4,)]), "row 0 is (0, 0, 1, 2)"),  # an IndexError
    (lambda: ConvexPolyline([(0, 0), (2**70, 1, 1)]), "row 1 is (1180591620717411303424, 1, 1)"),
    (lambda: ConvexPolyline([(0, 0), 5]), "row 1 is 5"),
    (lambda: ConvexPolyline(np.zeros((2, 3), dtype=np.int64)), "row 0 is array([0, 0, 0])"),
    (lambda: MultiplicityDistribution(np.array([[1, 0, 1]]), np.array([1])),
     "row 0 is array([1, 0, 1, 1])"),
])
def test_rows_of_another_length_are_refused(build, first):
    with pytest.raises(ValueError, match=rf"^{re.escape(first)}, not [23] values$"):
        build()


def test_integers_of_any_type_are_kept():
    assert ConvexPolyline([(0, 0), (np.int32(1), np.uint64(2)), (True, 2**70)]).vertices == (
        (0, 0), (1, 2), (1, 2**70))


def test_the_array_form_keeps_every_integer_in_row_major_order():
    # uint64 and int64 columns would stack as float64, which rounds 2^60 + 1
    om = MultiplicityDistribution(np.array([[1, 0], [2**60 + 1, 1]], dtype=np.uint64),
                                  np.array([2**62 + 1, 1]))
    assert dict(om.support) == {(1, 0): 2**62 + 1, (2**60 + 1, 1): 1}
    for xy in ([[1, 1], [1, 0]], [[1, 0], [1, 1], [1, 1]]):
        with pytest.raises(ValueError, match=r"is out of row-major order or given twice"):
            MultiplicityDistribution(np.array(xy), np.ones(len(xy), dtype=np.int64))


def _first_out_of_row_major_order(xy):
    # the row-major rule one pair at a time, in Python ints
    return next((b for a, b in zip(xy, xy[1:]) if not tuple(a) < tuple(b)), None)


def _inject(fault, xy, mult, i):
    # one bad entry at position i (and i + 1 for the pair faults)
    if fault == "non-primitive":
        xy[i] = [2 * xy[i][0], 2 * xy[i][1]]
    elif fault == "negative multiplicity":
        mult[i] = -mult[i]
    elif fault == "negative coordinate":
        xy[i] = [-xy[i][0], -xy[i][1]]
    elif fault == "out of order":
        xy[i], xy[i + 1], mult[i], mult[i + 1] = xy[i + 1], xy[i], mult[i + 1], mult[i]
    else:  # given twice
        xy[i + 1] = xy[i]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("fault", ["non-primitive", "negative multiplicity",
                                   "negative coordinate", "out of order", "given twice"])
def test_gibbs_size_entries_are_checked_like_the_oracle(fault, seed):
    # the column-wise checks at the size of a real draw, a bad entry at a
    # random position: the message of the per-entry oracle, or of the
    # per-pair row-major rule
    om = sample_omega(GibbsParams(EnergyModel.linear(0.02, 0.02), 1.0), seed)
    xy, mult = om.xy.tolist(), om.mult.tolist()
    assert len(mult) > 1000
    _inject(fault, xy, mult, int(np.random.default_rng(seed).integers(len(mult) - 1)))
    if fault in ("out of order", "given twice"):
        x = tuple(_first_out_of_row_major_order(xy))
        want = f"{x} is out of row-major order or given twice"
    else:
        with pytest.raises(ValueError) as oracle:
            check_support(dict(zip(map(tuple, xy), mult)))
        want = str(oracle.value)
    with pytest.raises(ValueError) as got:
        MultiplicityDistribution(np.array(xy), np.array(mult))
    assert str(got.value) == want


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("fault", ["off-quadrant", "zero edge", "not turning"])
def test_gibbs_size_edges_are_checked_like_the_oracle(fault, seed):
    # a real draw's line with one bad vertex j at a random position: the
    # message of the first bad edge, one edge at a time in Python ints
    line = omega_to_polyline(sample_omega(GibbsParams(EnergyModel.linear(0.02, 0.02), 1.0),
                                          seed))
    verts = line.xy.tolist()
    assert len(verts) > 1000
    j = int(np.random.default_rng(seed).integers(1, len(verts) - 1))
    (a, b), (c, d), (e, f) = verts[j - 1:j + 2]
    verts[j] = {"off-quadrant": [a - 1, d], "zero edge": [a, b],
                "not turning": [a + e - c, b + f - d]}[fault]  # edges j-1 and j swapped
    with pytest.raises(ValueError) as oracle:
        check_polyline(verts)
    for form in (verts, np.array(verts)):
        with pytest.raises(ValueError) as got:
            ConvexPolyline(form)
        assert str(got.value) == str(oracle.value)


def test_a_draw_travels_as_arrays(monkeypatch):
    # the per-draw path of the limit-shape checks builds no mapping and no
    # vertex tuples
    def built(self):
        raise AssertionError("built on the per-draw path")

    monkeypatch.setattr(MultiplicityDistribution, "support", property(built))
    monkeypatch.setattr(ConvexPolyline, "vertices", property(built))
    omega = sample_omega(GibbsParams(EnergyModel.linear(0.1, 0.1)), 7)
    line = omega_to_polyline(omega)
    assert omega.vertex_count > 10 and len(line.xy) == omega.vertex_count + 1
    d = hausdorff_distance(normalize(line, line.endpoint()), ShapeCurve.parabola())
    assert 0.0 < d < 0.5


def test_endpoint_conservation():
    om = MultiplicityDistribution({(1, 0): 3, (3, 2): 2, (1, 4): 1, (0, 1): 5})
    assert omega_to_polyline(om).endpoint() == om.endpoint()


primitive_vecs = st.tuples(
    st.integers(0, 30), st.integers(0, 30)
).filter(lambda v: math.gcd(v[0], v[1]) == 1)

omegas = st.dictionaries(primitive_vecs, st.integers(1, 5), max_size=12).map(
    MultiplicityDistribution
)


@given(omegas)
@settings(max_examples=300, deadline=None)
def test_roundtrip_bijection(om):
    line = omega_to_polyline(om)
    assert line.vertices[0] == (0, 0)
    assert len(line.vertices) == om.vertex_count + 1
    assert polyline_to_omega(line) == om


@given(omegas)
@settings(max_examples=100, deadline=None)
def test_json_roundtrips_bit_exact(om):
    line = omega_to_polyline(om)
    ltext = polyline_json(line)
    assert _read_line(ltext) == line
    assert polyline_json(_read_line(ltext)) == ltext


def test_json_shapes():
    om = MultiplicityDistribution({(1, 2): 3, (1, 0): 1})
    # `sample-gibbs` rows are slope-sorted, (1,0) before (1,2); the mapping is row-major
    assert om.items_slope_sorted() == [((1, 0), 1), ((1, 2), 3)]
    assert list(om.support.items()) == [((1, 0), 1), ((1, 2), 3)]
    line = ConvexPolyline(((0, 0), (1, 0), (2, 4)))
    assert json.loads(polyline_json(line)) == {"vertices": [[0, 0], [1, 0], [2, 4]]}


def test_slope_sorted_randomized_against_float_slopes():
    rng = np.random.default_rng(7)
    vecs = primitive_vectors_in_box(25, 25)
    for _ in range(20):
        perm = [vecs[i] for i in rng.permutation(len(vecs))]
        assert slope_sorted(perm) == vecs


_NEAR_2_30 = [(2**30 + 1, 2**30 + 2), (2**30, 2**30 + 1)]  # float slopes tie
_NEAR_2_40 = [(2**40 + 1, 2**40 + 2), (2**40, 2**40 + 1)]  # and past 2^31


@settings(deadline=None, max_examples=200)
@given(st.sampled_from([60, 2**31 - 1, 2**33, 2**64]).flatmap(
    lambda n: st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=40)))
@example([])
@example(_NEAR_2_30)
@example(_NEAR_2_30[::-1] + [(1, 0), (0, 1)])
@example([(2**31, 1), (1, 2**31), (3, 2)])
@example([(2**70, 1), (1, 1)])
@example(_NEAR_2_40[::-1] + [(2**70, 3)])
def test_items_slope_sorted_matches_exact_order(pairs):
    vecs = [tuple(x) for x in dict.fromkeys(pairs) if math.gcd(*x) == 1]
    om = MultiplicityDistribution({x: i + 1 for i, x in enumerate(vecs)})
    items = om.items_slope_sorted()
    assert [x for x, _ in items] == slope_sorted_exact(vecs)
    assert all(m == om.support[x] for x, m in items)


@pytest.mark.parametrize("vecs", [_NEAR_2_30[::-1], [(2**31, 1), (1, 1)], _NEAR_2_40[::-1]])
def test_items_slope_sorted_falls_back_to_the_exact_sort(monkeypatch, vecs):
    # the exact sort runs where the float key x2/x1 puts a pair out of order
    # (the stable order of a float tie), and the neighbour check that finds
    # it runs in Python ints once a coordinate reaches 2^31
    want = slope_sorted_exact(vecs)
    float_order = sorted(vecs, key=lambda v: v[1] / v[0])
    sorts, checks = [], []
    cmp_to_key, turns = lattice.functools.cmp_to_key, lattice._turns

    def sort_spy(cmp):
        sorts.append(cmp)
        return cmp_to_key(cmp)

    def check_spy(d):
        result = turns(d)
        checks.append(result.dtype)
        return result

    monkeypatch.setattr(lattice.functools, "cmp_to_key", sort_spy)
    monkeypatch.setattr(lattice, "_turns", check_spy)
    om = MultiplicityDistribution({x: 1 for x in vecs})
    assert [x for x, _ in om.items_slope_sorted()] == want
    assert len(sorts) == (float_order != want)
    assert checks == [object if max(map(max, vecs)) >= 2**31 else np.int64]
