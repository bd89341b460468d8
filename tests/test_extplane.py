import math

import numpy as np
import pytest

from cpintegral.extplane import (
    FULL_PLANE,
    NEG_INF,
    POS_INF,
    Grid2,
    Interval2,
    axis_nodes,
    cell_tags,
    chart,
    chart_inverse,
    chart_nodes,
    ext,
    make_interval,
    partition,
    segment_nodes,
)


def test_ext_accepts_numbers_and_infinities():
    assert ext(3) == 3.0
    assert ext(POS_INF) == math.inf
    assert ext(NEG_INF) == -math.inf
    with pytest.raises(ValueError):
        ext(float("nan"))


def test_chart_exact_at_infinity():
    assert chart(POS_INF) == 1.0
    assert chart(NEG_INF) == -1.0
    assert chart_inverse(1.0) == POS_INF
    assert chart_inverse(-1.0) == NEG_INF
    assert chart(0.0) == 0.0
    assert chart_inverse(0.0) == 0.0


def test_chart_roundtrip_finite():
    ts = np.array([-100.0, -1.0, -0.25, 0.5, 2.0, 1e4])
    back = chart_inverse(chart(ts))
    assert np.allclose(back, ts, rtol=1e-12)


def test_chart_monotone():
    ts = np.linspace(-50, 50, 101)
    us = chart(ts)
    assert np.all(np.diff(us) > 0)
    assert np.all(us > -1) and np.all(us < 1)


def test_make_interval_normalization_and_sign():
    iv = make_interval(1, 0, 0, 1)
    assert (iv.a, iv.b, iv.c, iv.d) == (0.0, 1.0, 0.0, 1.0)
    assert iv.sign == -1
    assert make_interval(1, 0, 1, 0).sign == 1
    assert make_interval(0, 1, 0, 1).sign == 1


def test_make_interval_degenerate():
    assert make_interval(2, 2, 0, 1).degenerate
    assert make_interval(0, 1, -3, -3).degenerate
    assert not make_interval(0, 1, 0, 1).degenerate


def test_interval_degeneracy_follows_its_limits():
    # degenerate is derived from the limits, so no constructed interval can contradict them
    assert Interval2(0.0, 0.0, 0.0, 1.0).degenerate
    assert Interval2(0.0, 1.0, 2.0, 2.0).degenerate
    assert not Interval2(0.0, 1.0, 0.0, 1.0, -1).degenerate
    with pytest.raises(TypeError):
        Interval2(0.0, 1.0, 0.0, 1.0, 1, False)


def test_full_plane_and_corners():
    assert FULL_PLANE.a == NEG_INF and FULL_PLANE.d == POS_INF
    iv = make_interval(0, 1, 2, 3)
    assert (iv.a, iv.b, iv.c, iv.d, iv.sign) == (0.0, 1.0, 2.0, 3.0, 1)


def test_axis_nodes_shape_and_endpoints():
    xs = axis_nodes(4)
    assert len(xs) == 5
    assert xs[0] == NEG_INF and xs[-1] == POS_INF
    # chart-uniform: u = -1, -1/2, 0, 1/2, 1 maps to these exact points
    assert list(xs[1:4]) == [-1.0, 0.0, 1.0]
    assert np.all(np.diff(xs) > 0)


def test_axis_nodes_dyadic_nesting():
    coarse = set(axis_nodes(64).tolist())
    fine = set(axis_nodes(128).tolist())
    assert coarse <= fine


def test_uniform_grid():
    g = Grid2(8)
    assert len(g.xs) == 9 and len(g.ys) == 9
    assert g.xs[0] == NEG_INF and g.ys[-1] == POS_INF


@pytest.mark.parametrize("resolution", [2, 8, 4096])
def test_grid_is_the_chart_nodes_of_one_resolution(resolution):
    # a Grid2 holds its resolution alone, and both axes are the shared node table
    g = Grid2(resolution)
    assert g.xs is axis_nodes(resolution) and g.ys is axis_nodes(resolution)
    assert Grid2(resolution) == g
    with pytest.raises(TypeError):
        Grid2(xs=np.array([NEG_INF, -1.0, 0.0, 5.0, POS_INF]), ys=axis_nodes(4), resolution=4)


def test_grid_rejects_a_resolution_below_two():
    with pytest.raises(ValueError):
        Grid2(1)


def _old_forward(t):
    """The chart's forward map as four nested np.where, NaN sent to 0."""
    t = np.asarray(t, dtype=float)
    out = np.where(np.isneginf(t), -1.0, np.where(np.isposinf(t), 1.0, 0.0))
    finite = np.isfinite(t)
    tf = np.where(finite, t, 0.0)
    return np.where(finite, tf / (1.0 + np.abs(tf)), out)


def _old_inverse(u):
    """The chart's inverse map, |u| >= 1 sent to +-inf and NaN to +inf."""
    u = np.asarray(u, dtype=float)
    interior = np.abs(u) < 1.0
    uf = np.where(interior, u, 0.0)
    return np.where(interior, uf / (1.0 - np.abs(uf)), np.where(u <= -1.0, NEG_INF, POS_INF))


def _chart_inputs():
    rng = np.random.default_rng(7)
    wide = rng.choice([-1.0, 1.0], 20000) * rng.random(20000) * 10.0 ** rng.integers(-300, 301, 20000)
    tiny = np.nextafter(0.0, 1.0)
    special = [0.0, -0.0, POS_INF, NEG_INF, 1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0),
               tiny, -tiny, 1e-310, -1e-310, 2.5e-308, 1.5, -1.5, 1e300, -1e300, np.finfo(float).max]
    unit = np.concatenate([rng.uniform(-1.0, 1.0, 5000), rng.uniform(-3.0, 3.0, 1000)])
    return np.concatenate([wide, special, unit])


def test_chart_maps_match_the_nested_where_formulas_bit_for_bit():
    ts = _chart_inputs()
    for new, old in ((chart, _old_forward), (chart_inverse, _old_inverse)):
        got = new(ts)
        assert got.tobytes() == old(ts).tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(old(ts)))
        # the plain-float path for scalars matches too, sign of zero included
        for t in ts[:100].tolist() + ts[20000:20018].tolist() + ts[-1100:-1000].tolist():
            value = new(t)
            assert type(value) is float
            assert np.float64(value).tobytes() == np.asarray(old(t)).tobytes()
        assert type(new(np.float64(0.5))) is float and type(new(np.asarray(0.5))) is float
    assert chart(3) == 0.75 and chart_inverse(2) == POS_INF
    single = np.array([0.5], dtype=np.float32)
    assert chart(single).dtype == float and chart_inverse(single).dtype == float
    # NaN propagates through both maps, as a scalar and inside an array
    assert math.isnan(chart(math.nan)) and math.isnan(chart_inverse(math.nan))
    fwd = chart(np.array([math.nan, 1.0]))
    inv = chart_inverse(np.array([math.nan, 0.5]))
    assert math.isnan(fwd[0]) and fwd[1] == 0.5 and math.isnan(inv[0]) and inv[1] == 1.0


def _exact_chart_nodes(resolution):
    """k / resolution for k = -resolution, -resolution + 2, ..., resolution, one division each."""
    return np.array([k / resolution for k in range(-resolution, resolution + 1, 2)])


def _old_segment_nodes(a, b, resolution, jumps=()):
    """segment_nodes with a Python loop over the jumps and a sort on every call.

    The whole line starts from the exact chart nodes k / resolution; a
    finite or half-infinite range from np.linspace between its ends' charts.
    """
    if not a < b:
        raise ValueError("need a < b")
    ua = float(np.asarray(_old_forward(a)))
    ub = float(np.asarray(_old_forward(b)))
    whole = a == NEG_INF and b == POS_INF
    u = _exact_chart_nodes(resolution) if whole else np.linspace(ua, ub, resolution + 1)
    nodes = np.asarray(_old_inverse(u), dtype=float)
    nodes[0] = a
    nodes[-1] = b
    extra = []
    for j in jumps:
        if math.isfinite(j) and a < j < b:
            extra.extend((np.nextafter(j, -np.inf), j, np.nextafter(j, np.inf)))
    if extra:
        nodes = np.concatenate([nodes, np.asarray(extra, dtype=float)])
    nodes = np.unique(nodes)
    return nodes[(nodes >= a) & (nodes <= b)]


_ULP_STEPS = tuple(np.nextafter(0.3, 1.0) + k * np.spacing(0.3) for k in range(3))
SEGMENT_CASES = [
    (NEG_INF, POS_INF, 32, ()),
    (NEG_INF, POS_INF, 7, ()),
    (0.0, 1.0, 8, ()),
    (-2.5, 3.0, 33, ()),
    (0, 1, 8, ()),
    (NEG_INF, POS_INF, 16, (-5.0, 7.0, 99.0)),
    (0.0, 1.0, 8, (-1.0, 2.0, 0.0, 1.0)),  # outside [a, b] and on the ends
    (NEG_INF, POS_INF, 32, (POS_INF, NEG_INF, math.nan, 0.25, 0.25, -1.5)),  # infinite, NaN, duplicates
    (NEG_INF, POS_INF, 16, (0.3, *_ULP_STEPS, np.nextafter(0.3, 0.0))),  # a few ulps apart
    (NEG_INF, POS_INF, 16, (-1.0, 0.0, -0.0, 1.0 / 3.0)),  # on chart nodes, both zeros
    (-1.0, 1.0, 4, (-0.0,)),
    (NEG_INF, 0.0, 16, (-1.0, -0.5, 0.5)),  # half-infinite
    (2.0, POS_INF, 16, (3.0, 1.0)),
    (NEG_INF, -1e300, 8, ()),
    (1e300, np.nextafter(1e300, POS_INF), 8, ()),  # the chart cannot resolve [a, b]: the sort runs
    (1e300, np.nextafter(1e300, POS_INF), 8, (1e300,)),
    (0.0, 5e-324, 4, ()),
    (0.0, 1.0, 1, ()),
    (0.0, 1.0, 0, ()),
    (NEG_INF, POS_INF, 4096, (0.25,)),
    (NEG_INF, POS_INF, 4096, ()),
]
# the whole line starts from its table: no jump, both zeros, duplicates, unsorted, NaN and +-inf
WHOLE_LINE_JUMPS = [(), (0.0,), (-0.0,), (0.0, -0.0), (-0.0, 0.0), (0.5, 0.5, -2.0, -2.0), (3.0, -1.0, 0.25),
                    (math.nan, 1.0), (POS_INF, NEG_INF), (POS_INF, -4.0, NEG_INF)]
SEGMENT_CASES += [(NEG_INF, POS_INF, r, jumps) for r in (2, 3, 7, 64, 1000, 4096) for jumps in WHOLE_LINE_JUMPS]


@pytest.mark.parametrize("a,b,resolution,jumps", SEGMENT_CASES)
def test_segment_nodes_match_the_sorted_loop(a, b, resolution, jumps):
    new = segment_nodes(a, b, resolution, jumps)
    old = _old_segment_nodes(a, b, resolution, jumps)
    assert new.dtype == old.dtype and new.tobytes() == old.tobytes()
    if len(new) > 1:
        u = _old_forward(new)
        old_tags = _old_inverse((u[:-1] + u[1:]) / 2.0)
        old_tags[0], old_tags[-1] = new[0], new[-1]
        assert cell_tags(new).tobytes() == old_tags.tobytes()
        nodes, tags = partition(a, b, resolution, jumps)
        assert nodes.tobytes() == old.tobytes() and tags.tobytes() == old_tags.tobytes()


@pytest.mark.parametrize("resolution", [2, 64, 4096])
def test_whole_line_tables_are_shared_and_read_only(resolution):
    nodes, tags = partition(NEG_INF, POS_INF, resolution, (POS_INF, math.nan))
    assert axis_nodes(resolution) is nodes and segment_nodes(NEG_INF, POS_INF, resolution) is nodes
    for array in (nodes, Grid2(resolution).xs):
        with pytest.raises(ValueError):
            array[1] = 0.0
    # the tags are a fresh array per partition, the same bits every time
    again = partition(NEG_INF, POS_INF, resolution)[1]
    assert again is not tags and again.tobytes() == tags.tobytes()
    assert tags.flags.writeable and again.flags.writeable
    jumped = partition(NEG_INF, POS_INF, resolution, (0.5,))
    finite = partition(-1.0, 1.0, resolution)
    assert all(array.flags.writeable and array is not nodes for array in (*jumped, *finite))


def test_node_tables_never_build_tags(monkeypatch):
    # axis_nodes and segment_nodes read the whole-line node table alone; the
    # tags are built by each partition that asks for them, once per call
    import cpintegral.extplane as extplane

    calls = []

    def counting(nodes):
        calls.append(len(nodes))
        return cell_tags(nodes)

    monkeypatch.setattr(extplane, "cell_tags", counting)
    for resolution in (1001, 2999):  # resolutions no other test builds
        nodes = axis_nodes(resolution)
        assert segment_nodes(NEG_INF, POS_INF, resolution) is nodes
        segment_nodes(NEG_INF, POS_INF, resolution, (0.5,))
        segment_nodes(-1.0, 2.0, resolution)
        Grid2(resolution)
        assert calls == []
        tags = partition(NEG_INF, POS_INF, resolution)[1]
        assert calls == [resolution + 1]
        assert partition(NEG_INF, POS_INF, resolution)[1] is not tags and calls == [resolution + 1] * 2
        assert tags.tobytes() == cell_tags(nodes).tobytes()
        calls.clear()


def test_segment_nodes_sort_only_what_the_chart_cannot_resolve():
    a = 1e300
    b = np.nextafter(a, POS_INF)
    # the chart maps a and b to the same point, so the raw nodes repeat
    assert chart(a) == chart(b)
    assert segment_nodes(a, b, 8).tolist() == [a, b]
    with pytest.raises(ValueError):
        segment_nodes(1.0, 1.0, 8)
    with pytest.raises(ValueError):
        segment_nodes(math.nan, 1.0, 8)


def test_chart_nodes_and_axis_nodes_are_exactly_odd_at_every_resolution():
    # u[-1 - i] = -u[i] bit for bit, with +0.0 at the middle of an even
    # resolution; a power of two keeps the bits of np.linspace
    for resolution in range(2, 300):
        for nodes in (chart_nodes(resolution), axis_nodes(resolution)):
            assert len(nodes) == resolution + 1 and np.array_equal(nodes, -nodes[::-1])
            assert not np.signbit(nodes[nodes == 0.0]).any()
        assert (chart_nodes(resolution)[0], chart_nodes(resolution)[-1]) == (-1.0, 1.0)
        if not resolution & (resolution - 1):
            assert chart_nodes(resolution).tobytes() == np.linspace(-1.0, 1.0, resolution + 1).tobytes()


@pytest.mark.parametrize("resolution", [2, 3, 4, 17, 64, 1000, 1 << 12])
def test_axis_nodes_are_the_unjumped_partition_of_the_line(resolution):
    nodes = axis_nodes(resolution)
    assert nodes.tobytes() == segment_nodes(NEG_INF, POS_INF, resolution).tobytes()
    assert nodes.tobytes() == _old_segment_nodes(NEG_INF, POS_INF, resolution).tobytes()
    assert nodes.tobytes() == _old_inverse(_exact_chart_nodes(resolution)).tobytes()
    # the nodes np.linspace(-1, 1, resolution + 1) gave before the chart nodes
    # became exactly odd: the same bits at a power of two, and within 1.5 ulp
    # of 1 in chart coordinates at any other resolution
    u, linspace = chart(nodes), np.linspace(-1.0, 1.0, resolution + 1)
    if resolution & (resolution - 1):
        assert 0.0 < np.max(np.abs(u - linspace)) <= 1.5 * np.spacing(1.0)
    else:
        assert nodes.tobytes() == _old_inverse(linspace).tobytes()
    for bad in (1, 0, -1):
        with pytest.raises(ValueError):
            axis_nodes(bad)
