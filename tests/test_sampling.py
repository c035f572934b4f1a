import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcn2.errors import ArgumentError
from dcn2.sampling import bilinear_backward, bilinear_sample, pixel_map, pixel_rows

PLANE = np.array([[1.0, 2.0], [3.0, 4.0]])


def fd_point_grad(plane, y, x, h=1e-4):
    """Independent central-difference oracle over the sampling coordinate."""
    dy = (bilinear_sample(plane, (y + h, x)) - bilinear_sample(plane, (y - h, x))) / (2 * h)
    dx = (bilinear_sample(plane, (y, x + h)) - bilinear_sample(plane, (y, x - h))) / (2 * h)
    return dy, dx


def test_integer_lattice_point_exact():
    assert bilinear_sample(PLANE, (0, 1)) == 2.0


def test_cell_center_is_mean_of_neighbors():
    assert bilinear_sample(PLANE, (0.5, 0.5)) == pytest.approx(2.5)


def test_far_outside_is_zero():
    assert bilinear_sample(PLANE, (-5, -5)) == 0.0


def test_nan_coordinate_rejected():
    with pytest.raises(ArgumentError):
        bilinear_sample(PLANE, (float("nan"), 0.0))


def test_backward_center_gradient_matches_fd():
    # frozen from the finite-difference oracle: dy = 2.0, dx = 1.0
    _, (dy, dx) = bilinear_backward(PLANE, (0.5, 0.5))
    assert (dy, dx) == pytest.approx((2.0, 1.0))
    assert (dy, dx) == pytest.approx(fd_point_grad(PLANE, 0.5, 0.5), rel=1e-6)


def test_backward_constant_plane_zero_gradient():
    flat = np.full((3, 3), 5.0)
    _, (dy, dx) = bilinear_backward(flat, (1.3, 1.7))
    assert dy == pytest.approx(0.0, abs=1e-12)
    assert dx == pytest.approx(0.0, abs=1e-12)


def test_backward_fully_outside_empty():
    grad_plane, (dy, dx) = bilinear_backward(PLANE, (-2.5, 0.5))
    assert grad_plane == {}
    assert (dy, dx) == (0.0, 0.0)


def test_weight_sum_inside_border_outside():
    rng = np.random.default_rng(0)
    ones = np.ones((4, 6))
    for _ in range(200):
        y = rng.uniform(-2.5, 5.5)
        x = rng.uniform(-2.5, 7.5)
        total = bilinear_sample(ones, (y, x))
        if 0 <= y <= 3 and 0 <= x <= 5:
            assert total == pytest.approx(1.0)
        elif y <= -1 or y >= 4 or x <= -1 or x >= 6:
            assert total == 0.0
        else:
            assert 0.0 <= total <= 1.0 + 1e-12


def test_linearity_in_plane():
    rng = np.random.default_rng(1)
    p1 = rng.normal(size=(3, 4))
    p2 = rng.normal(size=(3, 4))
    for _ in range(50):
        a, b = rng.normal(size=2)
        pt = (rng.uniform(-1, 3.5), rng.uniform(-1, 4.5))
        combined = bilinear_sample(a * p1 + b * p2, pt)
        split = a * bilinear_sample(p1, pt) + b * bilinear_sample(p2, pt)
        assert combined == pytest.approx(split, abs=1e-12)


def test_point_gradient_matches_fd_off_lattice():
    rng = np.random.default_rng(2)
    plane = rng.normal(size=(5, 5))
    checked = 0
    while checked < 100:
        y = rng.uniform(-1.5, 5.5)
        x = rng.uniform(-1.5, 5.5)
        fy, fx = y - np.floor(y), x - np.floor(x)
        if min(fy, 1 - fy) < 1e-2 or min(fx, 1 - fx) < 1e-2:
            continue
        checked += 1
        _, (dy, dx) = bilinear_backward(plane, (y, x))
        ndy, ndx = fd_point_grad(plane, y, x)
        for a, n in ((dy, ndy), (dx, ndx)):
            assert abs(a - n) <= 1e-4 * max(abs(a), abs(n), 1.0)


def test_plane_gradient_matches_fd():
    rng = np.random.default_rng(3)
    plane = rng.normal(size=(3, 3))
    for _ in range(30):
        pt = (rng.uniform(-1.5, 3.5), rng.uniform(-1.5, 3.5))
        upstream = float(rng.normal())
        sparse, _ = bilinear_backward(plane, pt, upstream)
        h = 1e-4
        for (iy, ix), g in sparse.items():
            bumped = plane.copy()
            bumped[iy, ix] += h
            fplus = upstream * bilinear_sample(bumped, pt)
            bumped[iy, ix] -= 2 * h
            fminus = upstream * bilinear_sample(bumped, pt)
            numeric = (fplus - fminus) / (2 * h)
            assert abs(g - numeric) <= 1e-4 * max(abs(g), abs(numeric), 1.0)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_pixel_rows_and_map_round_trip_property(data):
    n, c, h, w = data.draw(st.tuples(*[st.integers(1, 4)] * 4), label="shape")
    a = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(n, c, h, w))
    size = n * h * w
    kind = data.draw(st.sampled_from(["none", "empty", "partial", "full"]), label="kind")
    listed = {
        "none": np.arange(size),
        "empty": np.zeros(0, dtype=np.int64),
        "full": np.arange(size),
        "partial": np.array(sorted(data.draw(st.sets(st.integers(0, size - 1), min_size=1,
                                                     max_size=size)))),
    }[kind]
    positions = None if kind == "none" else listed

    rows = pixel_rows(a, positions)
    assert rows.shape == (listed.size, c)
    item, rc = np.divmod(listed, h * w)
    for row, b, i, j in zip(rows, item, rc // w, rc % w):  # list order
        assert np.array_equal(row, a[b, :, i, j])
    kept = np.zeros(size, dtype=bool)
    kept[listed] = True
    back = pixel_map(rows, positions, a.shape)
    assert back.shape == a.shape
    assert np.array_equal(back, np.where(kept.reshape(n, 1, h, w), a, 0.0))

    single = pixel_rows(a, positions, np.float32)
    assert single.dtype == np.float32
    assert np.array_equal(single, rows.astype(np.float32))
    as_map = pixel_map(rows, positions, a.shape, np.float32)
    assert as_map.dtype == np.float32
    assert np.array_equal(as_map, back.astype(np.float32))
