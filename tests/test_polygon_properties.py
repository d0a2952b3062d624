"""Property tests for ``Polygon2D`` on random convex polygons.

The polygons have 3 to 8 vertices on a circle, at scales from 1e-8 to 1e8,
away from the origin, with near-degenerate cases: angular gaps down to 1e-9
of the circle (tiny edges) and a repeated vertex (a zero edge).  Probe
points lie at distances from 1e-8 to 1e8 times the scale from the circle's
centre, plus the vertices and points on the edges.
"""

import math

import numpy as np
import pytest

import drsplit as d

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

EPS = np.finfo(float).eps
# seeded runs, and no example database written into the checkout
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def polygons(draw):
    n = draw(st.integers(3, 8))
    weights = draw(st.lists(st.floats(1e-9, 1.0), min_size=n, max_size=n))
    # no gap of half the circle or more, so the vertices enclose the centre
    assume(max(weights) < 0.45 * sum(weights))
    angles = draw(st.floats(0.0, 2 * math.pi)) + 2 * math.pi * np.cumsum(weights) / sum(weights)
    centre = draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    v = scale * (np.stack([np.cos(angles), np.sin(angles)], axis=1) + centre)
    repeat = draw(st.integers(-1, n - 1))
    if repeat >= 0:
        v = np.insert(v, repeat, v[repeat], axis=0)
    try:
        s = d.Polygon2D(v)
    except ValueError:
        assume(False)
    return s, scale * np.asarray(centre), scale


@st.composite
def polygons_with_probes(draw):
    s, centre, scale = draw(polygons())
    polar = st.tuples(st.floats(-8.0, 8.0), st.floats(0.0, 2 * math.pi))
    far = [
        centre + scale * 10.0**k * np.array([math.cos(phi), math.sin(phi)])
        for k, phi in draw(st.lists(polar, min_size=1, max_size=20))
    ]
    v = s.vertices
    along = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(v), max_size=len(v))))
    on_edges = v + along[:, None] * s._edges
    return s, np.concatenate([np.array(far), v, on_edges])


def _size(s):
    return float(np.abs(s.vertices).max())


@SETTINGS
@given(polygons_with_probes())
def test_polygon_rows_bits_equal_project(case):
    s, X = case
    rows = s.project_rows(X)
    for x, row in zip(X, rows):
        assert np.array_equal(row.view(np.int64), s.project(x).view(np.int64)), x


@SETTINGS
@given(polygons_with_probes())
def test_polygon_projection_idempotent(case):
    # P x is a candidate v + t e, a few ulps of the polygon's size off the
    # exact segment; projecting it again moves it by no more than that
    s, X = case
    for x in X:
        p = s.project(x)
        assert np.abs(s.project(p) - p).max() <= 16 * EPS * _size(s), x


@SETTINGS
@given(polygons_with_probes())
def test_polygon_variational_inequality(case):
    # g = <x - Px, v - Px> <= 0 for every v in the polygon.  P x is the
    # candidate of least computed squared distance, so ||x - Px||^2 = r^2
    # exceeds the least one by at most delta, a few ulps of r^2.  The
    # segment from Px to v lies in the polygon, and along it the squared
    # distance r^2 - 2 s g + s^2 q^2 (q = ||v - Px||, 0 <= s <= 1) cannot
    # fall below r^2 - delta, so g <= sqrt(delta) q + delta.  The last term
    # covers the rounding of P x itself.
    s, X = case
    size = _size(s)
    for x in X:
        p = s.project(x)
        r = float(np.hypot(*(x - p)))
        for v in s.vertices:
            q = float(np.hypot(*(v - p)))
            tol = 1e-7 * r * q + 16 * EPS * r * r + 64 * EPS * size * (r + q)
            assert float((x - p) @ (v - p)) <= tol, (x, v)


@SETTINGS
@given(polygons_with_probes())
def test_polygon_projection_in_bounding_box(case):
    s, X = case
    lo, hi = s.vertices.min(axis=0), s.vertices.max(axis=0)
    slack = 4 * EPS * _size(s)
    for x in X:
        p = s.project(x)
        assert np.all(p >= lo - slack) and np.all(p <= hi + slack), x
