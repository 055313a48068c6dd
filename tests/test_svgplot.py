"""Tests for the SVG line plots: polyline points against a per-point oracle."""

import math
import re

import numpy as np
import pytest

from synergy_es.svgplot import line_plot


def oracle_points(series):
    """Each polyline's points as line_plot formatted them before it formatted
    each distinct xs once: "{:.1f},{:.1f}" per kept point of px(xs[keep])
    and py(ys[keep]), on line_plot's axes (720 x 440, margins 60/20/36/46)."""
    ml, mt, pw, ph = 60, 36, 640, 358
    arrays = [(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
              for _, xs, ys in series]
    xs_all = np.concatenate([xs for xs, _ in arrays])
    ys_all = np.concatenate([ys[ys == ys] for _, ys in arrays])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y):
        return mt + (1.0 - (y - y0) / (y1 - y0)) * ph

    points = []
    for xs, ys in arrays:
        keep = ys == ys
        points.append(" ".join(map("{:.1f},{:.1f}".format, px(xs[keep]).tolist(),
                                   py(ys[keep]).tolist())))
    return points


def with_nans(ys, every, offset=0):
    ys = np.array(ys, dtype=float)
    ys[offset::every] = math.nan
    return ys


SHARED = np.arange(40.0)
SHARED_LIST = [0.25 * k for k in range(40)]
RISE, FALL = np.sin(0.3 * SHARED) + 1.5, np.cos(0.2 * SHARED) - 0.5
CASES = {
    # one xs object for every series, some ys with NaN (one all NaN)
    "nan-ys": [("a", SHARED, with_nans(RISE, 3)), ("b", SHARED, FALL),
               ("c", SHARED, with_nans(FALL, 1)), ("d", SHARED, with_nans(RISE, 7, 2))],
    # a new xs object per series: equal contents, other values, a list
    "distinct-xs": [("a", np.arange(40.0), RISE), ("b", np.arange(40.0), FALL),
                    ("c", 3.0 * SHARED - 7.0, RISE), ("", list(SHARED_LIST), FALL)],
    # shared and distinct objects, arrays and a list, with and without NaN
    "mixed": [("a", SHARED, RISE), ("b", SHARED_LIST, with_nans(FALL, 4)),
              ("c", SHARED, with_nans(FALL, 5, 1)), ("d", SHARED_LIST, RISE),
              ("e", np.arange(40.0) + 0.5, with_nans(RISE, 2)), ("f", SHARED, FALL)],
}


@pytest.mark.parametrize("series", CASES.values(), ids=CASES)
def test_points_equal_per_point_oracle(tmp_path, series):
    path = tmp_path / "plot.svg"
    line_plot(path, series, title="t", xlabel="x", ylabel="y")
    text = path.read_text(encoding="utf-8")
    assert re.findall(r'<polyline points="([^"]*)"', text) == oracle_points(series)


def test_unequal_lengths_rejected_before_writing(tmp_path):
    path = tmp_path / "plot.svg"
    with pytest.raises(ValueError) as exc:
        line_plot(path, [("a", SHARED, RISE), ("b", SHARED, RISE[:-1])])
    assert str(exc.value) == "series 'b': 40 xs but 39 ys"
    assert not path.exists()
