import numpy as np
import pytest

from msflab.svgplot import EmptyPlotError, line_plot


def polyline_vertices(svg: str) -> list[tuple[float, float]]:
    """Extract the data polyline vertices back out of a rendered plot."""
    marker = '<polyline points="'
    start = svg.find(marker)
    if start < 0:
        return []
    start += len(marker)
    end = svg.find('"', start)
    out = []
    for pair in svg[start:end].split():
        sx, sy = pair.split(",")
        out.append((float(sx), float(sy)))
    return out


class TestLinePlot:
    def test_polyline_vertices_map_monotonically(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        ys = np.array([0.5, -0.2, 0.8, 0.1])
        svg = line_plot(xs, ys)
        verts = polyline_vertices(svg)
        assert len(verts) == 4
        px = [v[0] for v in verts]
        assert all(b > a for a, b in zip(px, px[1:]))
        # Larger y means smaller pixel y (SVG axis points down).
        py = [v[1] for v in verts]
        assert py[1] > py[0] and py[2] < py[1]

    def test_zero_line_present_when_range_spans_zero(self):
        svg = line_plot([0, 1], [-1.0, 2.0])
        assert 'class="zero-line"' in svg

    def test_zero_line_absent_otherwise(self):
        svg = line_plot([0, 1], [1.0, 2.0])
        assert 'class="zero-line"' not in svg

    def test_unconverged_markers_distinct(self):
        svg = line_plot([0, 1, 2], [0.1, 0.2, 0.3], flagged=[False, True, False])
        assert svg.count('class="unconverged"') == 1

    def test_empty_plot_rejected(self):
        with pytest.raises(EmptyPlotError):
            line_plot([np.nan], [np.nan])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            line_plot([1, 2, 3], [1, 2])

    def test_nan_points_dropped(self):
        svg = line_plot([0, 1, 2], [0.1, np.nan, 0.3])
        assert len(polyline_vertices(svg)) == 2

    def test_scatter_mode_has_no_polyline(self):
        svg = line_plot([0, 1, 2], [0.1, 0.2, 0.3], draw_line=False)
        assert polyline_vertices(svg) == []
        assert svg.count("<circle") == 3

    def test_title_escaped(self):
        svg = line_plot([0, 1], [1, 2], title="a < b & c")
        assert "a &lt; b &amp; c" in svg

    def test_constant_series_padded(self):
        svg = line_plot([0, 1], [5.0, 5.0])
        assert polyline_vertices(svg)
