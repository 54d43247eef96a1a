import re

from mtchan import plotting
from mtchan.plotting import (_HEIGHT, _MARGIN_B, _MARGIN_L, _MARGIN_R,
                             _MARGIN_T, _WIDTH)


def _gridline_ys(svg: str) -> list[float]:
    return [float(y) for y in re.findall(r'<line x1="\d+" y1="([\d.]+)" '
                                         r'x2="\d+" y2="\1" stroke="#dddddd"', svg)]


def test_decade_gridlines_span_the_plot_area(tmp_path):
    path = tmp_path / "ber.svg"
    # BER from 0.3 down to 2e-3: decades 1e-3 .. 1e0
    plotting.write_ber_svg(str(path), [("A", [0.0, 10.0, 20.0], [0.3, 0.02, 0.002])])
    ys = _gridline_ys(path.read_text())
    assert len(ys) == 4
    assert max(ys) == _HEIGHT - _MARGIN_B
    assert min(ys) == _MARGIN_T


def test_curve_points_stay_inside_the_plot_area(tmp_path):
    path = tmp_path / "ber.svg"
    plotting.write_ber_svg(str(path), [("A", [0.0, 10.0, 20.0], [0.3, 0.02, 0.002]),
                                       ("B", [0.0, 10.0, 20.0], [0.4, 0.1, 0.05])])
    svg = path.read_text()
    for pts in re.findall(r'<polyline points="([^"]+)"', svg):
        for pair in pts.split():
            y = float(pair.split(",")[1])
            assert _MARGIN_T <= y <= _HEIGHT - _MARGIN_B


def test_title_and_axis_labels(tmp_path):
    path = tmp_path / "ber.svg"
    plotting.write_ber_svg(str(path), [("A", [0.0, 10.0], [0.3, 0.02])])
    texts = re.findall(r'<text [^>]*font-size="1[35]"[^>]*>([^<]*)</text>',
                       path.read_text())
    assert texts == ["BER vs G-SNR", "G-SNR (dB)", "BER"]


def test_labels_are_escaped_into_well_formed_xml(tmp_path):
    from xml.dom import minidom

    path = tmp_path / "ber.svg"
    plotting.write_ber_svg(str(path), [("a<b & c>d", [0.0, 10.0], [0.3, 0.02])])
    texts = [node.firstChild.data for node in
             minidom.parse(str(path)).getElementsByTagName("text")]
    assert texts[-1] == "a<b & c>d"


def test_a_one_point_sweep_marks_its_point_and_labels_its_gsnr(tmp_path):
    # one vertex strokes nothing as a plain polyline, and ~8 round ticks
    # from ceil(5.5) = 6 would label no G-SNR at all
    path = tmp_path / "ber.svg"
    plotting.write_ber_svg(str(path), [("A", [5.5], [0.11]), ("B", [5.5], [0.2])])
    svg = path.read_text()
    marks = re.findall(r'<polyline points="([^"]+)" [^>]*stroke-linecap="round"', svg)
    assert len(marks) == 2
    for pts in marks:
        first, second = pts.split()
        assert first == second
        x, y = map(float, first.split(","))
        assert _MARGIN_L < x < _WIDTH - _MARGIN_R
        assert _MARGIN_T <= y <= _HEIGHT - _MARGIN_B
    ticks = re.findall(r'<text [^>]*font-size="11">([^<]*)</text>', svg)
    assert [t for t in ticks if not t.startswith("1e")] == ["5.5"]


def test_a_multi_point_curve_is_one_plain_polyline(tmp_path):
    # BER 1 to 0.1 spans the plot area's one decade, corner to corner
    path = tmp_path / "ber.svg"
    plotting.write_ber_svg(str(path), [("A", [0.0, 10.0], [1.0, 0.1])])
    svg = path.read_text()
    assert "stroke-linecap" not in svg
    assert re.findall(r'<polyline points="([^"]+)"', svg) == [
        "70.00,30.00 560.00,430.00"]
