import os
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import numpy as np

from cfgctrl import svgplot

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_leaves_out_the_network_modules():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = "import sys, cfgctrl.cli; print(sorted(m for m in ('urllib.request', 'http.client', 'email') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_escape_matches_the_xml_escape():
    for text in ("plain", "a & b", "<tag>", "&amp; already", "x<y>z&&", "'quotes' \"too\"", ""):
        assert svgplot.escape(text) == sax_escape(text)


def test_titles_and_labels_are_escaped():
    svg = svgplot.line_chart([("w<2 & k>0", [0, 1], [1.0, 2.0])], "|e| & <s>", "x<", "y>")
    assert "|e| &amp; &lt;s&gt;" in svg and ">x&lt;<" in svg and ">y&gt;<" in svg
    assert "w&lt;2 &amp; k&gt;0" in svg


def test_scatter_places_each_point_as_x_px_and_y_px_do():
    rng = np.random.default_rng(5)
    xs = (rng.standard_normal(40) * 1e3).tolist() + [7, -3, float("nan")]
    ys = (rng.standard_normal(43) * 1e-4).tolist()
    frame = svgplot._Frame([x for x in xs if x == x], ys, "t", "x", "y")
    start = len(frame.parts)
    frame.scatter(xs, ys, "#1f77b4")
    want = [
        f'<circle cx="{frame.x_px(x):.2f}" cy="{frame.y_px(y):.2f}" r="2.5" fill="#1f77b4" fill-opacity="0.6"/>'
        for x, y in zip(xs, ys)
    ]
    assert frame.parts[start:] == want


def test_a_lone_subnormal_value_gets_a_unit_pad():
    # a tenth of 5e-324 underflows to 0, which left the frame with no width
    assert svgplot._bounds([5e-324]) == (5e-324 - 1.0, 5e-324 + 1.0)
    assert svgplot._bounds([0.0]) == (-1.0, 1.0) and svgplot._bounds([-2.0]) == (-2.2, -1.8)
    assert "<polyline" in svgplot.line_chart([("k", [5e-324], [1e-320])], "t", "x", "y")
