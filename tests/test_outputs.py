import numpy as np

from foilrl.outputs import write_csv, write_json
from foilrl.plotting import write_svg_lines, write_svg_scatter


class TestWriteCsv:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c", "d", "e"], [
            [1.0 / 3.0, 7, float("nan"), "naca, 2412", True],
            [2.5e-12, -3, float("-inf"), "x", False],
        ])
        assert path.read_bytes() == (
            b"a,b,c,d,e\r\n"
            b'0.3333333333,7,nan,"naca, 2412",True\r\n'
            b"2.5e-12,-3,-inf,x,False\r\n"
        )

    def test_generator_rows_and_no_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["i", "v"], enumerate([0.1, 100.0], start=1))
        assert path.read_bytes() == b"i,v\r\n1,0.1\r\n2,100\r\n"
        write_csv(path, ["i"], [])
        assert path.read_bytes() == b"i\r\n"


class TestWriteJson:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"b": [1, 2.5], "a": {"z": None, "y": "s"}, "c": float("nan")})
        assert path.read_bytes() == (
            b'{\n "a": {\n  "y": "s",\n  "z": null\n },\n'
            b' "b": [\n  1,\n  2.5\n ],\n "c": NaN\n}\n'
        )


_SVG_HEAD = (
    b'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="420" viewBox="0 0 640 420"'
    b' font-family="sans-serif" font-size="12">\n'
    b'<rect width="640" height="420" fill="white"/>\n'
)
_SVG_AXES = (
    b'<line x1="50" y1="370" x2="590" y2="370" stroke="black"/>\n'
    b'<line x1="50" y1="50" x2="50" y2="370" stroke="black"/>\n'
)


class TestWriteSvg:
    def test_lines_golden_bytes(self, tmp_path):
        # The NaN y is dropped from the line and the y range, but its x still sets the x range.
        path = tmp_path / "l.svg"
        write_svg_lines(path, {
            "a": (np.array([0.0, 1.0, 3.0]), np.array([1.0, 2.0, float("nan")])),
            "b": (np.array([0.0, 2.0]), np.array([2.0, 0.5])),
        }, title="T", xlabel="x", ylabel="y")
        assert path.read_bytes() == _SVG_HEAD + (
            b'<text x="320.0" y="20" text-anchor="middle" font-size="14">T</text>\n'
        ) + _SVG_AXES + (
            b'<text x="320.0" y="408" text-anchor="middle">x</text>\n'
            b'<text x="14" y="210.0" text-anchor="middle" transform="rotate(-90 14 210.0)">y</text>\n'
            b'<text x="50" y="386" text-anchor="middle">0</text>\n'
            b'<text x="590" y="386" text-anchor="middle">3</text>\n'
            b'<text x="44" y="370" text-anchor="end">0.5</text>\n'
            b'<text x="44" y="54" text-anchor="end">2</text>\n'
            b'<polyline points="50.0,263.3 230.0,50.0" fill="none" stroke="#1f77b4"'
            b' stroke-width="1.5"/>\n'
            b'<text x="590" y="50" text-anchor="end" fill="#1f77b4">a</text>\n'
            b'<polyline points="50.0,50.0 410.0,370.0" fill="none" stroke="#d62728"'
            b' stroke-width="1.5"/>\n'
            b'<text x="590" y="66" text-anchor="end" fill="#d62728">b</text>\n'
            b'</svg>\n'
        )

    def test_scatter_golden_bytes(self, tmp_path):
        path = tmp_path / "s.svg"
        write_svg_scatter(path, {
            "front": (np.array([1.0, 4.0]), np.array([10.0, 20.0])),
            "dominated": (np.array([2.0]), np.array([5.0])),
        }, title="P", xlabel="dmt", ylabel="best")
        assert path.read_bytes() == _SVG_HEAD + (
            b'<text x="320.0" y="20" text-anchor="middle" font-size="14">P</text>\n'
        ) + _SVG_AXES + (
            b'<text x="320.0" y="408" text-anchor="middle">dmt</text>\n'
            b'<text x="14" y="210.0" text-anchor="middle" transform="rotate(-90 14 210.0)">best</text>\n'
            b'<text x="50" y="386" text-anchor="middle">1</text>\n'
            b'<text x="590" y="386" text-anchor="middle">4</text>\n'
            b'<text x="44" y="370" text-anchor="end">5</text>\n'
            b'<text x="44" y="54" text-anchor="end">20</text>\n'
            b'<circle cx="50.0" cy="263.3" r="3" fill="#1f77b4" fill-opacity="0.6"/>\n'
            b'<circle cx="590.0" cy="50.0" r="3" fill="#1f77b4" fill-opacity="0.6"/>\n'
            b'<text x="590" y="50" text-anchor="end" fill="#1f77b4">front</text>\n'
            b'<circle cx="230.0" cy="370.0" r="3" fill="#d62728" fill-opacity="0.6"/>\n'
            b'<text x="590" y="66" text-anchor="end" fill="#d62728">dominated</text>\n'
            b'</svg>\n'
        )
