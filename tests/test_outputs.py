from foilrl.outputs import write_csv, write_json


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
