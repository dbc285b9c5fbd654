import json
import math

import numpy as np
import pytest

from peplift.reports import ReportRow, dumps17, format17, write_rollup_csv


class TestDumps17:
    def test_floats_use_17_digits_and_roundtrip(self):
        value = 1.0 / 3.0
        text = dumps17({"v": value})
        assert "0.33333333333333331" in text
        assert json.loads(text)["v"] == value

    def test_nested_structures(self):
        doc = {"a": [1, 2.5, None, True], "b": {"c": False, "d": "x"}}
        assert json.loads(dumps17(doc)) == doc

    def test_numpy_scalars_and_arrays(self):
        doc = {"arr": np.array([1.5, 2.0]), "f": np.float64(0.1), "i": np.int64(3), "b": np.bool_(True)}
        back = json.loads(dumps17(doc))
        assert back == {"arr": [1.5, 2.0], "f": 0.1, "i": 3, "b": True}

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dumps17({"v": math.inf})
        with pytest.raises(ValueError):
            format17(math.nan)

    def test_empty_containers(self):
        assert dumps17({}) == "{}\n"
        assert dumps17([]) == "[]\n"
        assert dumps17({"a": {}, "b": [], "c": ()}) == '{\n  "a": {},\n  "b": [],\n  "c": []\n}\n'

    @pytest.mark.parametrize("key", [1, None, ("a",)])
    def test_non_string_key_rejected(self, key):
        with pytest.raises(TypeError, match="keys must be strings"):
            dumps17({"ok": 1, key: 2})

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            dumps17({"v": object()})

    def test_deterministic_output(self):
        doc = {"x": [0.1 * i for i in range(20)]}
        assert dumps17(doc) == dumps17(doc)


class TestRollupCsv:
    def test_round_trip_fields(self, tmp_path):
        row = ReportRow(
            algorithm="ogm", metric="func", size=4,
            residual_identity=1e-15, residual_composite=2e-14,
            feasible=True, certified_rate=0.05, paper_rate=0.05,
            observed_worst_ratio=None, runtime_ms=12.5, passed=True,
        )
        path = tmp_path / "rollup.csv"
        write_rollup_csv([row], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(ReportRow.CSV_FIELDS)
        cells = lines[1].split(",")
        assert cells[0] == "ogm" and cells[-1] == "true"
        assert float(cells[3]) == 1e-15
