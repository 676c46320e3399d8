import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[1] / "scripts" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(before, after, name="m"):
    return [{"before": {"metrics": {name: b}}, "after": {"metrics": {name: a}}}
            for b, a in zip(before, after)]


class TestSummary:
    def test_a_throughput_loss_beyond_its_bound(self, bench):
        pairs = _pairs([8.0, 9.0, 10.0, 11.0, 12.0], [7.0, 7.5, 7.0, 13.0, 6.0])
        row = bench._summary(pairs, {"m": {"better": "higher", "bound": 0.25}})["m"]
        assert (row["before"]["median"], row["after"]["median"]) == (10.0, 7.0)
        assert row["before_iqr"] == 11.0 - 9.0
        assert row["median_change"] == -3.0
        assert row["relative_change"] == pytest.approx(-0.3)
        assert row["after_wins"] == 1 and row["pairs"] == 5
        assert row["worse_than_bound"]

    @pytest.mark.parametrize("after, worse", [(110.0, False), (114.0, False), (116.0, True),
                                              (50.0, False)])
    def test_lower_is_better(self, bench, after, worse):
        pairs = _pairs([100.0] * 3, [after] * 3)
        row = bench._summary(pairs, {"m": {"better": "lower", "bound": 0.15}})["m"]
        assert row["median_change"] == after - 100.0
        assert row["before_iqr"] == 0.0
        assert row["worse_than_bound"] is worse

    def test_a_gain_is_never_worse(self, bench):
        pairs = _pairs([1.0, 1.0], [2.0, 2.0])
        row = bench._summary(pairs, {"m": {"better": "higher", "bound": 0.0}})["m"]
        assert row["relative_change"] == 1.0 and not row["worse_than_bound"]
        assert row["after_wins"] == 2

    @pytest.mark.parametrize("after, worse", [(0.0, False), (0.5, True), (-0.5, False)])
    def test_a_zero_before_median(self, bench, after, worse):
        pairs = _pairs([0.0], [after])
        row = bench._summary(pairs, {"m": {"better": "lower", "bound": 0.25}})["m"]
        assert row["relative_change"] is None
        assert row["worse_than_bound"] is worse


class TestSrcLines:
    def test_every_line_of_the_package_modules_but_the_generated_tables(self, bench, tmp_path):
        package = tmp_path / "src" / "tfsep"
        (package / "sub").mkdir(parents=True)
        (package / "a.py").write_text("import os\n\n# a comment\n")   # blank lines count too
        (package / "b.py").write_text("x = 1\ny = 2")                  # no final newline
        (package / "_filter_tables.py").write_text("T = 1\n" * 100)
        (package / "notes.txt").write_text("not a module\n")
        (package / "sub" / "c.py").write_text("z = 3\n")              # not in src/tfsep itself
        assert bench._src_lines(tmp_path) == 5
