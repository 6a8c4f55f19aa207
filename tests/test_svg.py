import numpy as np

from codecal.binning import BinGrid
from codecal.groups import GroupSet
from codecal.metrics import evaluate
from codecal.svg import group_chart, reliability_chart


def small_report():
    scores = np.array([0.72, 0.68, 0.71, 0.25])
    labels = np.array([1, 0, 1, 0])
    cols = np.column_stack([np.ones(4, dtype=int), np.zeros(4, dtype=int)])
    groups = GroupSet.from_membership(["ALL", "empty & unused"], cols)
    return evaluate(scores, labels, BinGrid(10), groups)


class TestReliabilityChart:
    def test_one_bar_per_occupied_bin(self):
        report = small_report()
        svg = reliability_chart(report)
        assert svg.count('class="bar"') == len(report.reliability) == 3

    def test_is_wellformed_svg(self):
        svg = reliability_chart(small_report())
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "<script" not in svg

    def test_title_escaped(self):
        svg = reliability_chart(small_report(), title="a<b & c>d")
        assert "a&lt;b &amp; c&gt;d" in svg
        assert "a<b" not in svg


class TestGroupChart:
    def test_one_point_per_populated_group(self):
        svg = group_chart(small_report())
        assert svg.count('class="pt"') == 1

    def test_degenerate_group_not_drawn(self):
        svg = group_chart(small_report())
        assert "empty &amp; unused" not in svg

    def test_group_label_escaped(self):
        scores = np.array([0.5, 0.5])
        labels = np.array([1, 0])
        groups = GroupSet.from_membership(["len<40"], np.ones((2, 1), dtype=int))
        svg = group_chart(evaluate(scores, labels, BinGrid(10), groups))
        assert "len&lt;40" in svg
