"""Tests for the analysis package: figures, report rendering, profiling."""

import pytest

from repro.analysis import (
    ALL_FIGURES,
    profile_queue,
    render_comparison,
    render_figure,
    render_table,
)
from repro.analysis.figures import (
    fig5_profiling,
    fig15_roofline,
    fig19_matmul,
    table1_alu_ops,
)
from repro.analysis.profiling import classify
from repro.runtime import Queue
from repro.xesim import DEVICE1, KernelProfile


class TestFigureGenerators:
    def test_registry_complete(self):
        """One generator per paper table/figure (+ per-device variants)."""
        expected = {
            "fig5_device1", "fig5_device2", "table1", "fig12", "fig13",
            "fig14a", "fig14b", "fig15", "fig16", "fig17", "fig18",
            "fig19_device1", "fig19_device2",
        }
        assert set(ALL_FIGURES) == expected

    @pytest.mark.parametrize("name", sorted(ALL_FIGURES))
    def test_all_generators_run(self, name):
        fig = ALL_FIGURES[name]()
        assert fig.series
        assert fig.paper and fig.measured

    def test_table1_exact(self):
        fig = table1_alu_ops()
        assert fig.deviations() == {
            "radix2_total": 1.0, "radix4_total": 1.0,
            "radix8_total": 1.0, "radix16_total": 1.0,
        }

    def test_fig5_within_band(self):
        fig = fig5_profiling("Device1")
        dev = fig.deviations()["avg_ntt_fraction"]
        assert 0.9 <= dev <= 1.15

    def test_fig15_densities_exact(self):
        fig = fig15_roofline()
        assert fig.measured["naive_density"] == pytest.approx(1.5)
        assert fig.measured["radix8_density"] == pytest.approx(8.9, abs=0.1)

    def test_fig19_deviations_bounded(self):
        for dev_name in ("Device1", "Device2"):
            fig = fig19_matmul(dev_name)
            for key, ratio in fig.deviations().items():
                assert 0.6 <= ratio <= 1.4, (dev_name, key, ratio)


class TestReportRendering:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2.5], [333, 4]])
        lines = out.split("\n")
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines[1:])

    def test_render_figure_contains_sections(self):
        out = render_figure(table1_alu_ops())
        assert "table1" in out
        assert "paper vs measured" in out
        assert "456" in out  # radix-8 total

    def test_render_comparison_ratios(self):
        out = render_comparison(table1_alu_ops())
        assert "1.00x" in out

    def test_float_formatting(self):
        out = render_table(["v"], [[0.000001], [123456.0], [1.5]])
        assert "e" in out  # scientific for extremes
        assert "1.5" in out


class TestProfiler:
    def test_classify(self):
        assert classify("ntt:ntt[naive]:global") == "ntt"
        assert classify("intt:ntt[naive]:slm") == "ntt"
        assert classify("dyadic:add") == "dyadic"
        assert classify("h2d:inputs") == "transfer"
        assert classify("misc") == "other"

    def test_profile_queue(self):
        q = Queue(device=DEVICE1)
        q.submit(KernelProfile("ntt:x", 10**6, 100, 100, 0, ntt_class=True))
        q.submit(KernelProfile("dyadic:add", 10**6, 10, 10, 0))
        rep = profile_queue(q)
        assert rep.event_count == 2
        assert 0 < rep.ntt_fraction < 1
        assert rep.total_s == pytest.approx(
            rep.by_kind["ntt"] + rep.by_kind["dyadic"]
        )
        assert max(rep.by_kind, key=rep.by_kind.get) == "ntt"
