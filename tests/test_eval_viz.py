"""Tests for the evaluation harness (tables, runner, quick) and viz."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.eval.metrics import SuiteResult
from repro.eval.tables import format_comparison_table
from repro.service.api import OptResult
from repro.viz import ascii_image, save_pgm


def make_result(engine, values):
    result = SuiteResult(engine=engine)
    for i, (epe, pvb, rt) in enumerate(values):
        result.add(
            OptResult(
                request_id=i, clip_name=f"V{i + 1}", engine=engine,
                epe_nm=epe, pvband_nm2=pvb, runtime_s=rt, steps=0,
                early_exited=False,
            )
        )
    return result


class TestMetrics:
    def test_sums(self):
        result = make_result("x", [(10, 100, 1.0), (20, 300, 2.0)])
        assert result.epe_sum == 30
        assert result.pvband_sum == 400
        assert result.runtime_sum == 3.0

    def test_row_lookup(self):
        result = make_result("x", [(10, 100, 1.0)])
        assert result.row_for("V1").epe_nm == 10
        with pytest.raises(KeyError):
            result.row_for("V9")


class TestTables:
    def test_paper_format(self):
        ours = make_result("CAMO", [(10, 100, 1.0), (20, 200, 2.0)])
        base = make_result("Calibre", [(15, 110, 2.0), (25, 190, 3.0)])
        text = format_comparison_table(
            [base, ours], design_counts={"V1": 2, "V2": 3}, count_header="Via #"
        )
        assert "Sum" in text and "Ratio" in text
        assert "Via #" in text
        # Ratio of baseline EPE sum (40) to ours (30).
        assert "1.33" in text
        # Ours normalizes to 1.00.
        assert "1.00" in text

    def test_mismatched_clips_rejected(self):
        a = make_result("A", [(1, 1, 1)])
        b = make_result("B", [(1, 1, 1), (2, 2, 2)])
        with pytest.raises(ReproError):
            format_comparison_table([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            format_comparison_table([])


class TestQuick:
    def test_quick_opc_improves(self):
        from repro.eval.quick import quick_opc

        result = quick_opc()
        assert result.camo.epe_total < result.camo.epe_curve[0]
        assert "CAMO" in result.summary()


class TestViz:
    def test_ascii_shape(self):
        image = np.zeros((64, 64))
        image[20:40, 20:40] = 1.0
        art = ascii_image(image, width=32)
        lines = art.split("\n")
        assert len(lines[0]) == 32
        assert "@" in art and " " in art

    def test_ascii_validation(self):
        with pytest.raises(ReproError):
            ascii_image(np.zeros(5))

    def test_pgm_roundtrippable_header(self, tmp_path):
        path = str(tmp_path / "img.pgm")
        image = np.linspace(0, 1, 64 * 48).reshape(48, 64)
        save_pgm(image, path)
        with open(path, "rb") as handle:
            header = handle.readline(), handle.readline(), handle.readline()
            payload = handle.read()
        assert header[0] == b"P5\n"
        assert header[1] == b"64 48\n"
        assert len(payload) == 64 * 48

    def test_pgm_validation(self, tmp_path):
        with pytest.raises(ReproError):
            save_pgm(np.zeros(4), str(tmp_path / "bad.pgm"))


class TestExperimentScales:
    def test_get_scale(self):
        from repro.eval.experiments import SCALES, get_scale

        assert get_scale("smoke") is SCALES["smoke"]
        assert get_scale(SCALES["repro"]) is SCALES["repro"]
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            get_scale("gigantic")

    @pytest.mark.parametrize("layer", ["via", "metal"])
    def test_paper_scale_trains_with_the_paper_optimizer(self, layer):
        from repro.constants import LEARNING_RATE
        from repro.core.config import CamoConfig
        from repro.eval.experiments import camo_config

        paper = camo_config("paper", layer)
        profile = {
            "via": CamoConfig.paper_via, "metal": CamoConfig.paper_metal,
        }[layer]()
        assert (paper.optimizer, paper.learning_rate) == (
            profile.optimizer, profile.learning_rate,
        ) == ("sgd", LEARNING_RATE)
        defaults = CamoConfig()
        for name in ("smoke", "repro"):
            config = camo_config(name, layer)
            assert (config.optimizer, config.learning_rate) == (
                defaults.optimizer, defaults.learning_rate,
            )

    @pytest.mark.parametrize("layer", ["via", "metal"])
    def test_smoke_table_rows_are_verified_results(self, layer):
        """One verified service result per test clip per engine column,
        and the count column is the suite constants' prefix."""
        from repro.eval.experiments import LAYERS, table, trained_engines

        spec = LAYERS[layer]
        text, suites = table("smoke", layer)
        clips = trained_engines("smoke", layer)["test_clips"]
        names = [clip.name for clip in spec.test_suite()[: len(clips)]]
        assert [clip.name for clip in clips] == names
        assert list(suites) == list(spec.columns)
        for label, suite in suites.items():
            assert suite.engine == label
            assert [row.clip_name for row in suite.rows] == names
            for row in suite.rows:
                assert isinstance(row, OptResult)
                assert row.outcome == "verified"
                assert abs(row.verified_epe_nm - row.epe_nm) <= 1e-6
        lines = text.splitlines()
        assert lines[0] == spec.title
        assert spec.count_header in lines[1]
        counts = {
            line.split()[0]: int(line.split()[1])
            for line in lines[3:]
            if line.split()[0] in names
        }
        assert counts == dict(zip(names, spec.counts))

    def test_figure4_text(self):
        from repro.eval.experiments import figure4

        text = figure4((0, 5))
        assert "m1(-2)" in text
        assert "+5.0" in text
