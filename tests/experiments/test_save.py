"""Tests for artifact saving."""

from repro.experiments.runner import build_study_report, save_artifacts


class TestSaveArtifacts:
    def test_writes_selected(self, study_results, tmp_path):
        written = save_artifacts(study_results, tmp_path, ["table2", "fig6"])
        assert {p.name for p in written} == {"table2.txt", "fig6.txt"}
        content = (tmp_path / "table2.txt").read_text()
        assert "Public attributes" in content

    def test_writes_all_by_default(self, study_results, tmp_path):
        written = save_artifacts(study_results, tmp_path)
        assert len(written) == 20

    def test_creates_directory(self, study_results, tmp_path):
        target = tmp_path / "deep" / "dir"
        save_artifacts(study_results, target, ["fig3"])
        assert (target / "fig3.txt").exists()


class TestStudyReport:
    def test_extra_carries_table4_diameters(self, study_results):
        extra = build_study_report(study_results).extra
        row = study_results.table4_row
        assert extra["table4_diameters"] == {
            "directed": row.diameter,
            "undirected": row.undirected_diameter,
        }
        assert all(isinstance(v, int) for v in extra["table4_diameters"].values())

    def test_extra_carries_stage_peak_rss(self, study_results):
        peaks = build_study_report(study_results).extra["stage_peak_rss_mb"]
        assert list(peaks) == [
            "study.crawl",
            "study.freeze_graph",
            "study.geo_index",
            "study.analyze.paths",
            "study.analyze.structure",
            "study.analyze.profiles",
            "study.analyze.geography",
            "study.analyze.growth",
            "study.analyze.diffusion",
        ]
        values = list(peaks.values())
        # ru_maxrss is a high-water mark: it never falls between stages.
        assert values[0] > 0 and values == sorted(values)


class TestCliSave:
    def test_save_renders_each_artifact_once(self, tmp_path, monkeypatch, capsys):
        import dataclasses

        from repro.experiments.registry import EXPERIMENTS
        from repro.experiments.runner import main

        calls = []
        original = EXPERIMENTS["table2"]

        def counting(results):
            calls.append(results)
            return original.render(results)

        monkeypatch.setitem(
            EXPERIMENTS, "table2", dataclasses.replace(original, render=counting)
        )
        assert main(["--users", "1200", "--seed", "3", "--save", str(tmp_path), "table2"]) == 0
        assert len(calls) == 1
        saved = (tmp_path / "table2.txt").read_text(encoding="utf-8")
        assert saved.rstrip("\n") in capsys.readouterr().out
