"""Tests for the extension experiments (growth/diffusion/implications)."""

import dataclasses

from repro.experiments.registry import EXPERIMENTS


class TestExtensionRenderers:
    def test_growth_renders_with_world(self, study_results):
        text = EXPERIMENTS["ext_growth"].render(study_results)
        assert "densification exponent" in text
        assert "tipping point" in text

    def test_diffusion_renders_with_world(self, study_results):
        text = EXPERIMENTS["ext_diffusion"].render(study_results)
        assert "public posts reach" in text
        assert "Posting culture" in text or "posting culture" in text

    def test_implications_renders(self, study_results):
        text = EXPERIMENTS["ext_implications"].render(study_results)
        assert "Section 6" in text
        assert "political campaigns viable" in text

    def test_world_dependent_renderers_degrade_gracefully(self, study_results):
        """A StudyResults built from a foreign dataset has no world, so
        no growth or diffusion stage ran."""
        detached = dataclasses.replace(
            study_results, extras={}, growth=None, diffusion=None
        )
        assert "not available" in EXPERIMENTS["ext_growth"].render(detached)
        assert "not available" in EXPERIMENTS["ext_diffusion"].render(detached)
        # Implications only need measured artifacts, so they still work.
        assert "Section 6" in EXPERIMENTS["ext_implications"].render(detached)
