"""Smoke tests: every example script must run end to end.

Examples are executed in-process at a reduced scale so the whole module
stays fast; their printed narrative is checked for the key landmarks.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesRun:
    def test_examples_directory_complete(self):
        names = {p.stem for p in EXAMPLES_DIR.glob("*.py")}
        assert {
            "quickstart",
            "social_network_analysis",
            "cluster_design_space",
            "granularity_tuning",
        } <= names

    def test_quickstart(self, capsys):
        load_example("quickstart").main(scale=13)
        out = capsys.readouterr().out
        assert "validation checks passed" in out
        assert "Fully optimized" in out
        assert "GTEPS" in out or "TEPS" in out

    def test_social_network_analysis(self, capsys):
        load_example("social_network_analysis").main(scale=13)
        out = capsys.readouterr().out
        assert "degrees of separation" in out
        assert "production scale" in out

    def test_cluster_design_space(self, capsys):
        load_example("cluster_design_space").main()
        out = capsys.readouterr().out
        assert "best design" in out
        assert "GTEPS" in out

    def test_granularity_tuning(self, capsys):
        mod = load_example("granularity_tuning")
        mod.measure_zero_fractions(scale=13)
        mod.tune(target_scale=30, nodes=8)
        out = capsys.readouterr().out
        assert "recommended granularity" in out
        assert "zero fraction" in out

    def test_quickstart_optimized_wins_at_paper_scale(self, capsys):
        """The example's core message: the optimization stack beats the
        ppn=1 baseline at its target scale."""
        load_example("quickstart").main(scale=13)
        out = capsys.readouterr().out
        import re

        teps = [
            float(m)
            for m in re.findall(r"harmonic-mean TEPS : (\d+\.\d+) GTEPS", out)
        ]
        assert len(teps) == 3
        assert teps[2] > teps[0]  # optimized > ppn=1
