"""`tools/layerbench.py` at a tiny size, with this tree as both parent and
change: every figure appears, with a finite ratio, equal outputs and a
finite A/A noise floor."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from outfitrec.model import FUSION_KINDS

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "layerbench.py"

TINY_SPEC = dict(num_types=4, num_styles=3, train_outfits=16,
                 valid_outfits=6, fc_questions=40, fitb_questions=20,
                 outfit_size=3, num_regions=4, num_words=3, region_dim=6,
                 word_dim=5, signal_rows=2)


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("layerbench", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "SPEC", TINY_SPEC)
    monkeypatch.setattr(module, "CONFIG", {
        **module.CONFIG, "batch_size": 32, "d_g": 8, "d_c": 8, "h": 8})
    return module


def test_same_tree_as_parent_and_change(tool, tmp_path, capsys):
    out = tmp_path / "layers.json"
    assert tool.main(["--parent", str(tool.ROOT), "--rounds", "2",
                      "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert list(result["layers"]) == (
        ["data.generate_synthetic", "data.save_dataset", "data.load_dataset",
         "training.sample_triplets"]
        + [f"compatibility.loss_step.{f}" for f in FUSION_KINDS]
        + [f"training.train.{f}" for f in FUSION_KINDS]
        + ["evaluation.evaluate"])
    for name, figure in result["layers"].items():
        assert figure["equal_outputs"] is True, name
        assert math.isfinite(figure["ratio"]) and figure["ratio"] > 0, name
        assert figure["pairs_ahead"].endswith("/2"), name
        assert math.isfinite(figure["aa_ratio"]) and figure["aa_ratio"] > 0, name
        low, high = figure["aa_spread"]
        assert math.isfinite(low) and math.isfinite(high), name
        assert 0 < low <= high, name
        assert figure["verdict"] in ("no change", "faster", "slower"), name
        for side in ("parent", "change"):
            assert figure[side]["median_ms"] > 0, name
            assert figure[side]["iqr_ms"] >= 0, name
    assert "DIFFER" not in capsys.readouterr().out


def test_one_tree_reports_its_own_figures(tool, tmp_path):
    out = tmp_path / "layers.json"
    assert tool.main(["--rounds", "1", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["parent"] is None
    assert all(set(figure) == {"change"}
               for figure in result["layers"].values())
