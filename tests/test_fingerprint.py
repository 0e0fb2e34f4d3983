"""`tools/fingerprint.py`: same-seed runs give equal JSON, and `--against`
names a change to the loss at step 0 of every fuser."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from outfitrec.data import SyntheticSpec, generate_synthetic
from outfitrec.model import FUSION_KINDS

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"

TINY_SPEC = SyntheticSpec(num_types=4, num_styles=3, train_outfits=16,
                          valid_outfits=6, fc_questions=40, fitb_questions=20,
                          outfit_size=3, num_regions=4, num_words=3,
                          region_dim=6, word_dim=5, signal_rows=2)


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "SPEC", TINY_SPEC)
    monkeypatch.setattr(module, "CONFIG", dataclasses.replace(
        module.CONFIG, batch_size=32, d_g=8, d_c=8, h=8))
    monkeypatch.setattr(module, "SAVE_SPEC", dataclasses.replace(
        TINY_SPEC, undescribed_frac=0.2))
    return module


def test_same_seed_runs_give_equal_json(tool, tmp_path, capsys):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert tool.main(["--out", str(first)]) == 0
    assert tool.main(["--out", str(second), "--against", str(first)]) == 0
    assert first.read_text() == second.read_text()
    assert "0 differing figure(s)" in capsys.readouterr().out


def test_against_names_step_0_of_every_fuser(tool, tmp_path, monkeypatch,
                                             capsys):
    before = tmp_path / "before.json"
    tool.main(["--out", str(before)])
    capsys.readouterr()
    monkeypatch.setattr(tool, "CONFIG", dataclasses.replace(
        tool.CONFIG, lambda_vse=tool.CONFIG.lambda_vse * 1.001))
    assert tool.main(["--against", str(before)]) == 1
    out = capsys.readouterr().out
    for fusion in FUSION_KINDS:
        assert (f"fusers.{fusion}.step_losses: first differing step 0 "
                in out), out
        assert f"fusers.{fusion}.params_sha256:" in out
        assert f"fusers.{fusion}.fc_pair_scores_sha256:" in out
        assert f"fusers.{fusion}.fitb_totals_sha256:" in out
    # the sampled triplets and the dataset do not depend on the loss
    assert "triplets_sha256" not in out
    assert "save_dataset_sha256" not in out


def test_first_batch_graph_counts_nodes_per_op(tool):
    graph = tool.first_batch_graph(generate_synthetic(TINY_SPEC, 42),
                                   tool.CONFIG)
    assert sum(graph["ops"].values()) == graph["nodes"]
    assert graph["ops"]["loss_head"] == 1   # every loss term and the total
    for gone in ("margin_hinges", "role_cosines", "Tensor.relu"):
        assert gone not in graph["ops"]
