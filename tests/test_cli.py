"""End-to-end command-line workflows on tiny synthetic datasets."""

import inspect
import json
import time
from itertools import combinations

import numpy as np
import pytest
from click.testing import CliRunner

from outfitrec import cli, errors
from outfitrec.cli import main
from outfitrec.compatibility import pair_score
from outfitrec.data import canonical_pair, load_dataset
from outfitrec.evaluation import evaluate
from outfitrec.model import ModelDims, init_model, load_model, save_model

GEN_ARGS = ["--num-types", "4", "--num-styles", "3", "--train-outfits", "20",
            "--valid-outfits", "4", "--fc-questions", "20",
            "--fitb-questions", "10", "--outfit-size", "3",
            "--num-regions", "4", "--num-words", "3",
            "--region-dim", "6", "--word-dim", "5"]

TRAIN_CONFIG = {"fusion": "baseline", "epochs": 1, "learning_rate": 1e-3,
                "batch_size": 32, "d_g": 8, "d_c": 8, "h": 8, "runs": 2}


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def data_dir(tmp_path, runner):
    out = tmp_path / "data"
    result = runner.invoke(main, ["gen", "--out", str(out), "--seed", "5",
                                  *GEN_ARGS])
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture()
def run_dir(tmp_path, runner, data_dir):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(TRAIN_CONFIG))
    out = tmp_path / "runs"
    result = runner.invoke(main, ["train", "--data",
                                  str(data_dir / "manifest.json"),
                                  "--config", str(cfg_path),
                                  "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    return out


class TestGen:
    def test_output_loads_and_counts_match(self, data_dir, runner):
        ds = load_dataset(data_dir / "manifest.json")
        assert len(ds.fc_questions) == 20
        assert len(ds.fitb_questions) == 10
        assert len(ds.outfits["train"]) == 20
        assert len(ds.outfits["valid"]) == 4

    def test_same_seed_is_byte_identical(self, tmp_path, runner):
        for name in ("a", "b"):
            result = runner.invoke(main, ["gen", "--out",
                                          str(tmp_path / name),
                                          "--seed", "3", *GEN_ARGS])
            assert result.exit_code == 0, result.output
        files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
        for pa in files_a:
            pb = tmp_path / "b" / pa.relative_to(tmp_path / "a")
            assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("args, message", [
        # the last --num-styles wins
        ([*GEN_ARGS, "--num-styles", "1"], "need at least 2 style clusters"),
        # eight types leave too few test items to draw FITB distractors from
        ([*GEN_ARGS, "--num-types", "8"],
         "too few same-type cross-style items"),
    ], ids=["num_styles", "fitb_distractors"])
    def test_invalid_spec_is_a_usage_error(self, tmp_path, runner, args,
                                           message):
        result = runner.invoke(main, ["gen", "--out", str(tmp_path / "x"),
                                      *args])
        assert_usage_error(result, message)

    def test_arrays_beyond_memory_are_a_usage_error(self, tmp_path, runner):
        # a size numpy refuses at once, so no memory is touched
        result = runner.invoke(main, ["gen", "--out", str(tmp_path / "x"),
                                      *GEN_ARGS, "--num-regions", str(10**17)])
        assert_one_error_line(result, "do not fit in memory")

    def test_arrays_beyond_intp_are_a_usage_error(self, tmp_path, runner):
        # the byte count passes the intp limit: numpy raises ValueError
        result = runner.invoke(main, ["gen", "--out", str(tmp_path / "x"),
                                      "--num-regions", str(10**18),
                                      "--region-dim", "16"])
        assert_one_error_line(result, "do not fit in memory")

    def test_out_path_that_is_a_file_is_a_usage_error(self, tmp_path,
                                                      runner):
        out = tmp_path / "taken"
        out.write_text("")
        result = runner.invoke(main, ["gen", "--out", str(out), *GEN_ARGS])
        assert_usage_error(result, str(out))
        assert result.exit_code == 1

    def test_out_path_is_checked_before_generating(self, tmp_path, runner,
                                                   monkeypatch):
        monkeypatch.setattr(cli, "generate_synthetic", fail_if_called)
        out = tmp_path / "taken"
        out.write_text("")
        result = runner.invoke(main, ["gen", "--out", str(out), *GEN_ARGS])
        assert_usage_error(result, str(out))
        assert result.exit_code == 1


class TestTrain:
    def test_writes_config_checkpoints_and_metrics(self, run_dir):
        echoed = json.loads((run_dir / "config.json").read_text())
        for key, value in TRAIN_CONFIG.items():
            assert echoed[key] == value
        assert (run_dir / "run0.ckpt").exists()
        assert (run_dir / "run1.ckpt").exists()
        records = [json.loads(line) for line in
                   (run_dir / "metrics.jsonl").read_text().splitlines()]
        assert {(r["run"], r["epoch"]) for r in records} == {(0, 0), (1, 0)}
        for r in records:
            assert np.isfinite(r["mean_loss"])

    def test_cli_overrides_beat_config_file(self, tmp_path, runner, data_dir):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TRAIN_CONFIG))
        out = tmp_path / "runs1"
        result = runner.invoke(main, ["train", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--config", str(cfg_path),
                                      "--out-dir", str(out),
                                      "--runs", "1", "--epochs", "0"])
        assert result.exit_code == 0, result.output
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["runs"] == 1 and echoed["epochs"] == 0
        assert (out / "run0.ckpt").exists()
        assert not (out / "run1.ckpt").exists()

    def test_log_level_shows_epoch_progress(self, tmp_path, runner, data_dir):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TRAIN_CONFIG))
        args = ["train", "--data", str(data_dir / "manifest.json"),
                "--config", str(cfg_path), "--runs", "1"]
        quiet = runner.invoke(main, [*args, "--out-dir", str(tmp_path / "q")])
        loud = runner.invoke(main, ["--log-level", "info", *args,
                                    "--out-dir", str(tmp_path / "l")])
        assert quiet.exit_code == 0 and loud.exit_code == 0, loud.output
        assert quiet.stderr == ""
        assert loud.stdout.startswith("trained 1 run(s)")
        assert "INFO outfitrec.training: epoch 0: loss" in loud.stderr

    def test_unknown_config_key_fails(self, tmp_path, runner, data_dir):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"optimizer": "sgd"}))
        result = runner.invoke(main, ["train", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--config", str(cfg_path),
                                      "--out-dir", str(tmp_path / "x")])
        assert result.exit_code != 0

    @pytest.mark.parametrize("text", [
        "{not json", "[1, 2]", json.dumps({"optimizer": "sgd"})],
        ids=["malformed_json", "json_list", "unknown_key"])
    def test_bad_config_file_fails_without_traceback(self, tmp_path, runner,
                                                     data_dir, text):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(text)
        result = runner.invoke(main, ["train", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--config", str(cfg_path),
                                      "--out-dir", str(tmp_path / "x")])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit), result.exception
        assert str(cfg_path) in result.output

    def test_dims_beyond_memory_are_a_usage_error(self, tmp_path, runner,
                                                  data_dir):
        # a size numpy refuses at once, so no memory is touched
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**TRAIN_CONFIG, "d_g": 10**17}))
        result = runner.invoke(main, ["train", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--config", str(cfg_path),
                                      "--out-dir", str(tmp_path / "x")])
        assert_one_error_line(result, "do not fit in memory")

    def test_dims_beyond_intp_are_a_usage_error(self, tmp_path, runner,
                                                data_dir):
        # the byte count passes the intp limit: numpy raises ValueError
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**TRAIN_CONFIG, "d_g": 10**18}))
        result = runner.invoke(main, ["train", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--config", str(cfg_path),
                                      "--out-dir", str(tmp_path / "x")])
        assert_one_error_line(result, "do not fit in memory")

    def test_huge_hop_count_is_a_usage_error(self, tmp_path, runner,
                                             data_dir):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**TRAIN_CONFIG, "fusion": "stacked",
                                        "hops": 10**9}))
        start = time.perf_counter()
        result = runner.invoke(main, ["train", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--config", str(cfg_path),
                                      "--out-dir", str(tmp_path / "x")])
        assert time.perf_counter() - start < 1.0
        assert_one_error_line(result, "1000000000 hops need")

    def test_malformed_manifest_is_a_usage_error(self, tmp_path, runner):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{}")
        result = runner.invoke(main, ["train", "--data", str(manifest),
                                      "--out-dir", str(tmp_path / "x")])
        assert_usage_error(result, "manifest")

    def test_out_dir_that_is_a_file_is_a_usage_error(self, tmp_path, runner,
                                                      data_dir):
        out = tmp_path / "taken"
        out.write_text("")
        result = runner.invoke(main, ["train", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--out-dir", str(out)])
        assert_usage_error(result, str(out))
        assert result.exit_code == 1


    def test_negative_seed_is_a_config_error(self, tmp_path, runner,
                                             data_dir):
        """`TrainConfig.validate` owns the seed rule, so a negative seed is
        exit status 1, not a click range's 2."""
        result = runner.invoke(main, ["train", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--out-dir", str(tmp_path / "x"),
                                      "--seed", "-1"])
        assert_usage_error(result, "seed must be >= 0")
        assert result.exit_code == 1
        assert len(result.output.splitlines()) == 1


class TestEval:
    def test_report_is_written_and_parseable(self, tmp_path, runner,
                                             data_dir, run_dir):
        report_path = tmp_path / "report.json"
        result = runner.invoke(main, ["eval", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--checkpoints", str(run_dir),
                                      "--report", str(report_path)])
        assert result.exit_code == 0, result.output
        report = json.loads(report_path.read_text())
        assert len(report["fc_auc_per_run"]) == 2
        assert 0.0 <= report["fc_auc_mean"] <= 1.0
        assert 0.0 <= report["fitb_accuracy_vote"] <= 1.0
        assert "FC AUC mean" in result.output

    def test_per_run_lists_follow_the_run_number(self, tmp_path, runner,
                                                 data_dir):
        """run2 sorts before run10 although "run10" < "run2" as text."""
        ds = load_dataset(data_dir / "manifest.json")
        dims = ModelDims(d_g=4, d_c=4, h=4, hops=1, mfb_factor=1,
                         region_dim=6, word_dim=5)
        runs = tmp_path / "runs"
        runs.mkdir()
        aucs = []
        for run, seed in ((2, 0), (10, 1)):
            model = init_model("baseline", dims, ds.trained_type_pairs(), seed)
            save_model(model, runs / f"run{run}.ckpt")
            aucs.append(evaluate(ds, [load_model(runs / f"run{run}.ckpt")])
                        .fc_auc_per_run[0])
        assert aucs[0] != aucs[1]
        report_path = tmp_path / "r.json"
        result = runner.invoke(main, ["eval", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--checkpoints", str(runs),
                                      "--report", str(report_path)])
        assert result.exit_code == 0, result.output
        assert json.loads(report_path.read_text())["fc_auc_per_run"] == aucs

    def test_missing_checkpoints_fail(self, tmp_path, runner, data_dir):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = runner.invoke(main, ["eval", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--checkpoints", str(empty),
                                      "--report", str(tmp_path / "r.json")])
        assert result.exit_code != 0


    def test_malformed_checkpoint_is_a_usage_error(self, tmp_path, runner,
                                                   data_dir):
        bad = tmp_path / "run0.ckpt"
        bad.write_bytes(b"not a checkpoint")
        result = runner.invoke(main, ["eval", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--checkpoints", str(bad),
                                      "--report", str(tmp_path / "r.json")])
        assert_usage_error(result, str(bad))

    def test_directory_named_like_a_checkpoint_is_a_usage_error(
            self, tmp_path, runner, data_dir):
        bad = tmp_path / "runs" / "run9.ckpt"
        bad.mkdir(parents=True)
        result = runner.invoke(main, ["eval", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--checkpoints", str(bad.parent),
                                      "--report", str(tmp_path / "r.json")])
        assert_usage_error(result, str(bad))

    def test_report_in_a_missing_directory_is_a_usage_error(
            self, tmp_path, runner, data_dir, run_dir):
        report_path = tmp_path / "missing" / "r.json"
        result = runner.invoke(main, ["eval", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--checkpoints", str(run_dir),
                                      "--report", str(report_path)])
        assert_usage_error(result, str(report_path))
        assert result.exit_code == 1

    def test_report_directory_is_checked_before_loading(
            self, tmp_path, runner, data_dir, run_dir, monkeypatch):
        for name in ("load_dataset", "load_model", "evaluate"):
            monkeypatch.setattr(cli, name, fail_if_called)
        report_path = tmp_path / "missing" / "r.json"
        result = runner.invoke(main, ["eval", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--checkpoints", str(run_dir),
                                      "--report", str(report_path)])
        assert_usage_error(result, str(report_path))
        assert result.exit_code == 1

    def test_checkpoints_of_two_configurations_are_a_usage_error(
            self, tmp_path, runner, data_dir):
        dims = ModelDims(d_g=4, d_c=4, h=4, hops=1, mfb_factor=1,
                         region_dim=6, word_dim=5)
        runs = tmp_path / "mixed"
        runs.mkdir()
        for run, pairs in enumerate(({("a", "b")}, {("a", "c")})):
            save_model(init_model("baseline", dims, pairs, seed=0),
                       runs / f"run{run}.ckpt")
        result = runner.invoke(main, ["eval", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--checkpoints", str(runs),
                                      "--report", str(tmp_path / "r.json")])
        assert_usage_error(result, "models disagree on trained type pairs")

    def test_one_label_fc_questions_are_a_usage_error(self, tmp_path, runner,
                                                      data_dir, run_dir):
        manifest_path = data_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for question in manifest["questions"]["fc"]:
            question["label"] = 1
        manifest_path.write_text(json.dumps(manifest))
        result = runner.invoke(main, ["eval", "--data", str(manifest_path),
                                      "--checkpoints", str(run_dir),
                                      "--report", str(tmp_path / "r.json")])
        assert_usage_error(result, "AUC undefined")


class TestScore:
    def test_prints_pair_score(self, tmp_path, runner, data_dir, run_dir):
        ds = load_dataset(data_dir / "manifest.json")
        model = load_model(run_dir / "run0.ckpt")
        outfit = ds.outfits["train"][0]
        a, b = outfit.items[0], outfit.items[1]
        result = runner.invoke(main, ["score", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--checkpoint",
                                      str(run_dir / "run0.ckpt"),
                                      "-a", a, "-b", b])
        assert result.exit_code == 0, result.output
        expected = pair_score(model, ds.items[a], ds.items[b])
        assert float(result.output.strip()) == pytest.approx(expected,
                                                             abs=1e-6)

    def test_unknown_item_fails_cleanly(self, runner, data_dir, run_dir):
        result = runner.invoke(main, ["score", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--checkpoint",
                                      str(run_dir / "run0.ckpt"),
                                      "-a", "nope", "-b", "nope2"])
        assert result.exit_code != 0
        assert "unknown item id" in result.output

    def test_undescribed_item_is_a_usage_error(self, tmp_path, runner):
        out = tmp_path / "data"
        result = runner.invoke(main, ["gen", "--out", str(out), "--seed", "5",
                                      *GEN_ARGS, "--undescribed-frac", "0.5"])
        assert result.exit_code == 0, result.output
        ds = load_dataset(out / "manifest.json")
        a = next(i for i, item in ds.items.items() if not item.described)
        b = next(i for i, item in ds.items.items() if item.described)
        dims = ModelDims(d_g=4, d_c=4, h=4, hops=1, mfb_factor=1,
                         region_dim=6, word_dim=5)
        save_model(init_model("baseline", dims, ds.trained_type_pairs(), 0),
                   tmp_path / "run0.ckpt")
        result = runner.invoke(main, ["score", "--data",
                                      str(out / "manifest.json"),
                                      "--checkpoint",
                                      str(tmp_path / "run0.ckpt"),
                                      "-a", a, "-b", b])
        assert_usage_error(result, f"item {a!r} has no description")
        assert result.exit_code == 1
        assert len(result.output.splitlines()) == 1

    def test_undescribed_item_in_an_untrained_pair(self, tmp_path, runner):
        """The missing description is reported before the type pair."""
        out = tmp_path / "data"
        result = runner.invoke(main, ["gen", "--out", str(out), "--seed", "5",
                                      *GEN_ARGS, "--train-outfits", "1",
                                      "--undescribed-frac", "0.5"])
        assert result.exit_code == 0, result.output
        ds = load_dataset(out / "manifest.json")
        trained = ds.trained_type_pairs()
        a, b = next((a, b) for a in ds.items.values() if not a.described
                    for b in ds.items.values() if b.described
                    and canonical_pair(a.type.name, b.type.name) not in trained)
        dims = ModelDims(d_g=4, d_c=4, h=4, hops=1, mfb_factor=1,
                         region_dim=6, word_dim=5)
        model = init_model("baseline", dims, trained, 0)
        save_model(model, tmp_path / "run0.ckpt")
        result = runner.invoke(main, ["score", "--data",
                                      str(out / "manifest.json"),
                                      "--checkpoint",
                                      str(tmp_path / "run0.ckpt"),
                                      "-a", b.id, "-b", a.id])
        with pytest.raises(errors.DomainError,
                           match=f"item {a.id!r} has no description"):
            pair_score(model, a, b)
        assert_one_error_line(result, f"item {a.id!r} has no description")

    def test_untrained_type_pair_is_one_unquoted_error_line(self, tmp_path,
                                                            runner):
        """One train outfit of three of the four types leaves the fourth
        type in no trained pair."""
        out = tmp_path / "data"
        result = runner.invoke(main, ["gen", "--out", str(out), "--seed", "5",
                                      *GEN_ARGS, "--train-outfits", "1"])
        assert result.exit_code == 0, result.output
        ds = load_dataset(out / "manifest.json")
        trained = ds.trained_type_pairs()
        a, b = next((a, b) for a, b in combinations(ds.items.values(), 2)
                    if (a.type.name, b.type.name) not in trained
                    and (b.type.name, a.type.name) not in trained)
        dims = ModelDims(d_g=4, d_c=4, h=4, hops=1, mfb_factor=1,
                         region_dim=6, word_dim=5)
        model = init_model("baseline", dims, trained, 0)
        save_model(model, tmp_path / "run0.ckpt")
        result = runner.invoke(main, ["score", "--data",
                                      str(out / "manifest.json"),
                                      "--checkpoint",
                                      str(tmp_path / "run0.ckpt"),
                                      "-a", a.id, "-b", b.id])
        with pytest.raises(errors.UnseenTypePairError) as info:
            pair_score(model, a, b)
        message = info.value.args[0]
        assert str(info.value) == message
        assert message.startswith("no compatibility space trained")
        assert result.exit_code == 1
        assert result.output.splitlines() == [f"Error: {message}"]

    def test_checkpoint_directory_is_a_usage_error(self, runner, data_dir,
                                                   run_dir):
        result = runner.invoke(main, ["score", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--checkpoint", str(run_dir),
                                      "-a", "x", "-b", "y"])
        assert_usage_error(result, str(run_dir))

    def test_truncated_feature_file_is_a_usage_error(self, runner, data_dir,
                                                     run_dir):
        regions = data_dir / "regions.f32"
        regions.write_bytes(regions.read_bytes()[:-4])
        result = runner.invoke(main, ["score", "--data",
                                      str(data_dir / "manifest.json"),
                                      "--checkpoint",
                                      str(run_dir / "run0.ckpt"),
                                      "-a", "x", "-b", "y"])
        assert_usage_error(result, "regions.f32")


def fail_if_called(*args, **kwargs):
    raise AssertionError("the command did its work before checking its output")


def assert_usage_error(result, message):
    """A package error reached the user as one line, not a traceback."""
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Error:" in result.output and message in result.output


def assert_one_error_line(result, message):
    """The usage error is the command's only output, with exit status 1."""
    assert_usage_error(result, message)
    assert result.exit_code == 1
    assert len(result.output.splitlines()) == 1, result.output


def test_every_package_error_is_an_outfitrec_error():
    """The CLI reports `OutfitrecError` as a usage error, so a new error
    class outside it would reach the user as a traceback."""
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, BaseException)
               and cls.__module__ == errors.__name__
               and cls is not errors.OutfitrecError]
    assert classes
    for cls in classes:
        assert issubclass(cls, errors.OutfitrecError), cls.__name__


@pytest.mark.parametrize("args, option", [
    (["gradcheck", "--d-g", "0"], "--d-g"),
    (["gradcheck", "--seed", "-1"], "--seed"),
    (["gradcheck", "--rel-tol", "-1"], "--rel-tol"),
    (["gradcheck", "--rel-tol", "nan"], "--rel-tol"),
    (["gradcheck", "--rel-tol", "inf"], "--rel-tol"),
    (["gen", "--seed", "-1"], "--seed"),
], ids=["gradcheck_d_g", "gradcheck_seed", "gradcheck_rel_tol",
        "gradcheck_rel_tol_nan", "gradcheck_rel_tol_inf", "gen_seed"])
def test_out_of_range_number_is_a_usage_error(tmp_path, runner, args, option):
    if args[0] == "gen":
        args = [*args, "--out", str(tmp_path / "x"), *GEN_ARGS]
    result = runner.invoke(main, args)
    assert_usage_error(result, option)
    assert result.exit_code == 2


class TestGradcheckCommand:
    def test_baseline_passes(self, runner):
        result = runner.invoke(main, ["gradcheck", "--fusion", "baseline",
                                      "--d-g", "6"])
        assert result.exit_code == 0, result.output
        assert "[PASS]" in result.output


class TestCheckpointRoundTrip:
    def test_predictions_survive_save_and_load(self, data_dir, run_dir):
        ds = load_dataset(data_dir / "manifest.json")
        model = load_model(run_dir / "run0.ckpt")
        outfit = ds.outfits["train"][0]
        a, b = ds.items[outfit.items[0]], ds.items[outfit.items[1]]
        first = pair_score(model, a, b)
        # scores are stable across a second round-trip (float32 storage)
        import outfitrec.model as m
        second_path = run_dir / "again.ckpt"
        m.save_model(model, second_path)
        reloaded = m.load_model(second_path)
        assert pair_score(reloaded, a, b) == pytest.approx(first, abs=1e-6)
