"""Command-line entry point: gen, train, eval, score, gradcheck."""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import math
import sys
from pathlib import Path

import click

from .data import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from .diagnostics import full_loss_grad_check
from .errors import OutfitrecError
from .evaluation import evaluate
from .model import FUSION_KINDS, load_model, save_model
from .compatibility import pair_score
from .training import TrainConfig, train_ensemble


def _package_errors_as_usage(command):
    """Re-raise the package's own errors from `command` (bad input files,
    specs or shapes, undefined metrics) and OSErrors (unreadable inputs,
    unwritable output paths) as ClickException: one usage line instead of
    a traceback."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (OutfitrecError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc
    return run


def _spec_options(command):
    """One `--name-with-dashes` option per SyntheticSpec field, in field
    order, with the field's default and the type of that default."""
    for f in reversed(dataclasses.fields(SyntheticSpec)):
        command = click.option(f"--{f.name.replace('_', '-')}",
                               default=f.default, show_default=True,
                               type=type(f.default))(command)
    return command


@click.group()
@click.option("--log-level", default="WARNING", show_default=True,
              type=click.Choice(["DEBUG", "INFO", "WARNING", "ERROR"],
                                case_sensitive=False),
              help="level of the package's log lines on stderr "
                   "(INFO shows training progress per epoch)")
@click.pass_context
def main(ctx, log_level):
    """Multimodal outfit compatibility: data generation, training, evaluation."""
    # the handler lives as long as the command, so in-process callers
    # (tests, notebooks) do not stack handlers across invocations
    pkg = logging.getLogger("outfitrec")
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous = pkg.level
    pkg.addHandler(handler)
    pkg.setLevel(log_level.upper())

    def restore():
        pkg.removeHandler(handler)
        pkg.setLevel(previous)

    ctx.call_on_close(restore)


@main.command()
@click.option("--out", required=True, type=click.Path(), help="output directory")
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
@_spec_options
@_package_errors_as_usage
def gen(out, seed, **kwargs):
    """Generate a synthetic planted-signal dataset with FC/FITB questions."""
    spec = SyntheticSpec(**kwargs)
    spec.validate()
    Path(out).mkdir(parents=True, exist_ok=True)   # fail before the work
    dataset = generate_synthetic(spec, seed)
    manifest = save_dataset(dataset, out)
    click.echo(f"wrote {manifest} ({len(dataset.ids)} items, "
               f"{sum(len(v) for v in dataset.outfits.values())} outfits, "
               f"{len(dataset.fc_questions)} FC / "
               f"{len(dataset.fitb_questions)} FITB questions)")


def _load_config(config_path, overrides) -> TrainConfig:
    """The config file's keys under the command-line overrides; a file that
    is not a JSON object of valid TrainConfig keys is a usage error."""
    raw = {}
    try:
        if config_path:
            raw = json.loads(Path(config_path).read_text())
            if not isinstance(raw, dict):
                raise ValueError("not a JSON object")
        raw.update({k: v for k, v in overrides.items() if v is not None})
        return TrainConfig.from_dict(raw)
    except (OSError, ValueError) as exc:   # JSONDecodeError is a ValueError
        raise click.ClickException(
            f"{config_path or 'training options'}: {exc}") from exc


@main.command(name="train")
@click.option("--data", required=True, type=click.Path(exists=True),
              help="dataset manifest path")
@click.option("--config", type=click.Path(exists=True),
              help="JSON training config (TrainConfig keys)")
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--fusion", type=click.Choice(FUSION_KINDS), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--runs", type=int, default=None)
@click.option("--epochs", type=int, default=None)
@_package_errors_as_usage
def train_cmd(data, config, out_dir, **overrides):
    """Train `runs` models and write checkpoints plus a metrics log."""
    cfg = _load_config(config, overrides)
    dataset = load_dataset(data)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")
    results = train_ensemble(dataset, cfg)
    with open(out / "metrics.jsonl", "w") as fh:
        for run, (model, history) in enumerate(results):
            save_model(model, out / f"run{run}.ckpt")
            for stats in history:
                fh.write(json.dumps({
                    "run": run, "epoch": stats.epoch,
                    "mean_loss": stats.mean_loss,
                    "valid_auc": stats.valid_auc,
                    "skipped_pairs": stats.skipped_pairs,
                }, sort_keys=True) + "\n")
    click.echo(f"trained {len(results)} run(s) into {out}")


def _run_order(f: Path) -> tuple:
    """Sorts `run<N>.ckpt` by N, then other `run*.ckpt` names by name."""
    n = f.stem[len("run"):]
    return (not n.isdecimal(), int(n) if n.isdecimal() else 0, f.name)


@main.command(name="eval")
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--checkpoints", required=True, type=click.Path(exists=True),
              help="checkpoint file or directory of run*.ckpt files")
@click.option("--report", required=True, type=click.Path())
@_package_errors_as_usage
def eval_cmd(data, checkpoints, report):
    """Evaluate checkpoints on the dataset's FC and FITB questions."""
    if not Path(report).parent.is_dir():   # fail before the work
        raise click.ClickException(f"cannot write {report}: no such directory")
    dataset = load_dataset(data)
    path = Path(checkpoints)
    files = (sorted(path.glob("run*.ckpt"), key=_run_order) if path.is_dir()
             else [path])
    if not files:
        raise click.ClickException(f"no checkpoints found under {path}")
    models = [load_model(f) for f in files]
    result = evaluate(dataset, models)
    Path(report).write_text(
        json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
    click.echo(f"FC AUC mean {result.fc_auc_mean:.4f} | "
               f"FITB accuracy mean {result.fitb_accuracy_mean:.4f} "
               f"(vote {result.fitb_accuracy_vote:.4f})")


@main.command()
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--checkpoint", required=True, type=click.Path(exists=True))
@click.option("-a", "item_a", required=True, help="first item id")
@click.option("-b", "item_b", required=True, help="second item id")
@_package_errors_as_usage
def score(data, checkpoint, item_a, item_b):
    """Print the compatibility score of two items."""
    dataset = load_dataset(data)
    model = load_model(checkpoint)
    for item_id in (item_a, item_b):
        if item_id not in dataset.row:
            raise click.ClickException(f"unknown item id {item_id!r}")
    value = pair_score(model, dataset.items[item_a], dataset.items[item_b])
    click.echo(f"{value:.6f}")


@main.command()
@click.option("--fusion", default="all",
              type=click.Choice(FUSION_KINDS + ("all",)), show_default=True)
@click.option("--d-g", default=8, show_default=True,
              type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
@click.option("--rel-tol", default=1e-4, show_default=True,
              type=click.FloatRange(min=0, min_open=True))
def gradcheck(fusion, d_g, seed, rel_tol):
    """Finite-difference check of the full training-loss gradient."""
    if not math.isfinite(rel_tol):   # FloatRange lets nan and inf through
        raise click.BadParameter(f"{rel_tol} is not finite",
                                 param_hint="'--rel-tol'")
    kinds = FUSION_KINDS if fusion == "all" else (fusion,)
    failed = False
    for kind in kinds:
        report = full_loss_grad_check(kind, d_g=d_g, d_c=d_g, h=d_g,
                                      seed=seed, rel_tol=rel_tol)
        status = "PASS" if report.passed else "FAIL"
        click.echo(f"{kind}: max rel err {report.max_rel_error:.3e} [{status}]")
        failed = failed or not report.passed
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
