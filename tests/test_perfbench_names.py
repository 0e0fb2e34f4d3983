"""The package names that `perfbench` finds and rebinds still exist.

`perfbench/tracer.py` wraps every entry of its `TARGETS` by name, and
`Tracer.install` only lists a vanished name in `missing`. `StepClock` in
`perfbench/run.py` replaces `training._batch_arrays` and `optim.Adam.step`,
and times nothing if either is gone. So a rename in the package would
silently empty a benchmark figure; these tests fail on it instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from outfitrec import optim, training
from outfitrec.data import SyntheticSpec, generate_synthetic

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracer().TARGETS


@pytest.mark.parametrize("layer, module_name, attr", TARGETS,
                         ids=[f"{m}.{a}" for _, m, a in TARGETS])
def test_tracer_target_is_a_package_callable(layer, module_name, attr):
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part, None)
    assert callable(target), f"{layer}: {module_name}.{attr} is gone"


def test_step_clock_finds_batch_assembly_and_the_adam_step():
    params = list(inspect.signature(training._batch_arrays).parameters)
    assert params == ["dataset", "triplets"]
    assert callable(getattr(optim.Adam, "step", None))


def test_a_triplet_slice_has_one_row_per_triplet():
    """`StepClock` reads `len(triplets)` as a step's batch size, and `run.py`
    counts an epoch's triplets as its ordered pairs less the skipped ones."""
    ds = generate_synthetic(SyntheticSpec(
        num_types=4, num_styles=3, train_outfits=10, valid_outfits=0,
        fc_questions=20, fitb_questions=10, outfit_size=3), seed=0)
    triplets, skipped = training.sample_triplets(ds, np.random.default_rng(0))
    assert len(triplets) + skipped == 10 * 3 * 2
    for size in (1, 7, len(triplets)):
        for start in range(0, len(triplets), size):
            batch = triplets[start:start + size]
            assert len(batch) == batch.shape[0] == min(size, len(triplets)
                                                       - start)
            assert batch.shape[1:] == (3,)


# Every package call in `perfbench/run.py`, as (module, function, the
# parameters its positional arguments must bind to, in run.py's order).
RUN_CALLS = [
    ("evaluation", "fitb_answer", ["question", "model", "dataset", "reps"]),
    ("evaluation", "fc_scores_and_labels", ["dataset", "questions", "model"]),
    ("evaluation", "compute_representations",
     ["model", "dataset", "item_ids"]),
    ("evaluation", "evaluate", ["dataset", "models"]),
    ("data", "filter_questions", ["fc", "fitb", "dataset"]),
    ("data", "generate_synthetic", ["spec", "seed"]),
    ("data", "save_dataset", ["dataset", "out_dir"]),
    ("data", "load_dataset", ["manifest_path"]),
    ("training", "train", ["dataset", "config"]),
    ("model", "save_model", ["model", "path"]),
    ("model", "load_model", ["path"]),
]


@pytest.mark.parametrize("module_name, function, params", RUN_CALLS,
                         ids=[f"{m}.{f}" for m, f, _ in RUN_CALLS])
def test_run_call_binds_each_argument_to_its_parameter(module_name, function,
                                                       params):
    """A new required parameter or a changed argument order would break
    only the benchmark run; binding run.py's arguments catches both."""
    target = getattr(importlib.import_module(f"outfitrec.{module_name}"),
                     function)
    bound = inspect.signature(target).bind(*params)
    assert bound.arguments == dict(zip(params, params))
