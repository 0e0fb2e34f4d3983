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

import pytest

from outfitrec import optim, training

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
