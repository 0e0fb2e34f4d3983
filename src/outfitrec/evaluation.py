"""Fashion-compatibility AUC, fill-in-the-blank accuracy and run voting."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from itertools import combinations

import numpy as np

from .compatibility import PairPlan, Reps, plan_pairs, plan_scores
from .data import Dataset, FCQuestion, FITBQuestion, filter_questions
from .errors import MetricUndefinedError
from .model import OutfitModel, item_features
from .tensor import no_grad

# items per item_features call in compute_representations
REPRESENTATION_CHUNK = 512


def compute_representations(model: OutfitModel, dataset: Dataset,
                            item_ids) -> Reps:
    """Fused reps of the described items among `item_ids`, in first-seen
    order, batched; undescribed ids are skipped. DomainError names an id
    the dataset does not hold."""
    rows = dataset.described_rows(list(dict.fromkeys(item_ids)))
    with no_grad():
        parts = [item_features(model, *dataset.features(
            rows[start:start + REPRESENTATION_CHUNK]))[0].data
            for start in range(0, len(rows), REPRESENTATION_CHUNK)]
    return Reps(list(map(dataset.ids.__getitem__, rows.tolist())),
                np.concatenate(parts) if parts else np.empty((0, 0)))


def plan_fc(dataset: Dataset, questions: list[FCQuestion], trained
            ) -> tuple[PairPlan, np.ndarray]:
    """The pair plan of the FC questions' item pairs, question by question
    in `combinations` order, and the question that owns each pair."""
    pairs = [list(combinations(q.items, 2)) for q in questions]
    owner = np.array([qi for qi, ps in enumerate(pairs) for _ in ps],
                     dtype=np.intp)
    return plan_pairs(dataset, [p for ps in pairs for p in ps], trained), owner


def plan_fitb(dataset: Dataset, questions: list[FITBQuestion], trained
              ) -> tuple[PairPlan, list]:
    """The pair plan of the FITB questions' (candidate, partial item)
    pairs, question by question and candidate by candidate, and per
    (candidates, partial) shape its `(shape, questions, positions)` block,
    the questions' pair positions as one (q, c * p) array."""
    pairs = [(cand, other) for q in questions
             for cand in q.candidates for other in q.partial]
    shapes: dict[tuple[int, int], list[int]] = {}
    starts, start = [], 0
    for qi, q in enumerate(questions):
        shape = (len(q.candidates), len(q.partial))
        shapes.setdefault(shape, []).append(qi)
        starts.append(start)
        start += shape[0] * shape[1]
    starts = np.array(starts, dtype=np.intp)
    blocks = []
    for (c, p), qs in shapes.items():
        qs = np.array(qs, dtype=np.intp)
        blocks.append(((c, p), qs, starts[qs, None] + np.arange(c * p)))
    return plan_pairs(dataset, pairs, trained), blocks


def fc_auc(scores, labels) -> float:
    """ROC AUC via the rank statistic, midranks for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError(
            f"AUC undefined: {n_pos} positives, {n_neg} negatives")
    _, tie_group, tie_counts = np.unique(scores, return_inverse=True,
                                         return_counts=True)
    # 1-based midrank of each tie group: its last rank minus half its spread
    midranks = np.cumsum(tie_counts) - 0.5 * (tie_counts - 1)
    rank_sum = midranks[tie_group][labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def fc_scores_and_labels(dataset: Dataset, questions: list[FCQuestion],
                         model: OutfitModel, reps: Reps | None = None,
                         plan: tuple[PairPlan, np.ndarray] | None = None
                         ) -> tuple[list[float], list[int], int, int]:
    """Outfit scores (mean pair score) for answerable FC questions.

    `plan` is `plan_fc(dataset, questions, model.spaces)`, built here
    unless a caller that scores several models passes it.
    Returns (scores, labels, unanswerable_count, skipped_pairs).
    """
    if reps is None:
        ids = [i for q in questions for i in q.items]
        reps = compute_representations(model, dataset, ids)
    pairs, owner = plan or plan_fc(dataset, questions, model.spaces)
    scores = plan_scores(pairs, model, reps)
    scored = ~np.isnan(scores)
    counts = np.bincount(owner[scored], minlength=len(questions))
    totals = np.bincount(owner[scored], weights=scores[scored],
                         minlength=len(questions))
    answered = np.flatnonzero(counts)
    return ((totals[answered] / counts[answered]).tolist(),
            [questions[qi].label for qi in answered],
            len(questions) - len(answered), int((~scored).sum()))


def fitb_answers(questions: list[FITBQuestion], model: OutfitModel,
                 dataset: Dataset, reps: Reps,
                 plan: tuple[PairPlan, list] | None = None
                 ) -> list[tuple[int, np.ndarray] | None]:
    """Per question, the chosen candidate index plus per-candidate total
    scores.

    Untrained type pairs are skipped. None when no candidate has a single
    scorable pair. Ties break toward the lowest index. `plan` is
    `plan_fitb(dataset, questions, model.spaces)`, built here unless a
    caller that scores several models passes it. The questions of one
    (candidates, partial) shape are one (q, c, p) block of pair scores,
    totalled over its last axis.
    """
    pairs, blocks = plan or plan_fitb(dataset, questions, model.spaces)
    scores = plan_scores(pairs, model, reps)
    outcomes: list[tuple[int, np.ndarray] | None] = [None] * len(questions)
    for (c, p), qs, at in blocks:
        if not c * p:
            continue   # no pair at all: every such question is None
        block = scores[at].reshape(-1, c, p)
        totals = np.nan_to_num(block).sum(axis=-1)
        unscored = np.isnan(block).all(axis=(1, 2))
        for qi, choice, total, none in zip(qs.tolist(),
                                           totals.argmax(axis=-1).tolist(),
                                           totals, unscored.tolist()):
            if not none:
                outcomes[qi] = (choice, total)
    return outcomes


def fitb_answer(question: FITBQuestion, model: OutfitModel, dataset: Dataset,
                reps: Reps) -> tuple[int, np.ndarray] | None:
    """`fitb_answers` for one question."""
    return fitb_answers([question], model, dataset, reps)[0]


def vote(answers: list[int], totals_per_run: list[np.ndarray]) -> int:
    """Majority vote over run answers; ties resolved by the highest summed
    candidate score across tied indices, then by the lowest index."""
    if not answers:
        raise MetricUndefinedError("vote over zero runs")
    n_cand = len(totals_per_run[0])
    counts = np.bincount(answers, minlength=n_cand)
    tied = np.flatnonzero(counts == counts.max())
    if len(tied) == 1:
        return int(tied[0])
    summed = np.sum(totals_per_run, axis=0)
    best = tied[np.argmax(summed[tied])]
    return int(best)


@dataclass
class MetricsReport:
    fc_auc_per_run: list[float] = field(default_factory=list)
    fc_auc_mean: float = float("nan")
    fitb_accuracy_per_run: list[float] = field(default_factory=list)
    fitb_accuracy_mean: float = float("nan")
    fitb_accuracy_vote: float = float("nan")
    fc_total: int = 0
    fc_discarded: int = 0
    fc_unanswerable: int = 0
    fc_answered: int = 0
    fitb_total: int = 0
    fitb_discarded: int = 0
    fitb_unanswerable: int = 0
    fitb_answered: int = 0
    skipped_pairs: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(dataset: Dataset, models: list[OutfitModel]) -> MetricsReport:
    """Per-run FC AUC and FITB accuracy, their means, and voting accuracy.

    All models must share the trained type-pair table (runs of one
    configuration), so discard/unanswerable bookkeeping is common.
    """
    if not models:
        raise MetricUndefinedError("evaluate needs at least one model")
    pair_tables = {tuple(sorted(m.spaces)) for m in models}
    if len(pair_tables) != 1:
        raise MetricUndefinedError(
            "models disagree on trained type pairs; evaluate runs of one "
            "training configuration together")

    fc, fitb, fc_disc, fitb_disc = filter_questions(
        dataset.fc_questions, dataset.fitb_questions, dataset)
    report = MetricsReport(fc_total=len(dataset.fc_questions),
                           fc_discarded=fc_disc,
                           fitb_total=len(dataset.fitb_questions),
                           fitb_discarded=fitb_disc)

    ids = [i for q in fc for i in q.items]
    ids += [i for q in fitb for i in (*q.partial, *q.candidates)]
    fc_plan = plan_fc(dataset, fc, models[0].spaces)
    fitb_plan = plan_fitb(dataset, fitb, models[0].spaces)

    fitb_outcomes: list[list[tuple[int, np.ndarray] | None]] = []
    for run, model in enumerate(models):
        reps = compute_representations(model, dataset, ids)
        scores, labels, unanswerable, skipped = fc_scores_and_labels(
            dataset, fc, model, reps, fc_plan)
        report.fc_auc_per_run.append(fc_auc(scores, labels))
        outcomes = fitb_answers(fitb, model, dataset, reps, fitb_plan)
        fitb_outcomes.append(outcomes)
        answered = [o for o in outcomes if o is not None]
        if not answered:
            raise MetricUndefinedError("no answerable FITB questions")
        correct = sum(1 for q, o in zip(fitb, outcomes)
                      if o is not None and o[0] == q.answer)
        report.fitb_accuracy_per_run.append(correct / len(answered))
        if run == 0:
            report.fc_unanswerable = unanswerable
            report.fc_answered = len(scores)
            report.skipped_pairs = skipped
            report.fitb_unanswerable = sum(1 for o in outcomes if o is None)
            report.fitb_answered = len(answered)

    vote_correct, vote_answered = 0, 0
    for qi, q in enumerate(fitb):
        per_run = [runs[qi] for runs in fitb_outcomes]
        if any(o is None for o in per_run):
            continue
        vote_answered += 1
        choice = vote([o[0] for o in per_run], [o[1] for o in per_run])
        if choice == q.answer:
            vote_correct += 1

    report.fc_auc_mean = float(np.mean(report.fc_auc_per_run))
    report.fitb_accuracy_mean = float(np.mean(report.fitb_accuracy_per_run))
    if vote_answered:
        report.fitb_accuracy_vote = vote_correct / vote_answered
    return report
