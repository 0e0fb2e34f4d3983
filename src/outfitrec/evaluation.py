"""Fashion-compatibility AUC, fill-in-the-blank accuracy and run voting."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from itertools import combinations

import numpy as np

from .compatibility import PairPlan, Reps, plan_pairs, plan_scores
from .data import (FITB_CANDIDATES, Dataset, FCQuestion, FITBQuestion,
                   filter_questions)
from .errors import DomainError, MetricUndefinedError
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
    return Reps(dataset, rows,
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
    partial size p its `(p, questions, positions)` block, the questions'
    pair positions as one (q, 4 * p) array. A question with other than 4
    candidates raises DomainError."""
    counts = {len(q.candidates) for q in questions} - {FITB_CANDIDATES}
    if counts:
        raise DomainError(f"a FITB question has {min(counts)} candidates; "
                          f"each needs exactly {FITB_CANDIDATES}")
    pairs = [(cand, other) for q in questions
             for cand in q.candidates for other in q.partial]
    sizes = np.array([len(q.partial) for q in questions], dtype=np.intp)
    starts = FITB_CANDIDATES * (np.cumsum(sizes) - sizes)
    blocks = []
    for p in np.unique(sizes).tolist():
        qs = np.flatnonzero(sizes == p)
        blocks.append((p, qs,
                       starts[qs, None] + np.arange(FITB_CANDIDATES * p)))
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
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Each question's chosen candidate index, (Q,) with -1 where the
    question is unanswerable, and its (Q, 4) per-candidate total scores.

    Untrained type pairs are skipped. A question is unanswerable when no
    candidate has a single scorable pair. Ties break toward the lowest
    index. `plan` is `plan_fitb(dataset, questions, model.spaces)`, built
    here unless a caller that scores several models passes it. The
    questions of one partial size p are one (q, 4, p) block of pair
    scores, totalled over its last axis.
    """
    pairs, blocks = plan or plan_fitb(dataset, questions, model.spaces)
    scores = plan_scores(pairs, model, reps)
    choice = np.full(len(questions), -1, dtype=np.intp)
    totals = np.zeros((len(questions), FITB_CANDIDATES))
    for p, qs, at in blocks:
        block = scores[at].reshape(len(qs), FITB_CANDIDATES, p)
        totals[qs] = np.nan_to_num(block).sum(axis=-1)
        answered = qs[~np.isnan(block).all(axis=(1, 2))]
        choice[answered] = totals[answered].argmax(axis=-1)
    return choice, totals


def fitb_answer(question: FITBQuestion, model: OutfitModel, dataset: Dataset,
                reps: Reps) -> tuple[int, np.ndarray] | None:
    """`fitb_answers` for one question: its choice and totals, or None
    when it is unanswerable."""
    choice, totals = fitb_answers([question], model, dataset, reps)
    return None if choice[0] < 0 else (int(choice[0]), totals[0])


def vote(answers: np.ndarray, totals_per_run: np.ndarray) -> np.ndarray:
    """Majority vote over runs: the answers (R, ...) and the per-candidate
    totals (R, ..., C) of R runs give the (...) chosen candidates, a numpy
    integer for one question. A tie in votes goes to the tied candidate
    with the highest summed total, then to the lowest index."""
    answers = np.asarray(answers, dtype=np.intp)
    if not len(answers):
        raise MetricUndefinedError("vote over zero runs")
    totals = np.asarray(totals_per_run, dtype=np.float64)
    counts = (answers[..., None] == np.arange(totals.shape[-1])).sum(axis=0)
    tied = counts == counts.max(axis=-1, keepdims=True)
    return np.where(tied, totals.sum(axis=0), -np.inf).argmax(axis=-1)


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

    truth = np.array([q.answer for q in fitb], dtype=np.intp)
    choices, totals = [], []
    for run, model in enumerate(models):
        reps = compute_representations(model, dataset, ids)
        scores, labels, unanswerable, skipped = fc_scores_and_labels(
            dataset, fc, model, reps, fc_plan)
        report.fc_auc_per_run.append(fc_auc(scores, labels))
        choice, total = fitb_answers(fitb, model, dataset, reps, fitb_plan)
        answered = int((choice >= 0).sum())
        if not answered:
            raise MetricUndefinedError("no answerable FITB questions")
        report.fitb_accuracy_per_run.append(
            int((choice == truth).sum()) / answered)
        choices.append(choice)
        totals.append(total)
        if run == 0:
            report.fc_unanswerable = unanswerable
            report.fc_answered = len(scores)
            report.skipped_pairs = skipped
            report.fitb_unanswerable = len(fitb) - answered
            report.fitb_answered = answered

    # the vote counts the questions that every run answers
    choices = np.array(choices)
    every = (choices >= 0).all(axis=0)
    voted = vote(choices[:, every], np.array(totals)[:, every])
    report.fc_auc_mean = float(np.mean(report.fc_auc_per_run))
    report.fitb_accuracy_mean = float(np.mean(report.fitb_accuracy_per_run))
    if every.any():
        report.fitb_accuracy_vote = (int((voted == truth[every]).sum())
                                     / int(every.sum()))
    return report
