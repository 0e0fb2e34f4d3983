"""Evaluation metrics: outfit scoring, AUC, FITB answers and voting."""

import dataclasses
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outfitrec.data import (FCQuestion, FITBQuestion, SyntheticSpec,
                            canonical_pair, filter_questions,
                            generate_synthetic, load_dataset, save_dataset)
from outfitrec.errors import DomainError, MetricUndefinedError
from outfitrec.evaluation import (MetricsReport, compute_representations,
                                  evaluate, fc_auc, fc_scores_and_labels,
                                  fitb_answer, fitb_answers, vote)
from outfitrec.compatibility import (_space_cosines, plan_pairs,
                                     plan_scores, score_from_reps)
from outfitrec.model import FUSION_KINDS, ModelDims, init_model
from outfitrec.tensor import Tensor
from outfitrec.training import TrainConfig, train

SPEC = SyntheticSpec(num_types=4, num_styles=3, train_outfits=20,
                     valid_outfits=4, fc_questions=30, fitb_questions=20,
                     outfit_size=3, num_regions=4, num_words=3,
                     region_dim=6, word_dim=5, signal_rows=2)


def fixture_model_and_reps(seed=0, fusion="baseline"):
    ds = generate_synthetic(SPEC, seed=seed)
    dims = ModelDims(d_g=8, d_c=8, h=8, hops=2, mfb_factor=2,
                     region_dim=6, word_dim=5)
    model = init_model(fusion, dims, ds.trained_type_pairs(), seed=seed)
    reps = compute_representations(model, ds, list(ds.items))
    return ds, model, reps


def outfit_score(item_ids, model, dataset, reps):
    """Mean pair score of one outfit through `fc_scores_and_labels`, None
    if no pair is scorable, and the number of pairs without a trained
    type-pair space."""
    scores, _, _, skipped = fc_scores_and_labels(
        dataset, [FCQuestion(items=tuple(item_ids), label=0)], model, reps)
    return (scores[0] if scores else None), skipped


class TestOutfitScore:
    def test_two_items_equal_their_pair_score(self):
        ds, model, reps = fixture_model_and_reps()
        q = next(q for q in ds.fc_questions if len(q.items) >= 2)
        a, b = q.items[0], q.items[1]
        direct = score_from_reps(model, ds.items[a].type.name, reps[a],
                                 ds.items[b].type.name, reps[b])
        score, skipped = outfit_score([a, b], model, ds, reps)
        assert score == pytest.approx(direct, abs=1e-12)
        assert skipped == 0

    def test_matches_brute_force_pair_mean(self):
        ds, model, reps = fixture_model_and_reps(seed=1)
        for q in ds.fc_questions[:10]:
            vals = []
            for a, b in combinations(q.items, 2):
                ta, tb = ds.items[a].type.name, ds.items[b].type.name
                if model.has_space(ta, tb):
                    vals.append(score_from_reps(model, ta, reps[a],
                                                tb, reps[b]))
            expected = sum(vals) / len(vals)
            score, _ = outfit_score(q.items, model, ds, reps)
            assert score == pytest.approx(expected, abs=1e-12)

    def test_untrained_pairs_are_skipped(self):
        ds, model, reps = fixture_model_and_reps(seed=2)
        q = ds.fc_questions[0]
        pruned = dict(model.spaces)
        # drop the space for the first pair in the outfit
        a, b = q.items[0], q.items[1]
        key = tuple(sorted((ds.items[a].type.name, ds.items[b].type.name)))
        del pruned[key]
        model2 = dataclasses.replace(model, spaces=pruned)
        _, skipped = outfit_score(q.items, model2, ds, reps)
        assert skipped >= 1

    def test_no_scorable_pairs_gives_none(self):
        ds, model, reps = fixture_model_and_reps(seed=3)
        q = ds.fc_questions[0]
        model2 = dataclasses.replace(model, spaces={})
        score, skipped = outfit_score(q.items, model2, ds, reps)
        assert score is None
        assert skipped == len(list(combinations(q.items, 2)))

    def test_item_order_does_not_matter(self):
        ds, model, reps = fixture_model_and_reps(seed=4)
        q = ds.fc_questions[0]
        fwd, _ = outfit_score(q.items, model, ds, reps)
        rev, _ = outfit_score(list(reversed(q.items)), model, ds, reps)
        assert fwd == pytest.approx(rev, abs=1e-12)


class TestPairScores:
    def test_question_list_matches_per_pair_reference(self):
        ds, model, reps = fixture_model_and_reps(seed=13, fusion="stacked")
        pruned = dict(model.spaces)
        del pruned[sorted(pruned)[0]]
        model = dataclasses.replace(model, spaces=pruned)
        expected, expected_labels, expected_skipped = [], [], 0
        for q in ds.fc_questions:
            vals = []
            for a, b in combinations(q.items, 2):
                ta, tb = ds.items[a].type.name, ds.items[b].type.name
                if model.has_space(ta, tb):
                    vals.append(score_from_reps(model, ta, reps[a],
                                                tb, reps[b]))
                else:
                    expected_skipped += 1
            if vals:
                expected.append(sum(vals) / len(vals))
                expected_labels.append(q.label)
        assert expected_skipped > 0
        scores, labels, unanswerable, skipped = fc_scores_and_labels(
            ds, ds.fc_questions, model, reps)
        np.testing.assert_allclose(scores, expected, atol=1e-12)
        assert labels == expected_labels
        assert unanswerable == len(ds.fc_questions) - len(expected)
        assert skipped == expected_skipped

    def test_zero_projection_rejected(self):
        ds, model, reps = fixture_model_and_reps(seed=14)
        zeroed = {k: Tensor(np.zeros_like(v.data))
                  for k, v in model.spaces.items()}
        model2 = dataclasses.replace(model, spaces=zeroed)
        with pytest.raises(DomainError):
            plan_scores(plan_pairs(ds, [ds.fc_questions[0].items[:2]],
                                   model2.spaces), model2, reps)


def reference_pair_scores(model, dataset, reps, pairs):
    """The per-group loop `plan_scores` replaced: pairs grouped by
    `canonical_pair` in a dict, and per trained group a row dict of its
    distinct ids in first-seen order and one `np.stack` of their reps."""
    scores = np.full(len(pairs), np.nan)
    groups = {}
    for k, (a, b) in enumerate(pairs):
        key = canonical_pair(dataset.items[a].type.name,
                             dataset.items[b].type.name)
        groups.setdefault(key, []).append(k)
    for key, ks in groups.items():
        if key not in model.spaces:
            continue
        ids = list(dict.fromkeys(i for k in ks for i in pairs[k]))
        row = {item: r for r, item in enumerate(ids)}
        scores[ks] = _space_cosines(
            model.spaces[key].data, np.stack([reps[i] for i in ids]),
            [row[pairs[k][0]] for k in ks], [row[pairs[k][1]] for k in ks])
    return scores


def reference_fitb_answers(questions, model, dataset, reps):
    """The per-question loop `fitb_answers` replaced, over
    `reference_pair_scores`."""
    pairs = [(cand, other) for q in questions
             for cand in q.candidates for other in q.partial]
    scores = reference_pair_scores(model, dataset, reps, pairs)
    outcomes, start = [], 0
    for q in questions:
        shape = (len(q.candidates), len(q.partial))
        block = scores[start:start + shape[0] * shape[1]].reshape(shape)
        start += block.size
        totals = np.nan_to_num(block).sum(axis=1)
        outcomes.append(None if np.isnan(block).all()
                        else (int(np.argmax(totals)), totals))
    return outcomes


def outcome_list(answers):
    """`fitb_answers`' (choice, totals) arrays as one entry per question:
    None where unanswerable, else (choice, totals row)."""
    choice, totals = answers
    return [None if c < 0 else (c, t) for c, t in zip(choice.tolist(), totals)]


def reference_vote(answers, totals_per_run):
    """The one-question rule that `vote` applies over leading axes: the
    majority, then the highest summed total among the tied candidates,
    then the lowest index."""
    counts = np.bincount(answers, minlength=len(totals_per_run[0]))
    tied = np.flatnonzero(counts == counts.max())
    if len(tied) == 1:
        return int(tied[0])
    summed = np.sum(totals_per_run, axis=0)
    return int(tied[np.argmax(summed[tied])])


def reference_report(dataset, models):
    """`evaluate` as a loop over the models, each scored on its own by
    `compute_representations`, `fc_scores_and_labels` and `fitb_answers`,
    and the vote question by question by `reference_vote`."""
    fc, fitb, fc_disc, fitb_disc = filter_questions(
        dataset.fc_questions, dataset.fitb_questions, dataset)
    ids = [i for q in fc for i in q.items]
    ids += [i for q in fitb for i in list(q.partial) + list(q.candidates)]
    report = MetricsReport(fc_total=len(dataset.fc_questions),
                           fc_discarded=fc_disc,
                           fitb_total=len(dataset.fitb_questions),
                           fitb_discarded=fitb_disc)
    runs = []
    for run, model in enumerate(models):
        reps = compute_representations(model, dataset, ids)
        scores, labels, unanswerable, skipped = fc_scores_and_labels(
            dataset, fc, model, reps)
        outcomes = outcome_list(fitb_answers(fitb, model, dataset, reps))
        answered = [(q, o) for q, o in zip(fitb, outcomes) if o is not None]
        report.fc_auc_per_run.append(fc_auc(scores, labels))
        report.fitb_accuracy_per_run.append(
            sum(o[0] == q.answer for q, o in answered) / len(answered))
        if run == 0:
            report.fc_unanswerable = unanswerable
            report.fc_answered = len(scores)
            report.skipped_pairs = skipped
            report.fitb_unanswerable = len(fitb) - len(answered)
            report.fitb_answered = len(answered)
        runs.append(outcomes)
    per_question = [[outcomes[k] for outcomes in runs]
                    for k in range(len(fitb))]
    votes = [reference_vote([o[0] for o in per_run], [o[1] for o in per_run])
             == q.answer for q, per_run in zip(fitb, per_question)
             if None not in per_run]
    report.fc_auc_mean = float(np.mean(report.fc_auc_per_run))
    report.fitb_accuracy_mean = float(np.mean(report.fitb_accuracy_per_run))
    report.fitb_accuracy_vote = sum(votes) / len(votes)
    return report


class TestScoringBitIdentity:
    """`plan_scores` and `fitb_answers` give the reference loops' exact
    bits: the same rows reach each type pair's GEMM in the same order, and
    each candidate is totalled by the same reduction."""

    def items_of_type(self, ds, name):
        return [i for i, item in ds.items.items() if item.type.name == name]

    def test_fc_pairs_match_reference(self):
        ds, model, reps = fixture_model_and_reps(seed=15, fusion="stacked")
        pruned = dict(model.spaces)
        del pruned[sorted(pruned)[0]]
        model = dataclasses.replace(model, spaces=pruned)
        pairs = [p for q in ds.fc_questions for p in combinations(q.items, 2)]
        pairs += [(b, a) for a, b in pairs[:40]] + pairs[:10]
        want = reference_pair_scores(model, ds, reps, pairs)
        assert 0 < np.isnan(want).sum() < len(pairs)   # an untrained pair
        got = plan_scores(plan_pairs(ds, pairs, model.spaces), model, reps)
        assert np.array_equal(got, want, equal_nan=True)

    def test_fc_questions_of_mixed_sizes_match_reference(self):
        """Questions of 1, 2, 3 and 6 items, interleaved, held bit for bit
        to the pair scores of the reference, folded by a per-question
        owner list."""
        ds, model, reps = fixture_model_and_reps(seed=16)
        questions = [dataclasses.replace(q, items=q.items[:k]) for q, k in
                     zip(ds.fc_questions, [3, 1, 2, 3, 2, 1, 3, 2] * 4)]
        questions.append(FCQuestion(items=sum(
            (q.items[:2] for q in ds.fc_questions[:3]), ()), label=1))
        pairs = [list(combinations(q.items, 2)) for q in questions]
        owner = np.array([k for k, ps in enumerate(pairs) for _ in ps])
        scores = reference_pair_scores(model, ds, reps,
                                       [p for ps in pairs for p in ps])
        scored = ~np.isnan(scores)
        totals = np.bincount(owner[scored], weights=scores[scored],
                             minlength=len(questions))
        counts = np.bincount(owner[scored], minlength=len(questions))
        answered = np.flatnonzero(counts)
        got, labels, unanswerable, skipped = fc_scores_and_labels(
            ds, questions, model, reps)
        assert np.array(got).tobytes() == (totals[answered]
                                          / counts[answered]).tobytes()
        assert labels == [questions[k].label for k in answered]
        assert unanswerable == len(questions) - len(answered) >= 8
        assert skipped == (~scored).sum()

    def test_fitb_totals_match_reference(self):
        ds, model, reps = fixture_model_and_reps(seed=19)
        base = ds.fitb_questions[:6]
        long_partial = tuple(i for t in sorted({it.type.name for it in
                                                ds.items.values()})
                             for i in self.items_of_type(ds, t)[:4])
        lone = self.items_of_type(ds, "type00")
        questions = [
            *base[:3],
            dataclasses.replace(base[3], partial=base[3].partial[:1]),
            dataclasses.replace(base[4], partial=long_partial),
            FITBQuestion(partial=tuple(lone[:2]),
                         candidates=tuple(lone[2:6]), answer=0),
            dataclasses.replace(base[5], partial=()),
            base[5],
        ]
        assert len(long_partial) >= 8
        want = reference_fitb_answers(questions, model, ds, reps)
        got = outcome_list(fitb_answers(questions, model, ds, reps))
        assert [o is None for o in got] == [o is None for o in want]
        assert got[5] is None and got[6] is None   # no pair; no partial
        for g, w in zip(got, want):
            if w is not None:
                assert g[0] == w[0]
                assert g[1].tobytes() == w[1].tobytes()
        # a sequential (bincount-style) total differs from `.sum` here,
        # so this case would catch a switch to one
        block = np.nan_to_num(reference_pair_scores(
            model, ds, reps, [(c, o) for c in questions[4].candidates
                              for o in long_partial]))
        seq = np.bincount(np.repeat(np.arange(4), len(long_partial)),
                          weights=block)
        assert seq.tobytes() != got[4][1].tobytes()

    @pytest.mark.parametrize("fusion", ["baseline", "stacked"])
    def test_full_size_fc_pairs_match_reference(self, fusion):
        """All 12000 FC pairs of `SyntheticSpec()` at d=32: with enough
        rows per type pair, some OpenBLAS kernels give a GEMM row other
        bits at another position, which the small fixtures cannot show."""
        ds = generate_synthetic(SyntheticSpec(), seed=1)
        dims = ModelDims(d_g=32, d_c=32, h=32, hops=2, mfb_factor=2,
                         region_dim=ds.dims.region_dim,
                         word_dim=ds.dims.word_dim)
        model = init_model(fusion, dims, ds.trained_type_pairs(), seed=0)
        pairs = [p for q in ds.fc_questions for p in combinations(q.items, 2)]
        reps = compute_representations(model, ds, [i for p in pairs for i in p])
        got = plan_scores(plan_pairs(ds, pairs, model.spaces), model, reps)
        want = reference_pair_scores(model, ds, reps, pairs)
        assert len(pairs) == 12000
        assert np.array_equal(got, want), f"{(got != want).sum()} scores differ"

    def test_ensemble_report_matches_per_model_reference(self):
        """`evaluate` plans each question list once for all four fusers;
        its report equals, field by field, one that plans and scores each
        model on its own. One space is missing from every model, so some
        pairs are skipped, and a tenth of the items are undescribed."""
        ds = generate_synthetic(SyntheticSpec(undescribed_frac=0.1), seed=1)
        dims = ModelDims(d_g=32, d_c=32, h=32, hops=2, mfb_factor=2,
                         region_dim=ds.dims.region_dim,
                         word_dim=ds.dims.word_dim)
        models = []
        for fusion in FUSION_KINDS:
            model = init_model(fusion, dims, ds.trained_type_pairs(), seed=0)
            spaces = dict(model.spaces)
            del spaces[sorted(spaces)[1]]
            models.append(dataclasses.replace(model, spaces=spaces))
        got = evaluate(ds, models)
        assert got.skipped_pairs > 0 and got.fc_discarded > 0
        assert got.to_dict() == reference_report(ds, models).to_dict()

    def test_no_questions_and_no_pairs(self):
        ds, model, reps = fixture_model_and_reps(seed=17)
        choice, totals = fitb_answers([], model, ds, reps)
        assert choice.shape == (0,) and totals.shape == (0, 4)
        assert plan_scores(plan_pairs(ds, [], model.spaces), model,
                           reps).shape == (0,)


class TestUnrepresentedItem:
    """Every scoring entry point names the item that has no rep."""

    def fixture(self):
        ds = generate_synthetic(
            dataclasses.replace(SPEC, undescribed_frac=0.3), seed=18)
        dims = ModelDims(d_g=8, d_c=8, h=8, hops=2, mfb_factor=2,
                         region_dim=6, word_dim=5)
        model = init_model("baseline", dims, ds.trained_type_pairs(), seed=0)
        reps = compute_representations(model, ds, list(ds.items))
        bare = next(i for i, item in ds.items.items() if not item.described)
        return ds, model, reps, bare

    def test_pair_scores(self):
        ds, model, reps, bare = self.fixture()
        other = next(iter(reps))
        with pytest.raises(DomainError, match=repr(bare)):
            plan_scores(plan_pairs(ds, [(other, bare)], model.spaces), model,
                        reps)

    def test_fc_scores_and_labels(self):
        ds, model, reps, bare = self.fixture()
        q = FCQuestion(items=(*list(reps)[:2], bare), label=1)
        with pytest.raises(DomainError, match=repr(bare)):
            fc_scores_and_labels(ds, [q], model)

    def test_fitb_answer(self):
        ds, model, reps, bare = self.fixture()
        q = FITBQuestion(partial=tuple(list(reps)[:2]),
                         candidates=(bare, *list(reps)[2:5]), answer=0)
        with pytest.raises(DomainError, match=repr(bare)):
            fitb_answer(q, model, ds, reps)

    def test_item_in_no_pair_needs_no_rep(self):
        """Only the items of some pair are gathered: a one-item FC question
        and a FITB question without partial items are unanswerable, not
        errors, when their items have no rep."""
        ds, model, reps, bare = self.fixture()
        lone = FCQuestion(items=(bare,), label=1)
        for given in (None, reps):
            assert fc_scores_and_labels(ds, [lone], model, given) == (
                [], [], 1, 0)
        q = FITBQuestion(partial=(), candidates=(bare, *list(reps)[:3]),
                         answer=0)
        assert fitb_answer(q, model, ds, reps) is None


class TestMismatchedInput:
    """Inputs the store-row key cannot line up are DomainErrors."""

    def test_reps_of_another_dataset(self, tmp_path):
        """Reps of one `Dataset` passed with a second one loaded from the
        same manifest: the rows agree by value, but nothing ties them."""
        manifest = save_dataset(generate_synthetic(SPEC, seed=22), tmp_path)
        first, second = load_dataset(manifest), load_dataset(manifest)
        dims = ModelDims(d_g=8, d_c=8, h=8, hops=2, mfb_factor=2,
                         region_dim=6, word_dim=5)
        model = init_model("baseline", dims, first.trained_type_pairs(),
                           seed=0)
        reps = compute_representations(model, first, first.ids)
        with pytest.raises(DomainError, match="different datasets"):
            fitb_answer(second.fitb_questions[0], model, second, reps)
        with pytest.raises(DomainError, match="different datasets"):
            fc_scores_and_labels(second, second.fc_questions, model, reps)

    @pytest.mark.parametrize("count", [3, 5])
    def test_fitb_question_needs_four_candidates(self, count):
        ds, model, reps = fixture_model_and_reps(seed=23)
        q = ds.fitb_questions[0]
        odd = dataclasses.replace(q, candidates=(q.candidates * 2)[:count])
        with pytest.raises(DomainError, match=f"has {count} candidates"):
            fitb_answers([ds.fitb_questions[1], odd], model, ds, reps)


class TestUnknownItem:
    """An id the dataset does not hold is a DomainError naming it."""

    def test_compute_representations(self):
        ds, model, _ = fixture_model_and_reps(seed=20)
        with pytest.raises(DomainError, match="'nope' is not in the dataset"):
            compute_representations(model, ds, [next(iter(ds.items)), "nope"])

    def test_fc_question(self):
        ds, model, reps = fixture_model_and_reps(seed=21)
        q = FCQuestion(items=(*ds.fc_questions[0].items[:2], "nope"), label=1)
        for given in (None, reps):
            with pytest.raises(DomainError,
                               match="'nope' is not in the dataset"):
                fc_scores_and_labels(ds, [q], model, given)


class TestFcAuc:
    def test_perfect_separation(self):
        assert fc_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_tied_scores_give_half(self):
        assert fc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_matches_quadratic_oracle_with_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = 200
            # quantized scores so ties actually occur
            scores = np.round(rng.normal(size=n), 1)
            labels = (rng.random(n) < 0.4).astype(int)
            if labels.sum() in (0, n):
                continue
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = ties = 0
            for p in pos:
                for q in neg:
                    if p > q:
                        wins += 1
                    elif p == q:
                        ties += 1
            expected = (wins + 0.5 * ties) / (len(pos) * len(neg))
            assert fc_auc(scores, labels) == pytest.approx(expected,
                                                           abs=1e-12)

    def test_single_class_is_undefined(self):
        with pytest.raises(MetricUndefinedError):
            fc_auc([0.1, 0.2], [1, 1])
        with pytest.raises(MetricUndefinedError):
            fc_auc([0.1, 0.2], [0, 0])


class TestFitbAnswer:
    def test_truth_identical_candidate_wins(self):
        ds, model, reps = fixture_model_and_reps(seed=6)
        q = ds.fitb_questions[0]
        truth = q.candidates[q.answer]
        # make every candidate's rep equal to the truth rep except one
        boosted = dataclasses.replace(
            q, candidates=tuple(truth for _ in q.candidates))
        ans = fitb_answer(boosted, model, ds, reps)
        assert ans is not None
        assert ans[0] == 0  # all-identical totals tie-break to index 0

    def test_matches_exhaustive_pair_sum(self):
        ds, model, reps = fixture_model_and_reps(seed=7)
        for q in ds.fitb_questions[:12]:
            out = fitb_answer(q, model, ds, reps)
            assert out is not None
            choice, totals = out
            expected = np.zeros(4)
            for ci, cand in enumerate(q.candidates):
                for other in q.partial:
                    tc = ds.items[cand].type.name
                    to = ds.items[other].type.name
                    if model.has_space(tc, to):
                        expected[ci] += score_from_reps(model, tc, reps[cand],
                                                        to, reps[other])
            np.testing.assert_allclose(totals, expected, atol=1e-12)
            assert choice == int(np.argmax(expected))

    def test_no_scorable_candidate_returns_none(self):
        ds, model, reps = fixture_model_and_reps(seed=8)
        model2 = dataclasses.replace(model, spaces={})
        assert fitb_answer(ds.fitb_questions[0], model2, ds, reps) is None


class TestVote:
    def test_clear_majority(self):
        totals = [np.zeros(4)] * 5
        assert vote([2, 2, 1, 2, 0], totals) == 2

    def test_single_run_is_identity(self):
        assert vote([3], [np.array([0.0, 0.0, 0.0, 1.0])]) == 3

    def test_tie_resolved_by_summed_scores(self):
        answers = [0, 0, 1, 1, 2]
        totals = [np.array([1.0, 2.0, 0.0, 0.0])] * 5
        # candidates 0 and 1 tie at two votes; 1 has the larger summed score
        assert vote(answers, totals) == 1

    def test_tie_with_equal_scores_takes_lowest_index(self):
        answers = [0, 1]
        totals = [np.array([0.5, 0.5, 0.0, 0.0])] * 2
        assert vote(answers, totals) == 0

    def test_zero_runs_rejected(self):
        with pytest.raises(MetricUndefinedError):
            vote([], [])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_array_vote_equals_per_question_rule(self, data):
        """`vote` over (R, Q) answers and (R, Q, 4) totals is, question by
        question, `reference_vote`. Totals from a few values make ties in
        both the counts and the summed totals."""
        runs = data.draw(st.integers(1, 6), label="runs")
        count = data.draw(st.integers(1, 40), label="questions")
        answers = np.array(data.draw(st.lists(
            st.integers(0, 3), min_size=runs * count,
            max_size=runs * count))).reshape(runs, count)
        totals = np.array(data.draw(st.lists(
            st.sampled_from([-0.5, 0.0, 0.25, 1.0]), min_size=runs * count * 4,
            max_size=runs * count * 4))).reshape(runs, count, 4)
        got = vote(answers, totals)
        assert got.shape == (count,)
        assert got.tolist() == [
            reference_vote(answers[:, k].tolist(), list(totals[:, k]))
            for k in range(count)]


class TestEvaluate:
    def trained_models(self, ds, n=2):
        cfg = TrainConfig(fusion="baseline", epochs=1, learning_rate=1e-3,
                          batch_size=32, d_g=8, d_c=8, h=8, runs=1)
        return [train(ds, cfg, seed=s)[0] for s in range(n)]

    def test_counts_are_consistent(self):
        spec = dataclasses.replace(SPEC, undescribed_frac=0.3)
        ds = generate_synthetic(spec, seed=9)
        models = self.trained_models(ds)
        report = evaluate(ds, models)
        assert report.fc_total == len(ds.fc_questions)
        assert report.fitb_total == len(ds.fitb_questions)
        kept_fc = report.fc_total - report.fc_discarded
        assert report.fc_answered + report.fc_unanswerable == kept_fc
        kept_fitb = report.fitb_total - report.fitb_discarded
        assert report.fitb_answered + report.fitb_unanswerable == kept_fitb
        assert len(report.fc_auc_per_run) == 2
        assert report.fc_auc_mean == pytest.approx(
            np.mean(report.fc_auc_per_run))

    def test_identical_runs_vote_like_a_single_run(self):
        ds = generate_synthetic(SPEC, seed=10)
        model = self.trained_models(ds, n=1)[0]
        single = evaluate(ds, [model])
        five = evaluate(ds, [model] * 5)
        assert five.fitb_accuracy_vote == single.fitb_accuracy_per_run[0]
        assert five.fitb_accuracy_per_run == [single.fitb_accuracy_per_run[0]] * 5

    def test_eval_path_builds_no_items(self, tmp_path):
        """`load_dataset` and `evaluate` read the feature store, the word
        rows and the type ranks; `Dataset.items` is built on first use."""
        ds = generate_synthetic(SPEC, seed=9)
        models = self.trained_models(ds)
        loaded = load_dataset(save_dataset(ds, tmp_path))
        evaluate(loaded, models)
        assert "items" not in vars(loaded)
        assert list(loaded.items) == list(ds.items)
        assert "items" in vars(loaded)

    def test_mismatched_pair_tables_rejected(self):
        ds = generate_synthetic(SPEC, seed=11)
        model = self.trained_models(ds, n=1)[0]
        pruned = dict(model.spaces)
        del pruned[sorted(pruned)[0]]
        other = dataclasses.replace(model, spaces=pruned)
        with pytest.raises(MetricUndefinedError):
            evaluate(ds, [model, other])

    def unscorable_question(self, ds, model):
        """A FITB question with one partial item, and `model` without the
        space of that item's type and the candidates' shared type."""
        q = ds.fitb_questions[0]
        types = {ds.items[i].type.name for i in q.candidates}
        assert len(types) == 1
        pair = canonical_pair(ds.items[q.partial[0]].type.name, *types)
        pruned = {k: v for k, v in model.spaces.items() if k != pair}
        assert len(pruned) == len(model.spaces) - 1
        return (FITBQuestion(partial=q.partial[:1], candidates=q.candidates,
                             answer=q.answer),
                dataclasses.replace(model, spaces=pruned))

    def test_vote_skips_a_question_without_a_trained_pair(self):
        ds, model, _ = fixture_model_and_reps(seed=13)
        question, pruned = self.unscorable_question(ds, model)
        ds.fitb_questions.append(question)
        report = evaluate(ds, [pruned] * 2)
        assert report.fitb_unanswerable >= 1 and report.fitb_answered >= 1
        assert (report.fitb_answered + report.fitb_unanswerable
                == len(ds.fitb_questions))
        assert report.fitb_accuracy_vote == report.fitb_accuracy_per_run[0]

    def test_no_answerable_fitb_question_rejected(self):
        ds, model, _ = fixture_model_and_reps(seed=14)
        question, pruned = self.unscorable_question(ds, model)
        ds.fitb_questions = [question]
        with pytest.raises(MetricUndefinedError, match="no answerable FITB"):
            evaluate(ds, [pruned])

    def test_no_models_rejected(self):
        ds = generate_synthetic(SPEC, seed=12)
        with pytest.raises(MetricUndefinedError):
            evaluate(ds, [])
