"""Training configuration, triplet sampling and the training loop."""

import dataclasses

import numpy as np
import pytest
import scipy.stats

from outfitrec.compatibility import LossWeights
from outfitrec.data import (Dataset, ItemType, Outfit, SyntheticSpec,
                            canonical_pair, generate_synthetic)
from outfitrec import training
from outfitrec.errors import ConfigError, ConsistencyError
from outfitrec.model import init_model, ModelDims
from outfitrec.training import (TrainConfig, sample_triplets, train,
                                train_ensemble)

SMALL_SPEC = SyntheticSpec(num_types=4, num_styles=3, train_outfits=30,
                           valid_outfits=6, fc_questions=20, fitb_questions=10,
                           outfit_size=3, num_regions=4, num_words=3,
                           region_dim=6, word_dim=5, signal_rows=2)

TINY_CONFIG = TrainConfig(fusion="baseline", epochs=1, learning_rate=1e-3,
                          batch_size=32, d_g=8, d_c=8, h=8, runs=1)


def handmade_dataset(outfit_specs):
    """outfit_specs: list of lists of (item_id, type_name)."""
    type_names = sorted({t for spec in outfit_specs for _, t in spec})
    types = [ItemType(n, i) for i, n in enumerate(type_names)]
    by_name = {t.name: t for t in types}
    entries = {item_id: (by_name[type_name], "x")
               for spec in outfit_specs for item_id, type_name in spec}
    outfits = [Outfit(id=f"o{k}", items=tuple(i for i, _ in spec))
               for k, spec in enumerate(outfit_specs)]
    rng = np.random.default_rng(0)
    return Dataset(entries, rng.normal(size=(len(entries), 2, 3)),
                   rng.normal(size=(len(entries), 2, 3)), types=types,
                   outfits={"train": outfits, "valid": [], "test": []})


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 10
        assert cfg.learning_rate == 5e-5
        assert cfg.batch_size == 128
        assert cfg.lambda_vsim == cfg.lambda_tsim == 5e-5
        assert cfg.lambda_vse == 5e-3
        assert cfg.margin == 0.2
        assert cfg.hops == 2 and cfg.mfb_factor == 2
        assert cfg.d_g == cfg.d_c == cfg.h == 512
        assert cfg.runs == 5

    def test_default_weights_are_the_loss_defaults(self):
        assert TrainConfig().weights() == LossWeights()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="learning_rte"):
            TrainConfig.from_dict({"learning_rte": 1e-3})

    def test_round_trips_through_dict(self):
        cfg = dataclasses.replace(TINY_CONFIG, fusion="stacked")
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_invalid_values_rejected(self):
        for bad in ({"fusion": "mlp"}, {"epochs": -1},
                    {"learning_rate": 0.0}, {"runs": 0}, {"margin": -0.1}):
            with pytest.raises(ValueError):
                TrainConfig.from_dict(bad)

    @pytest.mark.parametrize("field, value", [
        ("epochs", "3"), ("runs", True), ("batch_size", 2.5),
        ("margin", "x"), ("learning_rate", float("nan")), ("seed", -1)])
    def test_field_types_and_seed_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig.from_dict({field: value})

    def test_integer_valued_float_fields_accepted(self):
        assert TrainConfig.from_dict({"margin": 1}).margin == 1

    @pytest.mark.parametrize("field, value", [
        ("margin", 0.0), ("batch_size", 0), ("fusion", "nope"),
        ("epochs", 1.5)])
    def test_bad_config_raises_a_package_error(self, field, value):
        """The CLI reports package errors as usage errors; `ConfigError` is
        also a ValueError for callers that catch that."""
        ds = handmade_dataset([[("a", "tops"), ("b", "shoes")]])
        with pytest.raises(ConfigError, match=field):
            train(ds, dataclasses.replace(TINY_CONFIG, **{field: value}))

    def test_unknown_fusion_kind_raises_a_package_error(self):
        dims = ModelDims(d_g=2, d_c=2, h=2, hops=1, mfb_factor=1,
                         region_dim=2, word_dim=2)
        with pytest.raises(ConfigError, match="'nope'"):
            init_model("nope", dims, {("a", "b")}, seed=0)


class RecordingRng:
    """A seeded generator that records the bound of each `integers` draw,
    one entry per element of an array of bounds, and counts the calls."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bounds = []
        self.calls = 0

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def permutation(self, n):
        return self.rng.permutation(n)

    def integers(self, n):
        self.calls += 1
        self.bounds.extend(np.ravel(n).tolist())
        return self.rng.integers(n)


class TestVectorDrawPremise:
    """`sample_triplets` draws many candidates with one array-bound
    `Generator.integers` call. That keeps the scalar loop's numbers only
    while numpy draws an array of bounds element by element, exactly as
    one scalar call per bound; a numpy that changes this fails here."""

    BOUNDS = np.array([1, 2, 3, 4] + [2 ** k for k in range(20)]
                      + [3, 2 ** 31, 2 ** 31 - 1, 2 ** 30 + 1, 1_000_003, 7,
                         2 ** 19 + 1, 1, 50, 900], dtype=np.int64)

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_array_bounds_draw_as_scalar_calls(self, seed):
        bounds = np.random.default_rng(seed).permutation(
            np.tile(self.BOUNDS, 50))
        vector, scalar = (np.random.default_rng(seed + 7) for _ in range(2))
        got = vector.integers(bounds)
        want = [scalar.integers(int(b)) for b in bounds]
        assert got.tolist() == want
        assert vector.bit_generator.state == scalar.bit_generator.state

    def test_restored_state_redraws_a_prefix(self):
        bounds = np.tile(self.BOUNDS, 10)
        rng, scalar = np.random.default_rng(3), np.random.default_rng(3)
        state = rng.bit_generator.state
        full = rng.integers(bounds)
        rng.bit_generator.state = state
        assert rng.integers(bounds[:57]).tolist() == full[:57].tolist()
        for b in bounds[:57]:
            scalar.integers(int(b))
        assert rng.bit_generator.state == scalar.bit_generator.state


def scalar_sample_triplets(ds, rng):
    """Reference: the sampler as one scalar `rng.integers` call per drawn
    candidate, with per-anchor co-occurrence sets and per-type pools."""
    co_occur, pools, pairs = {}, {}, []
    for outfit in ds.outfits["train"]:
        members = ds.described_rows(outfit.items).tolist()
        for a in members:
            if a not in co_occur:
                pools.setdefault(int(ds.type_rank[a]), []).append(a)
            co_occur.setdefault(a, set()).update(m for m in members if m != a)
        pairs += [(a, b) for a in members for b in members if a != b]
    triplets, skipped = [], 0
    for k in rng.permutation(len(pairs)).tolist():
        a, b = pairs[k]
        pool, banned = pools[int(ds.type_rank[b])], co_occur[a]
        for _ in range(16):
            cand = pool[int(rng.integers(len(pool)))]
            if cand != a and cand not in banned:
                triplets.append((a, b, cand))
                break
        else:
            eligible = [c for c in pool if c != a and c not in banned]
            if eligible:
                triplets.append((a, b, eligible[int(rng.integers(
                    len(eligible)))]))
            else:
                skipped += 1
    return triplets, skipped


def id_triplets(ds, triplets):
    """The (anchor, positive, negative) item ids of each row triplet."""
    assert triplets.dtype == np.intp and triplets.shape[1:] == (3,)
    return [tuple(ds.ids[r] for r in t) for t in triplets.tolist()]


class TestSampleTriplets:
    def test_sampled_triplets_satisfy_constraints(self):
        ds = generate_synthetic(SMALL_SPEC, seed=0)
        triplets, _ = sample_triplets(ds, np.random.default_rng(1))
        assert len(triplets)
        co_occur = {}
        for o in ds.outfits["train"]:
            for a in o.items:
                co_occur.setdefault(a, set()).update(o.items)
        for anchor, positive, negative in id_triplets(ds, triplets):
            assert positive in co_occur[anchor]
            assert (ds.items[negative].type.name
                    == ds.items[positive].type.name)
            assert negative not in co_occur[anchor]
            assert negative != anchor
            for item_id in (anchor, positive, negative):
                assert ds.items[item_id].described

    def test_pairs_without_valid_negative_are_skipped(self):
        ds = handmade_dataset([[("a", "tops"), ("b", "shoes")]])
        triplets, skipped = sample_triplets(ds, np.random.default_rng(0))
        assert id_triplets(ds, triplets) == []
        assert skipped == 2  # both ordered pairs of the single outfit

    def test_two_outfits_force_the_only_eligible_negative(self):
        ds = handmade_dataset([[("a", "tops"), ("b", "shoes")],
                               [("c", "tops"), ("d", "shoes")]])
        triplets, skipped = sample_triplets(ds, np.random.default_rng(0))
        assert skipped == 0
        forced = {("a", "b"): "d", ("b", "a"): "c",
                  ("c", "d"): "b", ("d", "c"): "a"}
        for anchor, positive, negative in id_triplets(ds, triplets):
            assert negative == forced[(anchor, positive)]

    def test_negative_choice_is_uniform(self):
        # anchor "a" has five eligible same-type negatives d1..d5
        outfits = [[("a", "tops"), ("b", "shoes")]]
        outfits += [[(f"c{i}", "tops"), (f"d{i}", "shoes")] for i in range(5)]
        ds = handmade_dataset(outfits)
        rng = np.random.default_rng(2)
        counts = {f"d{i}": 0 for i in range(5)}
        for _ in range(3000):
            for anchor, positive, negative in id_triplets(
                    ds, sample_triplets(ds, rng)[0]):
                if (anchor, positive) == ("a", "b"):
                    counts[negative] += 1
        observed = np.array([counts[f"d{i}"] for i in range(5)])
        assert observed.sum() == 3000
        assert scipy.stats.chisquare(observed).pvalue > 0.01

    def test_last_eligible_negative_is_drawn_from_the_list(self):
        """Anchor "a" shares an outfit with 64 of the 65 shoes, so 16
        rejected draws are likely; the list draw then has one eligible
        shoe, "z", and draws from a range of 1."""
        outfits = [[("a", "tops"), (f"b{i}", "shoes")] for i in range(64)]
        outfits.append([("c", "tops"), ("z", "shoes")])
        ds = handmade_dataset(outfits)
        rng = RecordingRng(5)
        triplets, skipped = sample_triplets(ds, rng)
        assert skipped == 0
        from_a = [t for t in id_triplets(ds, triplets) if t[0] == "a"]
        assert len(from_a) == 64
        assert all(negative == "z" for _, _, negative in from_a)
        assert 1 in rng.bounds   # the eligible-list draw ran

    @pytest.mark.parametrize("make", [
        lambda: generate_synthetic(SMALL_SPEC, seed=0),
        lambda: generate_synthetic(dataclasses.replace(
            SMALL_SPEC, undescribed_frac=0.4), seed=3),
        lambda: handmade_dataset(
            [[("a", "tops"), (f"b{i}", "shoes")] for i in range(64)]
            + [[("c", "tops"), ("z", "shoes")], [("y", "hats"), ("x", "tops")],
               [("w", "hats")], [("p", "bags"), ("q", "belts")]]),
        lambda: generate_synthetic(SyntheticSpec(), seed=42),
        lambda: generate_synthetic(SyntheticSpec(
            num_types=4, train_outfits=11, valid_outfits=8, fc_questions=100,
            fitb_questions=50), seed=42),
    ], ids=["small", "undescribed", "forced_and_skipped", "default", "paper"])
    def test_draws_the_scalar_loops_numbers(self, make):
        """Epoch after epoch, the same triplets, skips and final generator
        state as the scalar reference loop: on the small data, where many
        first candidates are rejected and so end vector rounds early, and
        on the default and paper-width specs, where few are."""
        ds = make()
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        for _ in range(4):
            triplets, skipped = sample_triplets(ds, rng)
            want, want_skipped = scalar_sample_triplets(ds, ref)
            assert triplets.tolist() == [list(t) for t in want]
            assert skipped == want_skipped
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_an_epoch_draws_in_few_calls(self):
        """The default spec's first candidates come in vector rounds: an
        epoch makes fewer than one `integers` call per 20 pairs, not one
        call per pair."""
        ds = generate_synthetic(SyntheticSpec(), seed=42)
        rng = RecordingRng(6)
        sample_triplets(ds, rng)
        assert 0 < rng.calls < len(ds.train_pairs.pairs) / 20

    def test_undescribed_items_never_sampled(self):
        spec = dataclasses.replace(SMALL_SPEC, undescribed_frac=0.4)
        ds = generate_synthetic(spec, seed=3)
        assert any(not i.described for i in ds.items.values())
        triplets, _ = sample_triplets(ds, np.random.default_rng(4))
        assert (ds.word_row[triplets] >= 0).all()
        for t in id_triplets(ds, triplets):
            for item_id in t:
                assert ds.items[item_id].described


class TestBatchArrays:
    def test_store_rows_equal_the_stacked_items(self):
        """Every batch of an epoch on data with undescribed items equals
        the per-item `np.stack` that batch assembly used to make."""
        spec = dataclasses.replace(SMALL_SPEC, undescribed_frac=0.2)
        ds = generate_synthetic(spec, seed=3)
        assert any(not i.described for i in ds.items.values())
        triplets, _ = sample_triplets(ds, np.random.default_rng(0))
        for start in range(0, len(triplets), 32):
            batch = triplets[start:start + 32]
            regions, words, _ = training._batch_arrays(ds, batch)
            items = [ds.items[ds.ids[r]] for r in dict.fromkeys(
                batch.T.ravel().tolist())]
            np.testing.assert_array_equal(
                regions, np.stack([item.regions for item in items]))
            np.testing.assert_array_equal(
                words, np.stack([item.words for item in items]))

    def test_pair_groups_match_per_triplet_grouping(self):
        """Grouping by type ranks gives the type pairs, their first-seen
        order and their columns of a per-triplet `canonical_pair` loop."""
        ds = generate_synthetic(SMALL_SPEC, seed=4)
        triplets, _ = sample_triplets(ds, np.random.default_rng(1))
        for start in range(0, len(triplets), 32):
            batch = id_triplets(ds, triplets[start:start + 32])
            _, _, groups = training._batch_arrays(
                ds, triplets[start:start + 32])
            ids = [t[role] for role in range(3) for t in batch]
            row = {item: r for r, item in enumerate(dict.fromkeys(ids))}
            role_rows = np.array([row[i] for i in ids]).reshape(3, -1)
            want: dict = {}
            for b, (anchor, positive, _) in enumerate(batch):
                want.setdefault(canonical_pair(ds.items[anchor].type.name,
                                               ds.items[positive].type.name),
                                []).append(b)
            assert list(groups) == list(want)
            for key, cols in want.items():
                np.testing.assert_array_equal(groups[key], role_rows[:, cols])


class TestTrainLoop:
    def test_zero_epochs_return_initialization(self):
        ds = generate_synthetic(SMALL_SPEC, seed=5)
        cfg = dataclasses.replace(TINY_CONFIG, epochs=0, seed=7)
        model, history = train(ds, cfg)
        assert history == []
        dims = ModelDims(d_g=8, d_c=8, h=8, hops=2, mfb_factor=2,
                         region_dim=6, word_dim=5)
        fresh = init_model("baseline", dims, ds.trained_type_pairs(), seed=7)
        for (name, p), (fname, fp) in zip(model.parameters(),
                                          fresh.parameters()):
            assert name == fname
            np.testing.assert_array_equal(p.data, fp.data)

    def test_same_seed_is_bit_deterministic(self):
        ds = generate_synthetic(SMALL_SPEC, seed=6)
        losses = []
        for _ in range(2):
            _, history = train(ds, TINY_CONFIG, seed=11)
            losses.append(history[0].step_losses[:10])
        assert losses[0] == losses[1]

    def test_loss_decreases_over_epochs(self):
        ds = generate_synthetic(SMALL_SPEC, seed=7)
        cfg = dataclasses.replace(TINY_CONFIG, epochs=5)
        _, history = train(ds, cfg, seed=0)
        assert history[-1].mean_loss < history[0].mean_loss

    def test_validation_auc_is_reported(self):
        ds = generate_synthetic(SMALL_SPEC, seed=8)
        _, history = train(ds, TINY_CONFIG, seed=1)
        assert history[0].valid_auc is not None
        assert 0.0 <= history[0].valid_auc <= 1.0

    def test_one_valid_outfit_gives_no_validation_auc(self):
        ds = handmade_dataset([[("a", "tops"), ("b", "shoes")],
                               [("c", "tops"), ("d", "shoes")],
                               [("e", "tops"), ("f", "shoes")]])
        ds.outfits["valid"] = [ds.outfits["train"].pop()]
        _, history = train(ds, TINY_CONFIG, seed=0)
        assert history[0].step_losses
        assert history[0].valid_auc is None

    def test_no_trainable_type_pair_raises(self):
        ds = handmade_dataset([[("a", "tops"), ("b", "shoes")]])
        ds.outfits["valid"], ds.outfits["train"] = ds.outfits["train"], []
        with pytest.raises(ConsistencyError, match="no trainable type pairs"):
            train(ds, TINY_CONFIG)

    def test_train_builds_no_items(self):
        """Sampling, batch assembly, validation questions and the type-pair
        table read store rows, word rows and type ranks, not `Item`s."""
        ds = generate_synthetic(SMALL_SPEC, seed=8)
        _, history = train(ds, TINY_CONFIG, seed=1)
        assert history[0].valid_auc is not None
        assert "items" not in vars(ds)

    def test_non_finite_loss_raises(self, monkeypatch):
        ds = generate_synthetic(SMALL_SPEC, seed=8)
        real = training.training_loss
        monkeypatch.setattr(
            training, "training_loss",
            lambda *args, **kwargs: real(*args, **kwargs) * float("nan"))
        with pytest.raises(ConsistencyError,
                           match="non-finite loss at epoch 0 step 0"):
            train(ds, TINY_CONFIG, seed=1)


class TestEnsemble:
    def test_single_run(self):
        ds = generate_synthetic(SMALL_SPEC, seed=9)
        runs = train_ensemble(ds, dataclasses.replace(TINY_CONFIG, runs=1))
        assert len(runs) == 1

    def test_runs_use_distinct_seeds(self):
        ds = generate_synthetic(SMALL_SPEC, seed=10)
        cfg = dataclasses.replace(TINY_CONFIG, runs=3, seed=2)
        runs = train_ensemble(ds, cfg)
        first_losses = [hist[0].step_losses[0] for _, hist in runs]
        assert len(set(first_losses)) == 3
