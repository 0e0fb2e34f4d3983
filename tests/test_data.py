"""Dataset model, on-disk round-trips and the synthetic generator."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outfitrec import data
from outfitrec.data import (Dataset, Dims, FCQuestion, FITBQuestion, Item,
                            ItemType, Outfit, SyntheticSpec, filter_questions,
                            generate_synthetic, load_dataset, save_dataset)
from outfitrec.errors import DatasetError, DimensionError, SyntheticSpecError


def tiny_dataset() -> Dataset:
    t0, t1 = ItemType("tops", 0), ItemType("shoes", 1)
    dims = Dims(num_regions=2, num_words=3, region_dim=4, word_dim=5)
    rng = np.random.default_rng(0)

    def item(i, typ, described=True):
        words = (rng.normal(size=(3, 5)) if described
                 else np.zeros((0, 5)))
        return Item(id=i, type=typ, regions=rng.normal(size=(2, 4)),
                    words=words,
                    description="a nice piece" if described else None)

    items = {"a": item("a", t0), "b": item("b", t1),
             "c": item("c", t1, described=False)}
    outfits = {"train": [Outfit(id="o1", items=("a", "b"))],
               "valid": [], "test": []}
    return Dataset(items=items, types=[t0, t1], dims=dims, outfits=outfits,
                   fc_questions=[FCQuestion(items=("a", "b"), label=1)],
                   fitb_questions=[])


def test_minimal_manifest_round_trip(tmp_path):
    ds = tiny_dataset()
    manifest = save_dataset(ds, tmp_path)
    loaded = load_dataset(manifest)
    assert len(loaded.items) == 3
    assert len(loaded.outfits["train"]) == 1
    assert loaded.items["c"].words.shape == (0, 5)
    assert loaded.items["c"].description is None


def test_round_trip_is_bit_exact(tmp_path):
    ds = tiny_dataset()
    save_dataset(ds, tmp_path / "first")
    loaded = load_dataset(tmp_path / "first" / "manifest.json")
    save_dataset(loaded, tmp_path / "second")
    for blob in sorted((tmp_path / "first" / "features").iterdir()):
        other = tmp_path / "second" / "features" / blob.name
        assert blob.read_bytes() == other.read_bytes()


def test_wrong_blob_length_names_item(tmp_path):
    manifest = save_dataset(tiny_dataset(), tmp_path)
    blob = tmp_path / "features" / "a.regions.bin"
    blob.write_bytes(blob.read_bytes()[:-4])
    with pytest.raises(DatasetError, match="'a'"):
        load_dataset(manifest)


def test_dangling_outfit_reference_rejected(tmp_path):
    manifest = save_dataset(tiny_dataset(), tmp_path)
    meta = json.loads(manifest.read_text())
    meta["outfits"][0]["items"] = ["a", "missing"]
    manifest.write_text(json.dumps(meta))
    with pytest.raises(DatasetError, match="missing"):
        load_dataset(manifest)


def test_fitb_question_validation(tmp_path):
    manifest = save_dataset(tiny_dataset(), tmp_path)
    meta = json.loads(manifest.read_text())
    meta["questions"]["fitb"] = [{"partial": ["a"],
                                  "candidates": ["b", "c", "a"],
                                  "answer": 0}]
    manifest.write_text(json.dumps(meta))
    with pytest.raises(DatasetError, match="4 candidates"):
        load_dataset(manifest)


def test_words_blob_without_description_rejected(tmp_path):
    manifest = save_dataset(tiny_dataset(), tmp_path)
    meta = json.loads(manifest.read_text())
    for entry in meta["items"]:
        if entry["id"] == "a":
            entry["description"] = None
    manifest.write_text(json.dumps(meta))
    with pytest.raises(DatasetError, match="'a'"):
        load_dataset(manifest)


@pytest.mark.parametrize("drop", [
    lambda meta: meta.pop("dims"),
    lambda meta: meta["types"][0].pop("name"),
    lambda meta: meta["items"][0].pop("regions"),
], ids=["dims", "type_name", "item_regions"])
def test_missing_manifest_key_raises_dataset_error(tmp_path, drop):
    manifest = save_dataset(tiny_dataset(), tmp_path)
    meta = json.loads(manifest.read_text())
    drop(meta)
    manifest.write_text(json.dumps(meta))
    with pytest.raises(DatasetError):
        load_dataset(manifest)


@pytest.mark.parametrize("edit", [
    lambda meta: meta["dims"].update(num_regions=float("inf")),
    lambda meta: meta["types"][0].update(id=float("-inf")),
], ids=["dims", "type_id"])
def test_infinite_count_raises_dataset_error(tmp_path, edit):
    manifest = save_dataset(tiny_dataset(), tmp_path)
    meta = json.loads(manifest.read_text())
    edit(meta)
    manifest.write_text(json.dumps(meta))
    with pytest.raises(DatasetError):
        load_dataset(manifest)


FITB_TRUE_ANSWER = {"partial": ["a"], "candidates": ["b", "c", "b", "c"],
                    "answer": True}


@pytest.mark.parametrize("edit", [
    lambda meta: meta["dims"].update(num_regions=2.9),
    lambda meta: meta["dims"].update(num_words="3"),
    lambda meta: meta["types"][1].update(id=True),
    lambda meta: meta["types"][1].update(id=0),
    lambda meta: meta["questions"]["fc"][0].update(label=True),
    lambda meta: meta["questions"]["fc"][0].update(label=1.0),
    lambda meta: meta["questions"]["fitb"].append(FITB_TRUE_ANSWER),
], ids=["fractional_dims", "string_dims", "bool_type_id", "shared_type_id",
        "bool_fc_label", "float_fc_label", "bool_fitb_answer"])
def test_manifest_integers_are_strict(tmp_path, edit):
    """Each edit used to load, coerced by int() or passed by `in (0, 1)`."""
    manifest = save_dataset(tiny_dataset(), tmp_path)
    meta = json.loads(manifest.read_text())
    edit(meta)
    manifest.write_text(json.dumps(meta))
    with pytest.raises(DatasetError):
        load_dataset(manifest)


def test_non_object_manifest_raises_dataset_error(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("[]")
    with pytest.raises(DatasetError):
        load_dataset(manifest)


def test_deleted_blob_names_item(tmp_path):
    manifest = save_dataset(tiny_dataset(), tmp_path)
    (tmp_path / "features" / "b.words.bin").unlink()
    with pytest.raises(DatasetError, match="'b'"):
        load_dataset(manifest)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A loadable manifest (with one FITB question, so every section has an
    entry) and the directory that holds its blobs."""
    root = tmp_path_factory.mktemp("manifest_fuzz")
    manifest = save_dataset(tiny_dataset(), root)
    meta = json.loads(manifest.read_text())
    meta["questions"]["fitb"].append(
        {"partial": ["a"], "candidates": ["b", "c", "b", "c"], "answer": 0})
    manifest.write_text(json.dumps(meta))
    load_dataset(manifest)
    return root, meta


def json_paths(node, path=()):
    """The key path of every value below `node`."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


FUZZ_VALUES = st.one_of(
    st.sampled_from([None, True, 0, -1, 2**70, 0.5, float("inf"),
                     float("nan"), "", "a", [], {}, ["a", "a"]]),
    st.integers(), st.floats(), st.text(max_size=8))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_manifest_raises_only_package_errors(fuzz_base, data):
    root, base = fuzz_base
    meta = json.loads(json.dumps(base))
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        *parent_path, key = data.draw(st.sampled_from(list(json_paths(meta))),
                                      label="path")
        parent = meta
        for k in parent_path:
            parent = parent[k]
        edit = data.draw(st.sampled_from(["delete", "retype", "nest"]),
                         label="edit")
        if edit == "delete":
            del parent[key]
        elif edit == "retype":
            parent[key] = data.draw(FUZZ_VALUES, label="value")
        else:
            parent[key] = data.draw(st.sampled_from(
                [[parent[key]], {"value": parent[key]}]), label="wrapper")
    manifest = root / "mutated.json"
    manifest.write_text(json.dumps(meta))
    try:
        load_dataset(manifest)
    except (DatasetError, DimensionError):
        pass


class TestSyntheticGenerator:
    SPEC = SyntheticSpec(num_types=5, num_styles=3, train_outfits=20,
                         valid_outfits=4, fc_questions=40, fitb_questions=20,
                         outfit_size=3, num_regions=4, num_words=3,
                         region_dim=6, word_dim=5, signal_rows=2)

    def test_deterministic_in_seed(self, tmp_path):
        a = generate_synthetic(self.SPEC, seed=9)
        b = generate_synthetic(self.SPEC, seed=9)
        save_dataset(a, tmp_path / "a")
        save_dataset(b, tmp_path / "b")
        files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_same_outfit_items_share_signal_rows(self):
        ds = generate_synthetic(self.SPEC, seed=3)
        amp = self.SPEC.signal_amplitude
        for outfit in ds.outfits["train"][:5]:
            signal_sets = []
            for item_id in outfit.items:
                regions = ds.items[item_id].regions
                # planted rows have exact amplitude-scaled unit-pattern norm
                norms = np.linalg.norm(regions, axis=1)
                planted = regions[np.isclose(norms, amp)]
                assert len(planted) == self.SPEC.signal_rows
                signal_sets.append(planted[0])
            for sig in signal_sets[1:]:
                np.testing.assert_array_equal(signal_sets[0], sig)

    def test_infeasible_specs_rejected(self):
        import dataclasses
        with pytest.raises(SyntheticSpecError):
            generate_synthetic(dataclasses.replace(self.SPEC, signal_rows=9),
                               seed=0)
        with pytest.raises(SyntheticSpecError):
            generate_synthetic(dataclasses.replace(self.SPEC, num_styles=1),
                               seed=0)

    @pytest.mark.parametrize("field, value", [
        ("outfit_size", 1), ("undescribed_frac", -0.1),
        ("undescribed_frac", 1.0), ("undescribed_frac", 1.5)])
    def test_out_of_range_fields_fail_validation(self, field, value):
        import dataclasses
        # validate() directly: generating a one-item-outfit spec would hang
        spec = dataclasses.replace(self.SPEC, **{field: value})
        with pytest.raises(SyntheticSpecError, match=field):
            spec.validate()

    def test_single_test_outfit_fails_validation(self):
        spec = SyntheticSpec(train_outfits=4, valid_outfits=0,
                             fc_questions=1, fitb_questions=1)
        with pytest.raises(SyntheticSpecError, match="2 test outfits"):
            spec.validate()

    def test_fc_negative_search_is_bounded(self, monkeypatch):
        monkeypatch.setattr(data, "FC_NEGATIVE_DRAWS", 1)
        with pytest.raises(SyntheticSpecError, match="1 draws"):
            generate_synthetic(self.SPEC, seed=0)

    def test_question_counts_and_shapes(self):
        ds = generate_synthetic(self.SPEC, seed=1)
        assert len(ds.fc_questions) == 40
        assert len(ds.fitb_questions) == 20
        assert sum(q.label for q in ds.fc_questions) == 20
        for q in ds.fitb_questions:
            assert len(q.candidates) == 4
            assert 0 <= q.answer <= 3
            truth = q.candidates[q.answer]
            assert ds.items[truth].type.name in {
                ds.items[c].type.name for c in q.candidates}

    def test_fitb_distractors_share_type_not_style(self):
        ds = generate_synthetic(self.SPEC, seed=2)
        for q in ds.fitb_questions:
            truth = ds.items[q.candidates[q.answer]]
            for i, cand in enumerate(q.candidates):
                if i == q.answer:
                    continue
                assert ds.items[cand].type.name == truth.type.name

    def test_undescribed_fraction(self):
        import dataclasses
        spec = dataclasses.replace(self.SPEC, undescribed_frac=0.5)
        ds = generate_synthetic(spec, seed=4)
        undescribed = [i for i in ds.items.values() if not i.described]
        assert undescribed, "expected some undescribed items"
        for item in undescribed:
            assert item.words.shape[0] == 0


class TestFilterQuestions:
    def test_drops_questions_with_undescribed_items(self):
        ds = tiny_dataset()
        fc = [FCQuestion(items=("a", "b"), label=1),
              FCQuestion(items=("a", "c"), label=0)]
        fitb = [FITBQuestion(partial=("a",), candidates=("b", "b", "b", "c"),
                             answer=0)]
        kept_fc, kept_fitb, fc_disc, fitb_disc = filter_questions(fc, fitb, ds)
        assert [q.items for q in kept_fc] == [("a", "b")]
        assert kept_fitb == []
        assert (fc_disc, fitb_disc) == (1, 1)

    def test_all_described_passes_through_unchanged(self):
        ds = tiny_dataset()
        fc = [FCQuestion(items=("a", "b"), label=1)]
        kept_fc, kept_fitb, fc_disc, fitb_disc = filter_questions(fc, [], ds)
        assert kept_fc == fc and kept_fitb == []
        assert fc_disc == fitb_disc == 0
