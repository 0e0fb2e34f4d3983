"""Dataset model, on-disk round-trips and the synthetic generator."""

import ast
import copy
import dataclasses
import hashlib
import json
import struct
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outfitrec import data
from outfitrec.data import (Dataset, FCQuestion, FITBQuestion, ItemType,
                            Outfit, SyntheticSpec, canonical_pair,
                            filter_questions, generate_synthetic,
                            load_dataset, save_dataset)
from outfitrec.errors import (DatasetError, DimensionError, DomainError,
                              SyntheticSpecError)


def tiny_dataset() -> Dataset:
    """3 items of 2x4 regions; "a" and "b" are described, with 3x5 words."""
    t0, t1 = ItemType("tops", 0), ItemType("shoes", 1)
    rng = np.random.default_rng(0)
    entries = {"a": (t0, "a nice piece"), "b": (t1, "a nice piece"),
               "c": (t1, None)}
    outfits = {"train": [Outfit(id="o1", items=("a", "b"))],
               "valid": [], "test": []}
    return Dataset(entries, rng.normal(size=(3, 2, 4)),
                   rng.normal(size=(2, 3, 5)), types=[t0, t1],
                   outfits=outfits,
                   fc_questions=[FCQuestion(items=("a", "b"), label=1)])


def test_minimal_manifest_round_trip(tmp_path):
    ds = tiny_dataset()
    manifest = save_dataset(ds, tmp_path)
    loaded = load_dataset(manifest)
    assert len(loaded.items) == 3
    assert len(loaded.outfits["train"]) == 1
    assert loaded.items["c"].words.shape == (0, 5)
    assert loaded.items["c"].description is None


DATASET_FILES = ["manifest.json", "regions.f32", "words.f32"]


def test_save_writes_manifest_and_two_feature_files(tmp_path):
    save_dataset(tiny_dataset(), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == DATASET_FILES
    # 3 items of 2x4 regions; 2 described items of 3x5 words
    assert (tmp_path / "regions.f32").stat().st_size == 4 * 3 * 2 * 4
    assert (tmp_path / "words.f32").stat().st_size == 4 * 2 * 3 * 5


# a fifth of its items undescribed, so the word rows skip store rows
STORE_SPEC = SyntheticSpec(train_outfits=20, valid_outfits=4,
                           fc_questions=40, fitb_questions=20,
                           undescribed_frac=0.2)


def assert_round_trip_is_bit_exact(ds, tmp_path):
    save_dataset(ds, tmp_path / "first")
    loaded = load_dataset(tmp_path / "first" / "manifest.json")
    save_dataset(loaded, tmp_path / "second")
    for name in DATASET_FILES:
        assert ((tmp_path / "first" / name).read_bytes()
                == (tmp_path / "second" / name).read_bytes()), name


def test_round_trip_is_bit_exact(tmp_path):
    assert_round_trip_is_bit_exact(tiny_dataset(), tmp_path)


def item_feature_readers(tree, scope=""):
    """Qualified names of the scopes under `tree` that read an attribute
    named `regions` or `words`."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found |= item_feature_readers(node, f"{scope}{node.name}.")
        elif any(isinstance(n, ast.Attribute)
                 and n.attr in ("regions", "words") for n in ast.walk(node)):
            found.add(scope.rstrip(".") or "<module>")
    return found


class TestFeatureStore:
    def datasets(self, tmp_path):
        generated = generate_synthetic(STORE_SPEC, seed=3)
        return generated, load_dataset(save_dataset(generated, tmp_path))

    def test_items_view_their_store_rows(self, tmp_path):
        """Rows follow the manifest order, and word rows count the
        described items before each described item."""
        for ds in self.datasets(tmp_path):
            described = 0
            for row, (item_id, item) in enumerate(ds.items.items()):
                assert ds.row[item_id] == row
                assert np.shares_memory(item.regions, ds.regions)
                np.testing.assert_array_equal(item.regions, ds.regions[row])
                if item.described:
                    assert ds.word_row[row] == described
                    assert np.shares_memory(item.words, ds.words)
                    np.testing.assert_array_equal(item.words,
                                                  ds.words[described])
                    described += 1
                else:
                    assert ds.word_row[row] == -1
                    assert item.words.shape == (0, STORE_SPEC.word_dim)
            assert len(ds.words) == described < len(ds.items)

    def test_features_gather_store_rows_and_reject_undescribed(self):
        ds = generate_synthetic(STORE_SPEC, seed=3)
        bare = next(i for i, item in ds.items.items() if not item.described)
        ids = [i for i, item in ds.items.items() if item.described][::-1]
        rows = ds.rows(ids)
        assert [ds.ids[r] for r in rows] == ids
        regions, words = ds.features(rows)
        np.testing.assert_array_equal(
            regions, np.stack([ds.items[i].regions for i in ids]))
        np.testing.assert_array_equal(
            words, np.stack([ds.items[i].words for i in ids]))
        with pytest.raises(DomainError, match=repr(bare)):
            ds.features(ds.rows(ids[:2] + [bare]))

    @pytest.mark.parametrize("values", [
        np.zeros(0, np.intp), np.array([5, 2, 5, 9, 2, 0]),
        np.array([[4, 1, 4, 8], [7, 1, 0, 8], [0, 7, 3, 4]])],
        ids=["empty", "1d", "3xb"])
    def test_first_seen_matches_dict_fromkeys(self, values):
        distinct, index = data.first_seen(values)
        flat = values.ravel().tolist()
        want = list(dict.fromkeys(flat))
        assert distinct.tolist() == want
        assert index.shape == values.shape
        assert index.ravel().tolist() == [want.index(v) for v in flat]

    def test_trained_type_pairs_match_a_per_outfit_loop(self):
        ds = generate_synthetic(STORE_SPEC, seed=3)
        want = {canonical_pair(ds.items[a].type.name, ds.items[b].type.name)
                for o in ds.outfits["train"]
                for a, b in combinations(o.items, 2)
                if ds.items[a].described and ds.items[b].described}
        assert ds.trained_type_pairs() == want

    def test_generate_and_save_build_no_items(self, tmp_path):
        """The manifest's item list comes from the dataset's entries, so
        neither step builds an `Item`."""
        ds = generate_synthetic(STORE_SPEC, seed=3)
        save_dataset(ds, tmp_path)
        assert "items" not in vars(ds)

    def test_generate_save_load_save_is_byte_identical(self, tmp_path):
        assert_round_trip_is_bit_exact(generate_synthetic(STORE_SPEC, seed=3),
                                       tmp_path)

    def test_dims_are_the_store_shapes(self, tmp_path):
        for ds in self.datasets(tmp_path):
            assert vars(ds.dims) == {
                "num_regions": STORE_SPEC.num_regions,
                "num_words": STORE_SPEC.num_words,
                "region_dim": STORE_SPEC.region_dim,
                "word_dim": STORE_SPEC.word_dim}

    def test_only_data_and_pair_score_read_item_features(self):
        """The store is the one home of the feature layout. Outside
        `data.py`, only `pair_score`, which takes two `Item`s, reads an
        `Item`'s `.regions` or `.words`; every other reader takes store
        rows from `Dataset.features`."""
        readers = {(path.name, name)
                   for path in Path(data.__file__).parent.glob("*.py")
                   if path.name != "data.py"
                   for name in item_feature_readers(
                       ast.parse(path.read_text()))}
        assert readers == {("compatibility.py", "pair_score")}

    @pytest.mark.parametrize("module", ["training.py", "evaluation.py"])
    def test_no_per_item_stack_in_training_or_evaluation(self, module):
        tree = ast.parse((Path(data.__file__).parent / module).read_text())
        assert not any(isinstance(n, ast.Attribute) and n.attr == "stack"
                       for n in ast.walk(tree))

    @pytest.mark.parametrize("regions_rows, words_rows", [(2, 2), (3, 3)],
                             ids=["regions_short", "words_long"])
    def test_store_rows_must_match_the_entries(self, regions_rows,
                                               words_rows):
        t = ItemType("tops", 0)
        entries = {"a": (t, "x"), "b": (t, "y"), "c": (t, None)}
        with pytest.raises(DimensionError, match="3 items, 2 described"):
            Dataset(entries, np.zeros((regions_rows, 2, 4)),
                    np.zeros((words_rows, 3, 5)), types=[t], outfits={})


def test_version_1_manifest_rejected(tmp_path):
    """Version 1 kept one blob per matrix; it is not read."""
    manifest = save_dataset(tiny_dataset(), tmp_path)
    meta = json.loads(manifest.read_text())
    meta["version"] = 1
    manifest.write_text(json.dumps(meta))
    with pytest.raises(DatasetError, match="outfitrec gen"):
        load_dataset(manifest)


def test_truncated_regions_file_rejected(tmp_path):
    manifest = save_dataset(tiny_dataset(), tmp_path)
    regions = tmp_path / "regions.f32"
    regions.write_bytes(regions.read_bytes()[:-4])
    with pytest.raises(DatasetError, match="regions.f32"):
        load_dataset(manifest)


def test_signalling_nan_in_regions_rejected_without_warning(tmp_path):
    manifest = save_dataset(tiny_dataset(), tmp_path)
    regions = tmp_path / "regions.f32"
    regions.write_bytes(struct.pack("<I", 0x7F800001)
                        + regions.read_bytes()[4:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetError, match="NaN or Inf"):
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
    """words.f32 holds a row for 'a', which the manifest calls undescribed."""
    manifest = save_dataset(tiny_dataset(), tmp_path)
    meta = json.loads(manifest.read_text())
    for entry in meta["items"]:
        if entry["id"] == "a":
            entry["description"] = None
    manifest.write_text(json.dumps(meta))
    with pytest.raises(DatasetError, match="words.f32"):
        load_dataset(manifest)


def test_described_items_without_word_rows_rejected(tmp_path):
    """A manifest whose items have descriptions but zero word rows each
    fails at load, not later at the first attention over the words."""
    manifest = save_dataset(tiny_dataset(), tmp_path)
    meta = json.loads(manifest.read_text())
    meta["dims"]["num_words"] = 0
    manifest.write_text(json.dumps(meta))
    (tmp_path / "words.f32").write_bytes(b"")
    with pytest.raises(DatasetError, match="num_words"):
        load_dataset(manifest)


@pytest.mark.parametrize("drop", [
    lambda meta: meta.pop("dims"),
    lambda meta: meta["types"][0].pop("name"),
    lambda meta: meta["items"][0].pop("type"),
], ids=["dims", "type_name", "item_type"])
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
    lambda meta: meta.update(version=float(meta["version"])),
    lambda meta: meta.update(version=True),
], ids=["fractional_dims", "string_dims", "bool_type_id", "shared_type_id",
        "bool_fc_label", "float_fc_label", "bool_fitb_answer", "float_version",
        "bool_version"])
def test_manifest_integers_are_strict(tmp_path, edit):
    """Each edit used to load, coerced by int() or passed by `in (0, 1)`."""
    manifest = save_dataset(tiny_dataset(), tmp_path)
    meta = json.loads(manifest.read_text())
    edit(meta)
    manifest.write_text(json.dumps(meta))
    with pytest.raises(DatasetError):
        load_dataset(manifest)


def renumber_item_a(meta):
    """Item "a" becomes the number 7, in the item list and every reference."""
    meta["items"][0]["id"] = 7
    for entry in meta["outfits"] + meta["questions"]["fc"]:
        entry["items"] = [7 if i == "a" else i for i in entry["items"]]


def renumber_type_tops(meta):
    """Type "tops" becomes the number 0, in the type list and its items."""
    meta["types"][0]["name"] = 0
    meta["items"][0]["type"] = 0


@pytest.mark.parametrize("edit", [
    renumber_type_tops,
    renumber_item_a,
    lambda meta: meta["items"][1].update(type=["shoes"]),
    lambda meta: meta["items"][0].update(description=5),
    lambda meta: meta["outfits"][0].update(id=1),
    lambda meta: meta["outfits"][0].update(items=["a", ["b"]]),
    lambda meta: meta["questions"]["fc"][0].update(items=["a", 2]),
    lambda meta: meta["questions"]["fitb"].append(
        {"partial": [None], "candidates": ["b", "c", "b", "c"], "answer": 0}),
], ids=["type_name", "item_id", "item_type", "description", "outfit_id",
        "outfit_item", "fc_item", "fitb_item"])
def test_manifest_names_are_strings(tmp_path, edit):
    """The type-name, item-id, description and outfit-id edits used to
    load; a number as a type name then failed training with a TypeError
    where type names are ordered."""
    manifest = save_dataset(tiny_dataset(), tmp_path)
    meta = json.loads(manifest.read_text())
    edit(meta)
    manifest.write_text(json.dumps(meta))
    with pytest.raises(DatasetError, match="must be a JSON str"):
        load_dataset(manifest)


@pytest.mark.parametrize("edit, message", [
    (lambda meta: meta["items"].append(dict(meta["items"][0])),
     "duplicate item id 'a'"),
    (lambda meta: meta["outfits"].append(
        dict(meta["outfits"][0], split="valid")), "more than one split"),
    (lambda meta: meta["questions"]["fc"][0].update(label=2),
     "FC label must be 0 or 1"),
    (lambda meta: meta["questions"]["fitb"].append(
        {"partial": ["a"], "candidates": ["b", "c", "b", "c"], "answer": 4}),
     "FITB answer index out of range"),
], ids=["duplicate_item", "outfit_in_two_splits", "fc_label_2",
        "fitb_answer_4"])
def test_inconsistent_manifest_rejected(tmp_path, edit, message):
    manifest = save_dataset(tiny_dataset(), tmp_path)
    meta = json.loads(manifest.read_text())
    edit(meta)
    manifest.write_text(json.dumps(meta))
    with pytest.raises(DatasetError, match=message):
        load_dataset(manifest)


def dataset_content(ds: Dataset) -> dict[str, str]:
    """The SHA-256 of each part of a dataset's content: the float64 stores
    with their shapes, the items (id, type, description) in order, the
    outfits by split and the questions."""
    def sha256(part) -> str:
        if isinstance(part, np.ndarray):
            raw = (repr(part.shape).encode()
                   + np.ascontiguousarray(part, "<f8").tobytes())
        else:
            raw = json.dumps(part).encode()
        return hashlib.sha256(raw).hexdigest()
    return {
        "regions": sha256(ds.regions),
        "words": sha256(ds.words),
        "ids": sha256([[i, item.type.name, item.type.id, item.description]
                       for i, item in ds.items.items()]),
        "outfits": sha256({split: [[o.id, list(o.items)] for o in outfits]
                           for split, outfits in ds.outfits.items()}),
        "questions": sha256([
            [[list(q.items), q.label] for q in ds.fc_questions],
            [[list(q.partial), list(q.candidates), q.answer]
             for q in ds.fitb_questions]]),
    }


class TestManifestContract:
    """The manifest's layout and its item checks, pinned: a one-line and
    an indented manifest load alike, and each malformed item list raises
    the message an item-by-item walk raises."""

    def test_indented_and_one_line_manifests_load_equal(self, tmp_path):
        manifest = save_dataset(generate_synthetic(STORE_SPEC, seed=3),
                                tmp_path)
        meta = json.loads(manifest.read_text())
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
        one_line = tmp_path / "one_line.json"
        one_line.write_text(json.dumps(meta, sort_keys=True) + "\n")
        assert len(one_line.read_text().splitlines()) == 1
        assert indented.read_bytes() != one_line.read_bytes()
        want = dataset_content(load_dataset(manifest))
        assert dataset_content(load_dataset(indented)) == want
        assert dataset_content(load_dataset(one_line)) == want

    @staticmethod
    def subscript_error(entry) -> TypeError:
        try:
            entry["id"]
        except TypeError as exc:
            return exc
        raise AssertionError(f"{entry!r} is subscriptable by a str")

    @pytest.mark.parametrize("edit, message", [
        (lambda items: items.append(dict(items[0])), "duplicate item id 'a'"),
        (lambda items: items[1].update(id=7),
         "item id must be a JSON str, got 7"),
        (lambda items: items[1].update(id=True),
         "item id must be a JSON str, got True"),
        (lambda items: items[1].update(type="hats"),
         "item 'b' has unknown type 'hats'"),
        (lambda items: items[1].update(type=["shoes"]),
         "item 'b' type must be a JSON str, got ['shoes']"),
        (lambda items: items[1].update(type=1),
         "item 'b' type must be a JSON str, got 1"),
        (lambda items: items[1].update(description=5),
         "item 'b' description must be a JSON str, got 5"),
        (lambda items: items[1].update(description=False),
         "item 'b' description must be a JSON str, got False"),
        # the first faulty item in list order raises, whatever its fault
        (lambda items: (items[1].update(type="hats"),
                        items[2].update(id=7)),
         "item 'b' has unknown type 'hats'"),
        (lambda items: (items[1].update(description=5),
                        items.append(dict(items[0]))),
         "item 'b' description must be a JSON str, got 5"),
        (lambda items: items[1].update(id=7, type=5),
         "item id must be a JSON str, got 7"),
    ], ids=["duplicate_id", "int_id", "bool_id", "unknown_type",
            "list_type", "int_type", "int_description", "bool_description",
            "first_of_two_faults", "fault_before_duplicate",
            "id_before_type"])
    def test_malformed_item_raises_its_message(self, tmp_path, edit,
                                               message):
        manifest = save_dataset(tiny_dataset(), tmp_path)
        meta = json.loads(manifest.read_text())
        edit(meta["items"])
        manifest.write_text(json.dumps(meta))
        with pytest.raises(DatasetError) as info:
            load_dataset(manifest)
        assert str(info.value) == message

    @pytest.mark.parametrize("entry", [["b", "shoes"], "b", None, 5],
                             ids=["list", "str", "null", "int"])
    def test_item_that_is_not_an_object_raises_its_message(self, tmp_path,
                                                           entry):
        manifest = save_dataset(tiny_dataset(), tmp_path)
        meta = json.loads(manifest.read_text())
        meta["items"][1] = entry
        manifest.write_text(json.dumps(meta))
        with pytest.raises(DatasetError) as info:
            load_dataset(manifest)
        assert str(info.value) == (f"{manifest}: malformed manifest: "
                                   f"{self.subscript_error(entry)!r}")

    @pytest.mark.parametrize("key", ["id", "type"])
    def test_item_without_a_key_raises_its_message(self, tmp_path, key):
        manifest = save_dataset(tiny_dataset(), tmp_path)
        meta = json.loads(manifest.read_text())
        del meta["items"][1][key]
        meta["items"][2] = None   # a later fault does not raise first
        manifest.write_text(json.dumps(meta))
        with pytest.raises(DatasetError) as info:
            load_dataset(manifest)
        assert str(info.value) == (f"{manifest}: malformed manifest: "
                                   f"{KeyError(key)!r}")

    def test_item_without_a_description_is_undescribed(self, tmp_path):
        manifest = save_dataset(tiny_dataset(), tmp_path)
        want = dataset_content(load_dataset(manifest))
        meta = json.loads(manifest.read_text())
        assert meta["items"][2] == {"id": "c", "type": "shoes",
                                    "description": None}
        del meta["items"][2]["description"]
        manifest.write_text(json.dumps(meta))
        assert dataset_content(load_dataset(manifest)) == want


@pytest.mark.parametrize("name", ["absent.json", "subdir"])
def test_unreadable_manifest_raises_dataset_error(tmp_path, name):
    (tmp_path / "subdir").mkdir()
    with pytest.raises(DatasetError, match="cannot read manifest"):
        load_dataset(tmp_path / name)


def test_non_object_manifest_raises_dataset_error(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("[]")
    with pytest.raises(DatasetError):
        load_dataset(manifest)


def test_missing_words_file_rejected(tmp_path):
    manifest = save_dataset(tiny_dataset(), tmp_path)
    (tmp_path / "words.f32").unlink()
    with pytest.raises(DatasetError, match="words.f32"):
        load_dataset(manifest)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A loadable manifest (with one FITB question, so every section has an
    entry) and the directory that holds its feature files."""
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
            # a copy: a later edit must not mutate FUZZ_VALUES' own lists
            parent[key] = copy.deepcopy(data.draw(FUZZ_VALUES, label="value"))
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
        ("undescribed_frac", 1.0), ("undescribed_frac", 1.5),
        ("noise_scale", -1.0), ("valid_outfits", -1)])
    def test_out_of_range_fields_fail_validation(self, field, value):
        import dataclasses
        # validate() directly: generating a one-item-outfit spec would hang
        spec = dataclasses.replace(self.SPEC, **{field: value})
        with pytest.raises(SyntheticSpecError, match=field):
            spec.validate()

    @pytest.mark.parametrize("changes, message", [
        ({"num_words": 1}, "signal_rows 2 > num_words 1"),
        ({"num_types": 2}, "outfit_size exceeds number of types"),
        ({"train_outfits": 0}, "train_outfits must be positive"),
        ({"word_dim": 0}, "word_dim must be positive"),
    ], ids=["signal_rows_past_words", "outfit_size_past_types",
            "zero_train_outfits", "zero_word_dim"])
    def test_inconsistent_counts_fail_validation(self, changes, message):
        import dataclasses
        spec = dataclasses.replace(self.SPEC, **changes)
        with pytest.raises(SyntheticSpecError, match=message):
            spec.validate()

    @pytest.mark.parametrize("field, value", [
        ("num_types", 8.5), ("train_outfits", True),
        ("signal_amplitude", "x"), ("noise_scale", float("nan"))])
    def test_mistyped_fields_fail_validation(self, field, value):
        """Each used to raise a raw TypeError or generate without error."""
        import dataclasses
        spec = dataclasses.replace(self.SPEC, **{field: value})
        with pytest.raises(SyntheticSpecError, match=field):
            generate_synthetic(spec, seed=0)

    def test_single_test_outfit_fails_validation(self):
        spec = SyntheticSpec(train_outfits=4, valid_outfits=0,
                             fc_questions=1, fitb_questions=1)
        with pytest.raises(SyntheticSpecError, match="2 test outfits"):
            spec.validate()

    def count_fc_negative_draws(self, monkeypatch, per_negative):
        """Generate with `FC_NEGATIVE_DRAWS` patched to `per_negative`;
        returns (dataset or the SyntheticSpecError, FC-negative draws).
        A draw is a `choice` of `outfit_size` test items."""
        monkeypatch.setattr(data, "FC_NEGATIVE_DRAWS", per_negative)
        spec, draws = self.SPEC, []
        test_items = spec.test_outfits * spec.outfit_size
        real = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self.rng = real(seed)

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def choice(self, a, *args, **kwargs):
                if a == test_items and kwargs.get("size") == spec.outfit_size:
                    draws.append(a)
                return self.rng.choice(a, *args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", Counting)
        try:
            result = generate_synthetic(spec, seed=0)
        except SyntheticSpecError as exc:
            result = exc
        monkeypatch.setattr(np.random, "default_rng", real)
        return result, len(draws)

    def test_fc_negative_search_is_bounded(self, monkeypatch):
        """The 20 negatives of seed 0 take 51 draws together. The budget
        is `FC_NEGATIVE_DRAWS` per negative for all of them at once: at 2
        per negative generation stops after exactly 40 draws and names the
        fields to change, and at 3 per negative it draws what an
        unbounded search draws, although some negative takes more than 3."""
        unbounded, total = self.count_fc_negative_draws(monkeypatch, 10**6)
        assert total == 51
        error, draws = self.count_fc_negative_draws(monkeypatch, 2)
        assert isinstance(error, SyntheticSpecError)
        assert draws == 40
        for name in ("num_types=5", "outfit_size=3", "20 test outfits",
                     "40 draws"):
            assert name in str(error)
        bounded, draws = self.count_fc_negative_draws(monkeypatch, 3)
        assert draws == 51
        assert bounded.fc_questions == unbounded.fc_questions
        assert np.array_equal(bounded.regions, unbounded.regions)

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
        spec = dataclasses.replace(self.SPEC, undescribed_frac=0.5)
        ds = generate_synthetic(spec, seed=4)
        undescribed = [i for i in ds.items.values() if not i.described]
        assert undescribed, "expected some undescribed items"
        for item in undescribed:
            assert item.words.shape[0] == 0

    def test_arrays_beyond_memory_are_a_spec_error(self):
        """A size numpy refuses at once, beyond any address space, so no
        memory is touched."""
        spec = dataclasses.replace(self.SPEC, num_regions=10**17)
        with pytest.raises(SyntheticSpecError,
                           match="100000000000000000 x 6 regions .* do not "
                                 "fit in memory"):
            generate_synthetic(spec, seed=0)

    @pytest.mark.parametrize("field, value", [
        ("num_regions", 10**18), ("train_outfits", 10**15)],
        ids=["regions_1e18", "train_outfits_1e15"])
    def test_stores_beyond_memory_fail_before_any_draw(self, monkeypatch,
                                                       field, value):
        """The stores are allocated before the first draw, so a size numpy
        refuses fails at once and touches no memory. At 10**18 regions the
        byte count passes the intp limit and numpy raises ValueError;
        10**15 train outfits used to be generated item after item."""
        spec = dataclasses.replace(self.SPEC, **{field: value})

        class NoDraws:
            def __init__(self, seed):
                pass

            def __getattr__(self, name):
                raise AssertionError(f"drew {name} before allocating")

        monkeypatch.setattr(np.random, "default_rng", NoDraws)
        with pytest.raises(SyntheticSpecError, match=(
                f"{spec.num_regions} x 6 regions .* do not fit in memory")):
            generate_synthetic(spec, seed=0)


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

    def test_questions_of_mixed_sizes(self):
        ds = tiny_dataset()
        fc = [FCQuestion(items=("a", "b", "a"), label=1),
              FCQuestion(items=("c",), label=0),
              FCQuestion(items=(), label=0),
              FCQuestion(items=("b", "a"), label=1)]
        fitb = [FITBQuestion(partial=(), candidates=("a", "b", "a", "b"),
                             answer=0),
                FITBQuestion(partial=("c", "a"), candidates=("b",) * 4,
                             answer=0)]
        kept_fc, kept_fitb, fc_disc, fitb_disc = filter_questions(fc, fitb, ds)
        assert kept_fc == [fc[0], fc[2], fc[3]] and kept_fitb == fitb[:1]
        assert (fc_disc, fitb_disc) == (1, 1)

    def test_unknown_item_names_it(self):
        fc = [FCQuestion(items=("a", "nope"), label=1)]
        with pytest.raises(DomainError, match="'nope'"):
            filter_questions(fc, [], tiny_dataset())

    def test_all_described_passes_through_unchanged(self):
        ds = tiny_dataset()
        fc = [FCQuestion(items=("a", "b"), label=1)]
        kept_fc, kept_fitb, fc_disc, fitb_disc = filter_questions(fc, [], ds)
        assert kept_fc == fc and kept_fitb == []
        assert fc_disc == fitb_disc == 0
