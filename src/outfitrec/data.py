"""Data model for typed items, outfits and evaluation questions.

On disk a dataset is a directory of three files: `manifest.json` (version
2: dims, types, items with their type and description, outfits, questions),
`regions.f32`, every item's (num_regions, region_dim) matrix, and
`words.f32`, the (num_words, word_dim) matrix of every described item, both
in manifest order. Feature files are little-endian float32, row-major, 4
bytes per value and no header. A `Dataset` keeps the same two arrays,
widened to float64, as its feature store, maps each item to its row and
word row, and gives each `Item` views of its rows; the save/load
round-trip is bit-exact at the float32 payload level.

Also provides a deterministic synthetic generator that plants a
style-derived signal into a small subset of each item's region and word
rows, so that attention over rows can recover what mean pooling dilutes.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, field, fields
from functools import cached_property
from itertools import chain, compress
from pathlib import Path

import numpy as np

from .errors import (DatasetError, DimensionError, DomainError,
                     SyntheticSpecError, check_field_types)

MANIFEST_FORMAT = "outfitrec-dataset"
MANIFEST_VERSION = 2

SPLITS = ("train", "valid", "test")
FITB_CANDIDATES = 4          # candidates of every FITB question


@dataclass(frozen=True)
class ItemType:
    name: str
    id: int


@dataclass
class Item:
    id: str
    type: ItemType
    regions: np.ndarray          # (N, d_i) float64
    words: np.ndarray            # (M, d_t) float64; M == 0 iff no description
    description: str | None = None

    @property
    def described(self) -> bool:
        return self.description is not None


@dataclass
class Outfit:
    id: str
    items: tuple[str, ...]       # >= 2 distinct item ids


@dataclass
class FCQuestion:
    items: tuple[str, ...]
    label: int                   # 1 human-composed, 0 random


@dataclass
class FITBQuestion:
    partial: tuple[str, ...]     # outfit remainder
    candidates: tuple[str, ...]  # exactly FITB_CANDIDATES
    answer: int                  # index of ground truth in candidates


@dataclass
class Dims:
    num_regions: int
    num_words: int
    region_dim: int
    word_dim: int


@dataclass(frozen=True)
class TrainPairs:
    """The described items of a dataset's train outfits, as store rows.

    `pairs` (P, 2) holds every ordered pair (a, b) of distinct described
    items of one train outfit: outfit by outfit, a in member order, then b
    in member order. `pool` holds each described train item once, grouped
    by `type_rank` and in first-seen order within a type: type rank t's
    items are `pool[start[t]:start[t] + size[t]]`. `codes` holds
    `a * base + c` for every pair and for every pool item with itself,
    where `base` is the number of store rows.
    """
    pairs: np.ndarray
    pool: np.ndarray
    start: np.ndarray
    size: np.ndarray
    base: int
    codes: frozenset[int]

    def shares(self, a: int, c: int) -> bool:
        """Whether the store rows `a` and `c` are one described train item
        or share a train outfit."""
        return a * self.base + c in self.codes

    def shares_outfit(self, a: np.ndarray, c: np.ndarray) -> np.ndarray:
        """`shares` of each pair of elements of two 1-D arrays."""
        code = (a * self.base + c).tolist()
        return np.fromiter(map(self.codes.__contains__, code), bool,
                           len(code))


@dataclass(eq=False)
class Dataset:
    """Items, outfits and questions over one float64 feature store.

    `entries` maps each item id, in manifest order, to its type and
    description (None when undescribed). `regions` (I, N, d_i) holds every
    item's rows in that order and `words` (I_d, M, d_t) the described
    items' rows; both are kept as passed, and `dims` are their shapes.
    `row[id]` is an item's row of `regions` and `ids[row]` its id,
    `word_row[row]` its row of `words` (-1 when undescribed),
    `type_rank[row]` its type's rank in the sorted `type_names`, and
    `items[id]` views its rows (an undescribed item's `words` is empty,
    (0, d_t)).
    """
    entries: InitVar[dict[str, tuple[ItemType, str | None]]]
    regions: np.ndarray
    words: np.ndarray
    types: list[ItemType]
    outfits: dict[str, list[Outfit]]           # keyed by split
    fc_questions: list[FCQuestion] = field(default_factory=list)
    fitb_questions: list[FITBQuestion] = field(default_factory=list)

    def __post_init__(self, entries) -> None:
        (_, n, d_i), (_, m, d_t) = self.regions.shape, self.words.shape
        self.dims = Dims(num_regions=n, num_words=m, region_dim=d_i, word_dim=d_t)
        described = np.array([d is not None for _, d in entries.values()], bool)
        if len(self.regions) != len(entries) or len(self.words) != described.sum():
            raise DimensionError(f"feature stores of {len(self.regions)} and "
                                 f"{len(self.words)} rows for {len(entries)} "
                                 f"items, {described.sum()} described")
        self.ids = list(entries)
        self.row = dict(zip(self.ids, range(len(self.ids))))
        self.word_row = np.where(described, np.cumsum(described) - 1, -1)
        types = [t.name for t, _ in entries.values()]
        self.type_names = sorted(set(types))
        rank = dict(zip(self.type_names, range(len(self.type_names))))
        self.type_rank = np.fromiter(map(rank.__getitem__, types),
                                     dtype=np.intp, count=len(types))
        self._entries = entries

    @cached_property
    def items(self) -> dict[str, Item]:
        """Each item by id, in manifest order, built on first access."""
        no_words = np.zeros((0, self.dims.word_dim))
        return {
            item_id: Item(id=item_id, type=item_type, regions=rows,
                          words=self.words[w] if w >= 0 else no_words,
                          description=description)
            for (item_id, (item_type, description)), rows, w
            in zip(self._entries.items(), self.regions,
                   self.word_row.tolist())}

    def rows(self, ids) -> np.ndarray:
        """Each id's row of the store; DomainError names an id the dataset
        does not hold."""
        try:
            return np.fromiter(map(self.row.__getitem__, ids), dtype=np.intp,
                               count=len(ids))
        except KeyError as e:
            raise DomainError(
                f"item {e.args[0]!r} is not in the dataset") from None

    def described_rows(self, ids) -> np.ndarray:
        """The store rows of the described items among `ids`, in order."""
        rows = self.rows(ids)
        return rows[self.word_row[rows] >= 0]

    def features(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """The (len(rows), N, d_i) regions and (len(rows), M, d_t) words of
        the store rows `rows` of described items, gathered by one index
        each; an undescribed item raises DomainError."""
        word_rows = self.word_row[rows]
        if (word_rows < 0).any():
            bare = self.ids[rows[int(np.argmin(word_rows))]]
            raise DomainError(f"item {bare!r} has no description, so no "
                              "word rows")
        return self.regions[rows], self.words[word_rows]

    def type_pair_groups(self, a_rows, b_rows) -> dict[tuple[str, str],
                                                       np.ndarray]:
        """Each canonical type pair of the item pairs (a_rows[k], b_rows[k])
        of store rows, in first-seen order, mapped to the positions k of
        its pairs in ascending order. A pair's type pair is the min and
        max of its two `type_rank`s."""
        a, b = self.type_rank[a_rows], self.type_rank[b_rows]
        n = len(self.type_names)
        keys, group = first_seen(np.minimum(a, b) * n + np.maximum(a, b))
        positions = np.split(np.argsort(group, kind="stable"),
                             np.cumsum(np.bincount(group))[:-1])
        return {(self.type_names[k // n], self.type_names[k % n]): at
                for k, at in zip(keys.tolist(), positions)}

    def trained_type_pairs(self) -> set[tuple[str, str]]:
        """Unordered type pairs co-occurring among described train items."""
        pairs = self.train_pairs.pairs
        return set(self.type_pair_groups(pairs[:, 0], pairs[:, 1]))

    @cached_property
    def train_pairs(self) -> TrainPairs:
        """The described train items' pairs, pools and co-occurrence codes,
        built on first access from the train outfits (which must not
        change afterwards)."""
        outfits = self.outfits.get("train", [])
        sizes = [len(o.items) for o in outfits]
        rows = self.rows(list(chain.from_iterable(o.items for o in outfits)))
        outfit = np.repeat(np.arange(len(outfits)), sizes)
        described = self.word_row[rows] >= 0
        rows, outfit = rows[described], outfit[described]
        # an outfit's members are contiguous: a member of an outfit with m
        # members, the first at position f, pairs with positions f..f+m-1
        counts = np.bincount(outfit, minlength=len(outfits))
        m, f = counts[outfit], (np.cumsum(counts) - counts)[outfit]
        a = np.repeat(np.arange(len(rows)), m)
        b = (np.repeat(f, m) + np.arange(len(a))
             - np.repeat(np.cumsum(m) - m, m))
        pairs = np.stack([rows[a], rows[b]], axis=1)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        members, _ = first_seen(rows)
        rank = self.type_rank[members]
        size = np.bincount(rank, minlength=len(self.type_names))
        base = len(self.ids)
        codes = np.concatenate([pairs[:, 0] * base + pairs[:, 1],
                                members * base + members])
        return TrainPairs(
            pairs=pairs, pool=members[np.argsort(rank, kind="stable")],
            start=np.cumsum(size) - size, size=size, base=base,
            codes=frozenset(codes.tolist()))


def first_seen(values) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the array `values` in first-seen (row-major)
    order, and each value's index into them, in the shape of `values`."""
    values = np.asarray(values)
    distinct, first, inverse = np.unique(values.ravel(), return_index=True,
                                         return_inverse=True)
    seen = np.argsort(first)
    place = np.empty_like(seen)
    place[seen] = np.arange(len(seen))
    return distinct[seen], place[inverse].reshape(values.shape)


def canonical_pair(u: str, v: str) -> tuple[str, str]:
    """Canonical unordered key for a type pair."""
    return (u, v) if u <= v else (v, u)


# -- on-disk format ---------------------------------------------------------


def read_f32(raw: bytes, shape: tuple[int, ...], what: str) -> np.ndarray:
    """`raw` as little-endian float32 values of `shape`, widened to float64.

    A byte count other than 4 per value, or a NaN or Inf value, raises
    DatasetError naming `what`.
    """
    expected = 4 * math.prod(shape)
    if len(raw) != expected:
        raise DatasetError(f"{what} has {len(raw)} bytes, expected {expected} "
                           f"(4 per value of shape {shape})")
    # an all-ones f32 exponent is NaN or Inf; testing the bits keeps a
    # signaling NaN from warning as it is widened
    bits = np.frombuffer(raw, dtype="<u4")
    if np.any((bits & 0x7F800000) == 0x7F800000):
        raise DatasetError(f"{what} holds NaN or Inf")
    return bits.view("<f4").astype(np.float64).reshape(shape)


def save_dataset(dataset: Dataset, out_dir: str | Path) -> Path:
    """Write manifest.json, regions.f32 and words.f32; returns manifest path.

    The manifest is one line of JSON with sorted keys: without `indent`,
    `json.dumps` runs its C encoder. `load_dataset` reads any layout, the
    indented manifests of earlier versions included, and `python -m
    json.tool manifest.json` prints it indented."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "regions.f32").write_bytes(dataset.regions.astype("<f4").tobytes())
    (out / "words.f32").write_bytes(dataset.words.astype("<f4").tobytes())
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "dims": vars(dataset.dims),
        "types": [{"id": t.id, "name": t.name} for t in dataset.types],
        "items": [{"id": item_id, "type": item_type.name,
                   "description": description}
                  for item_id, (item_type, description)
                  in dataset._entries.items()],
        "outfits": [
            {"id": o.id, "split": split, "items": list(o.items)}
            for split in SPLITS for o in dataset.outfits.get(split, [])
        ],
        "questions": {
            "fc": [{"items": list(q.items), "label": q.label}
                   for q in dataset.fc_questions],
            "fitb": [{"partial": list(q.partial),
                      "candidates": list(q.candidates),
                      "answer": q.answer}
                     for q in dataset.fitb_questions],
        },
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True) + "\n")
    return path


def _read_features(path: Path, shape: tuple[int, ...]) -> np.ndarray:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read feature file {path}: {exc}") from exc
    return read_f32(raw, shape, f"feature file {path}")


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load and fully validate a dataset from its manifest; anything
    malformed, a missing key or feature file included, raises DatasetError."""
    path = Path(manifest_path)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise DatasetError(f"{path}: not an {MANIFEST_FORMAT} manifest")
    if _typed(manifest.get("version"), int, "manifest version") != MANIFEST_VERSION:
        raise DatasetError(f"{path}: unsupported version {manifest['version']}; "
                           "regenerate the dataset with `outfitrec gen`")
    try:
        return _parse_manifest(manifest, path)
    except DatasetError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"{path}: malformed manifest: {exc!r}") from exc


def _typed(value, kind: type, what: str):
    """`value` if it is a JSON `kind`, int or str (a bool is neither), else
    DatasetError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise DatasetError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _item_entries(items, by_name: dict[str, ItemType]
                  ) -> dict[str, tuple[ItemType, str | None]] | None:
    """The manifest's item list as `Dataset` entries, checked one field at
    a time over all items: ids are distinct `str`s, types are names in
    `by_name`, and descriptions are `str` or null (or absent). None when
    the check fails or an item is not an object with those keys; the
    caller then walks the items one by one to raise the first fault."""
    try:
        ids = [meta["id"] for meta in items]
        type_names = [meta["type"] for meta in items]
        descriptions = [meta.get("description") for meta in items]
        if not (set(map(type, ids)) <= {str} and len(set(ids)) == len(ids)
                and set(type_names).issubset(by_name)
                and set(map(type, descriptions)) <= {str, type(None)}):
            return None
    except (KeyError, TypeError):
        return None
    return dict(zip(ids, zip(map(by_name.__getitem__, type_names),
                             descriptions)))


def _parse_manifest(manifest: dict, path: Path) -> Dataset:
    """The `Dataset` a manifest describes. The item list is checked one
    field at a time over all items (`_item_entries`) and each section's
    item references by one set difference; only a list that fails is
    walked entry by entry, so that its first fault raises its own
    DatasetError."""
    base = path.parent
    d = manifest["dims"]
    dims = Dims(**{f.name: _typed(d[f.name], int, f"dims {f.name!r}")
                   for f in fields(Dims)})
    if min(dims.num_regions, dims.region_dim, dims.word_dim) < 1 or dims.num_words < 0:
        raise DatasetError(f"{path}: invalid dims {d}")

    types: list[ItemType] = []
    for t in manifest["types"]:
        name = _typed(t["name"], str, "type name")
        type_id = _typed(t["id"], int, f"type {name!r} id")
        if any(name == u.name or type_id == u.id for u in types):
            raise DatasetError(
                f"type {name!r} (id {type_id}) repeats a name or an id")
        types.append(ItemType(name=name, id=type_id))
    by_name = {t.name: t for t in types}

    items = manifest["items"]
    entries = _item_entries(items, by_name)
    if entries is None:   # some item is malformed: raise the first fault
        entries = {}
        for meta in items:
            item_id = _typed(meta["id"], str, "item id")
            if item_id in entries:
                raise DatasetError(f"duplicate item id {item_id!r}")
            type_name = _typed(meta["type"], str, f"item {item_id!r} type")
            if type_name not in by_name:
                raise DatasetError(
                    f"item {item_id!r} has unknown type {type_name!r}")
            description = meta.get("description")
            if description is not None:
                _typed(description, str, f"item {item_id!r} description")
            entries[item_id] = (by_name[type_name], description)
    regions = _read_features(base / "regions.f32", (
        len(entries), dims.num_regions, dims.region_dim))
    described = sum(d is not None for _, d in entries.values())
    if described and not dims.num_words:
        raise DatasetError(f"{path}: dims 'num_words' is 0, but {described} "
                           f"items are described")
    words = _read_features(base / "words.f32", (
        described, dims.num_words, dims.word_dim))

    def needs_walk(sections) -> bool:
        """Whether a section's reference lists must be walked item by item
        to raise its first error: one set difference over all of them
        finds a missing item (a reference that is not a str equals no id,
        so this checks the types too), or the section is malformed."""
        try:
            return bool(set(chain.from_iterable(sections)).difference(entries))
        except (KeyError, TypeError):
            return True

    def check_ids(ids, where):
        for i in ids:
            if _typed(i, str, f"{where} item reference") not in entries:
                raise DatasetError(f"{where} references missing item {i!r}")

    outfits: dict[str, list[Outfit]] = {s: [] for s in SPLITS}
    seen_outfits: set[str] = set()
    walk_outfits = needs_walk(meta["items"] for meta in manifest["outfits"])
    for meta in manifest["outfits"]:
        oid, split = _typed(meta["id"], str, "outfit id"), meta["split"]
        if split not in SPLITS:
            raise DatasetError(f"outfit {oid!r} has unknown split {split!r}")
        if oid in seen_outfits:
            raise DatasetError(f"outfit {oid!r} appears in more than one split")
        seen_outfits.add(oid)
        members = tuple(meta["items"])
        if walk_outfits:
            check_ids(members, f"outfit {oid!r}")
        if len(members) < 2 or len(set(members)) != len(members):
            raise DatasetError(f"outfit {oid!r} needs >= 2 distinct items")
        outfits[split].append(Outfit(id=oid, items=members))

    fc = []
    walk_fc = needs_walk(q["items"] for q in manifest["questions"]["fc"])
    for q in manifest["questions"]["fc"]:
        if walk_fc:
            check_ids(q["items"], "FC question")
        if _typed(q["label"], int, "FC label") not in (0, 1):
            raise DatasetError(f"FC label must be 0 or 1, got {q['label']!r}")
        fc.append(FCQuestion(items=tuple(q["items"]), label=q["label"]))
    fitb = []
    walk_fitb = needs_walk(ids for q in manifest["questions"]["fitb"]
                           for ids in (q["partial"], q["candidates"]))
    for q in manifest["questions"]["fitb"]:
        if walk_fitb:
            check_ids(list(q["partial"]) + list(q["candidates"]),
                      "FITB question")
        if len(q["candidates"]) != FITB_CANDIDATES:
            raise DatasetError("FITB question must have exactly "
                               f"{FITB_CANDIDATES} candidates")
        if not 0 <= _typed(q["answer"], int, "FITB answer") < FITB_CANDIDATES:
            raise DatasetError(f"FITB answer index out of range: {q['answer']!r}")
        fitb.append(FITBQuestion(partial=tuple(q["partial"]),
                                 candidates=tuple(q["candidates"]),
                                 answer=q["answer"]))

    return Dataset(entries, regions, words, types=types, outfits=outfits,
                   fc_questions=fc, fitb_questions=fitb)


# -- synthetic generation ---------------------------------------------------

# rejection-sampling draws per FC negative, one budget for all negatives
FC_NEGATIVE_DRAWS = 100


@dataclass
class SyntheticSpec:
    """Counts, dims and planted-signal parameters for generation."""
    num_types: int = 8
    num_styles: int = 6
    train_outfits: int = 500
    valid_outfits: int = 100
    fc_questions: int = 2000
    fitb_questions: int = 1000
    outfit_size: int = 4
    num_regions: int = 8
    num_words: int = 6
    region_dim: int = 16
    word_dim: int = 16
    signal_rows: int = 2
    signal_amplitude: float = 3.0
    noise_scale: float = 1.0
    undescribed_frac: float = 0.0

    def validate(self) -> None:
        check_field_types(self, SyntheticSpecError)
        if self.outfit_size < 2:   # an FC negative mixes two styles
            raise SyntheticSpecError("outfit_size must be at least 2")
        if not 0.0 <= self.undescribed_frac < 1.0:
            raise SyntheticSpecError("undescribed_frac must be in [0, 1)")
        if self.num_styles < 2:
            raise SyntheticSpecError("need at least 2 style clusters")
        if self.noise_scale < 0.0:
            raise SyntheticSpecError(
                f"noise_scale must be >= 0, got {self.noise_scale}")
        if self.valid_outfits < 0:
            raise SyntheticSpecError(
                f"valid_outfits must be >= 0, got {self.valid_outfits}")
        if self.signal_rows > self.num_regions:
            raise SyntheticSpecError(
                f"signal_rows {self.signal_rows} > num_regions {self.num_regions}")
        if self.signal_rows > self.num_words:
            raise SyntheticSpecError(
                f"signal_rows {self.signal_rows} > num_words {self.num_words}")
        if self.outfit_size > self.num_types:
            raise SyntheticSpecError("outfit_size exceeds number of types")
        for name in ("num_types", "train_outfits", "fc_questions",
                     "fitb_questions", "outfit_size", "num_regions",
                     "num_words", "region_dim", "word_dim", "signal_rows"):
            if getattr(self, name) < 1:
                raise SyntheticSpecError(f"{name} must be positive")
        if self.test_outfits < 2:   # an FC negative mixes two test outfits
            raise SyntheticSpecError(
                f"FC negatives need at least 2 test outfits, but fc_questions="
                f"{self.fc_questions} and fitb_questions={self.fitb_questions} "
                f"give {self.test_outfits}")

    @property
    def test_outfits(self) -> int:
        """Test outfits generated: one per FC positive or FITB question."""
        return max(self.fc_questions // 2, self.fitb_questions, 1)


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Deterministically generate a planted-signal dataset with questions.

    Every outfit carries one latent style; each member item embeds the
    style's signal pattern into exactly `signal_rows` of its region rows
    and word rows, identically across the outfit's items. FC negatives mix
    items across styles; FITB distractors share the blank's type but come
    from a different style. The feature stores are allocated for all
    `outfit_size` items of every outfit before the first draw, and each
    item's draws are written into its rows.

    SyntheticSpecError: the spec is invalid, or its arrays do not fit in
    memory (raised before any draw).
    """
    spec.validate()
    try:
        return _generate(spec, np.random.default_rng(seed))
    except MemoryError as exc:
        raise SyntheticSpecError(
            f"items of {spec.num_regions} x {spec.region_dim} regions and "
            f"{spec.num_words} x {spec.word_dim} words do not fit in "
            f"memory: {exc}") from exc


def _generate(spec: SyntheticSpec, rng: np.random.Generator) -> Dataset:
    """`generate_synthetic` of a valid spec."""
    num_items = spec.outfit_size * (spec.train_outfits + spec.valid_outfits
                                    + spec.test_outfits)
    try:
        regions = np.empty((num_items, spec.num_regions, spec.region_dim))
        words = np.empty((num_items, spec.num_words, spec.word_dim))
    except ValueError as exc:   # numpy's refusal of a size past intp
        raise MemoryError(exc) from exc
    types = [ItemType(name=f"type{i:02d}", id=i) for i in range(spec.num_types)]
    img_patterns = rng.normal(size=(spec.num_styles, spec.region_dim))
    img_patterns /= np.linalg.norm(img_patterns, axis=1, keepdims=True)
    txt_patterns = rng.normal(size=(spec.num_styles, spec.word_dim))
    txt_patterns /= np.linalg.norm(txt_patterns, axis=1, keepdims=True)
    img_signal = spec.signal_amplitude * img_patterns   # planted row per style
    txt_signal = spec.signal_amplitude * txt_patterns

    entries: dict[str, tuple[ItemType, str | None]] = {}
    item_style: dict[str, int] = {}
    described = 0

    def make_item(type_idx: int, style: int) -> str:
        nonlocal described
        row = len(entries)
        item_id = f"itm{row:06d}"
        regions[row] = rng.normal(scale=spec.noise_scale,
                                  size=(spec.num_regions, spec.region_dim))
        rows = rng.choice(spec.num_regions, size=spec.signal_rows, replace=False)
        regions[row, rows] = img_signal[style]
        description = None
        if rng.random() >= spec.undescribed_frac:
            words[described] = rng.normal(scale=spec.noise_scale,
                                          size=(spec.num_words, spec.word_dim))
            wrows = rng.choice(spec.num_words, size=spec.signal_rows, replace=False)
            words[described, wrows] = txt_signal[style]
            described += 1
            description = f"style {style} {types[type_idx].name} item"
        entries[item_id] = (types[type_idx], description)
        item_style[item_id] = style
        return item_id

    def make_outfit(oid: str, style: int) -> Outfit:
        type_ids = rng.choice(spec.num_types, size=spec.outfit_size, replace=False)
        members = tuple(make_item(t, style) for t in type_ids.tolist())
        return Outfit(id=oid, items=members)

    outfits: dict[str, list[Outfit]] = {s: [] for s in SPLITS}
    for i in range(spec.train_outfits):
        outfits["train"].append(make_outfit(f"train{i:05d}", i % spec.num_styles))
    for i in range(spec.valid_outfits):
        outfits["valid"].append(make_outfit(f"valid{i:05d}", i % spec.num_styles))

    n_pos = spec.fc_questions // 2
    for i in range(spec.test_outfits):
        outfits["test"].append(make_outfit(f"test{i:05d}", i % spec.num_styles))
    test_outfits = outfits["test"]

    # items available as negatives / distractors, indexed by (type, style)
    test_pool: dict[tuple[int, int], list[str]] = {}
    for o in test_outfits:
        for i in o.items:
            key = (entries[i][0].id, item_style[i])
            test_pool.setdefault(key, []).append(i)
    test_item_ids = [i for o in test_outfits for i in o.items]
    test_types = [entries[i][0].id for i in test_item_ids]
    test_styles = [item_style[i] for i in test_item_ids]
    # each (type, style)'s FITB distractors: its type's items of other styles
    distractors = {(t_id, style): [x for (ty, st), pool in test_pool.items()
                                   if ty == t_id and st != style for x in pool]
                   for t_id, style in test_pool}

    fc: list[FCQuestion] = []
    for i in range(n_pos):
        fc.append(FCQuestion(items=test_outfits[i].items, label=1))
    n_neg = spec.fc_questions - n_pos
    draws = iter(range(FC_NEGATIVE_DRAWS * n_neg))   # shared by all negatives
    for _ in range(n_neg):
        # random cross-style combination with distinct types
        for _ in draws:
            picks = rng.choice(len(test_item_ids), size=spec.outfit_size,
                               replace=False).tolist()
            if (len({test_types[p] for p in picks}) == spec.outfit_size
                    and len({test_styles[p] for p in picks}) >= 2):
                break
        else:
            raise SyntheticSpecError(
                f"{n_neg} cross-style FC negatives of outfit_size={spec.outfit_size} "
                f"distinct types of num_types={spec.num_types}, from "
                f"{spec.test_outfits} test outfits, need more than "
                f"{FC_NEGATIVE_DRAWS * n_neg} draws; raise num_types or the test "
                "outfits, or lower outfit_size")
        fc.append(FCQuestion(items=tuple(test_item_ids[p] for p in picks),
                             label=0))

    fitb: list[FITBQuestion] = []
    for i in range(spec.fitb_questions):
        outfit = test_outfits[i % len(test_outfits)]
        blank = int(rng.integers(len(outfit.items)))
        truth = outfit.items[blank]
        partial = tuple(x for j, x in enumerate(outfit.items) if j != blank)
        eligible = distractors[entries[truth][0].id, item_style[truth]]
        if len(eligible) < FITB_CANDIDATES - 1:
            raise SyntheticSpecError(
                "too few same-type cross-style items for FITB distractors; "
                "increase test outfits or styles")
        picks = rng.choice(len(eligible), FITB_CANDIDATES - 1, replace=False)
        candidates = [truth] + [eligible[p] for p in picks.tolist()]
        order = rng.permutation(FITB_CANDIDATES).tolist()
        fitb.append(FITBQuestion(partial=partial,
                                 candidates=tuple(candidates[j] for j in order),
                                 answer=order.index(0)))

    return Dataset(entries, regions, words[:described], types=types,
                   outfits=outfits, fc_questions=fc, fitb_questions=fitb)


# -- question filtering -----------------------------------------------------


def filter_questions(fc: list[FCQuestion], fitb: list[FITBQuestion],
                     dataset: Dataset) -> tuple[list[FCQuestion],
                                                list[FITBQuestion], int, int]:
    """Drop questions touching any description-less item.

    Returns (kept_fc, kept_fitb, fc_discarded, fitb_discarded). Untrained
    type pairs are not dropped here; scoring skips them pair by pair. An
    id the dataset does not hold raises DomainError.
    """
    def described(lists) -> list[bool]:
        flat = [i for ids in lists for i in ids]
        owner = np.repeat(np.arange(len(lists)), np.fromiter(
            map(len, lists), dtype=np.intp, count=len(lists)))
        bare = dataset.word_row[dataset.rows(flat)] < 0
        return (np.bincount(owner[bare], minlength=len(lists)) == 0).tolist()

    kept_fc = list(compress(fc, described([q.items for q in fc])))
    kept_fitb = list(compress(fitb, described(
        [(*q.partial, *q.candidates) for q in fitb])))
    return kept_fc, kept_fitb, len(fc) - len(kept_fc), len(fitb) - len(kept_fitb)
