"""Data model for typed items, outfits and evaluation questions.

On disk a dataset is a JSON manifest plus one raw binary blob per feature
matrix (little-endian float32, row-major, exactly 4*rows*cols bytes).
Blobs are widened to float64 in memory; the save/load round-trip is
bit-exact at the float32 payload level.

Also provides a deterministic synthetic generator that plants a
style-derived signal into a small subset of each item's region and word
rows, so that attention over rows can recover what mean pooling dilutes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DatasetError, SyntheticSpecError

MANIFEST_FORMAT = "outfitrec-dataset"
MANIFEST_VERSION = 1

SPLITS = ("train", "valid", "test")


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
    candidates: tuple[str, ...]  # exactly 4
    answer: int                  # index of ground truth in candidates


@dataclass
class Dims:
    num_regions: int
    num_words: int
    region_dim: int
    word_dim: int


@dataclass
class Dataset:
    items: dict[str, Item]
    types: list[ItemType]
    dims: Dims
    outfits: dict[str, list[Outfit]]           # keyed by split
    fc_questions: list[FCQuestion] = field(default_factory=list)
    fitb_questions: list[FITBQuestion] = field(default_factory=list)

    def trained_type_pairs(self) -> set[tuple[str, str]]:
        """Unordered type pairs co-occurring among described train items."""
        pairs: set[tuple[str, str]] = set()
        for outfit in self.outfits.get("train", []):
            ids = [i for i in outfit.items if self.items[i].described]
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    pairs.add(canonical_pair(self.items[ids[a]].type.name,
                                             self.items[ids[b]].type.name))
        return pairs


def canonical_pair(u: str, v: str) -> tuple[str, str]:
    """Canonical unordered key for a type pair."""
    return (u, v) if u <= v else (v, u)


# -- on-disk format ---------------------------------------------------------


def _blob_path(feature_dir: str, item_id: str, kind: str) -> str:
    return f"{feature_dir}/{item_id}.{kind}.bin"


def save_dataset(dataset: Dataset, out_dir: str | Path) -> Path:
    """Write manifest.json plus per-matrix feature blobs; returns manifest path."""
    out = Path(out_dir)
    (out / "features").mkdir(parents=True, exist_ok=True)
    items_meta = []
    for item in dataset.items.values():
        reg_ref = _blob_path("features", item.id, "regions")
        (out / reg_ref).write_bytes(
            np.asarray(item.regions, dtype="<f4").tobytes())
        word_ref = None
        if item.described:
            word_ref = _blob_path("features", item.id, "words")
            (out / word_ref).write_bytes(
                np.asarray(item.words, dtype="<f4").tobytes())
        items_meta.append({
            "id": item.id,
            "type": item.type.name,
            "description": item.description,
            "regions": reg_ref,
            "words": word_ref,
        })
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "dims": {
            "num_regions": dataset.dims.num_regions,
            "num_words": dataset.dims.num_words,
            "region_dim": dataset.dims.region_dim,
            "word_dim": dataset.dims.word_dim,
        },
        "types": [{"id": t.id, "name": t.name} for t in dataset.types],
        "items": items_meta,
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
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return path


def _load_blob(base: Path, ref: str, rows: int, cols: int, item_id: str) -> np.ndarray:
    try:
        raw = (base / ref).read_bytes()
    except OSError as exc:
        raise DatasetError(
            f"cannot read feature blob for item {item_id!r} ({ref}): {exc}") from exc
    expected = 4 * rows * cols
    if len(raw) != expected:
        raise DatasetError(
            f"feature blob for item {item_id!r} ({ref}) has {len(raw)} bytes, "
            f"expected {expected} (= 4*{rows}*{cols})")
    arr = np.frombuffer(raw, dtype="<f4").reshape(rows, cols).astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise DatasetError(f"non-finite feature values in blob for item {item_id!r}")
    return arr


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load and fully validate a dataset from its manifest; anything
    malformed, a missing key or blob included, raises DatasetError."""
    path = Path(manifest_path)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise DatasetError(f"{path}: not an {MANIFEST_FORMAT} manifest")
    if manifest.get("version") != MANIFEST_VERSION:
        raise DatasetError(f"{path}: unsupported version {manifest.get('version')}")
    try:
        return _parse_manifest(manifest, path)
    except DatasetError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"{path}: malformed manifest: {exc!r}") from exc


def _int(value, what: str) -> int:
    """`value` if it is a JSON integer (a bool is not), else DatasetError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DatasetError(f"{what} must be an integer, got {value!r}")
    return value


def _parse_manifest(manifest: dict, path: Path) -> Dataset:
    base = path.parent
    d = manifest["dims"]
    dims = Dims(**{k: _int(d[k], f"dims {k!r}") for k in
                   ("num_regions", "num_words", "region_dim", "word_dim")})
    if min(dims.num_regions, dims.region_dim, dims.word_dim) < 1 or dims.num_words < 0:
        raise DatasetError(f"{path}: invalid dims {d}")

    types: list[ItemType] = []
    for t in manifest["types"]:
        type_id = _int(t["id"], f"type {t['name']!r} id")
        if any(t["name"] == u.name or type_id == u.id for u in types):
            raise DatasetError(
                f"type {t['name']!r} (id {type_id}) repeats a name or an id")
        types.append(ItemType(name=t["name"], id=type_id))
    by_name = {t.name: t for t in types}

    items: dict[str, Item] = {}
    for meta in manifest["items"]:
        item_id = meta["id"]
        if item_id in items:
            raise DatasetError(f"duplicate item id {item_id!r}")
        if meta["type"] not in by_name:
            raise DatasetError(f"item {item_id!r} has unknown type {meta['type']!r}")
        description = meta.get("description")
        regions = _load_blob(base, meta["regions"], dims.num_regions,
                             dims.region_dim, item_id)
        if description is not None:
            if meta.get("words") is None:
                raise DatasetError(f"described item {item_id!r} lacks a words blob")
            words = _load_blob(base, meta["words"], dims.num_words,
                               dims.word_dim, item_id)
        else:
            if meta.get("words") is not None:
                raise DatasetError(
                    f"item {item_id!r} has words blob but no description")
            words = np.zeros((0, dims.word_dim), dtype=np.float64)
        items[item_id] = Item(id=item_id, type=by_name[meta["type"]],
                              regions=regions, words=words,
                              description=description)

    outfits: dict[str, list[Outfit]] = {s: [] for s in SPLITS}
    seen_outfits: set[str] = set()
    for meta in manifest["outfits"]:
        oid, split = meta["id"], meta["split"]
        if split not in SPLITS:
            raise DatasetError(f"outfit {oid!r} has unknown split {split!r}")
        if oid in seen_outfits:
            raise DatasetError(f"outfit {oid!r} appears in more than one split")
        seen_outfits.add(oid)
        members = tuple(meta["items"])
        if len(members) < 2 or len(set(members)) != len(members):
            raise DatasetError(f"outfit {oid!r} needs >= 2 distinct items")
        for i in members:
            if i not in items:
                raise DatasetError(f"outfit {oid!r} references missing item {i!r}")
        outfits[split].append(Outfit(id=oid, items=members))

    def check_ids(ids, where):
        for i in ids:
            if i not in items:
                raise DatasetError(f"{where} references missing item {i!r}")

    fc = []
    for q in manifest["questions"]["fc"]:
        check_ids(q["items"], "FC question")
        if _int(q["label"], "FC label") not in (0, 1):
            raise DatasetError(f"FC label must be 0 or 1, got {q['label']!r}")
        fc.append(FCQuestion(items=tuple(q["items"]), label=q["label"]))
    fitb = []
    for q in manifest["questions"]["fitb"]:
        check_ids(list(q["partial"]) + list(q["candidates"]), "FITB question")
        if len(q["candidates"]) != 4:
            raise DatasetError("FITB question must have exactly 4 candidates")
        if not 0 <= _int(q["answer"], "FITB answer") <= 3:
            raise DatasetError(f"FITB answer index out of range: {q['answer']!r}")
        fitb.append(FITBQuestion(partial=tuple(q["partial"]),
                                 candidates=tuple(q["candidates"]),
                                 answer=q["answer"]))

    return Dataset(items=items, types=types, dims=dims, outfits=outfits,
                   fc_questions=fc, fitb_questions=fitb)


# -- synthetic generation ---------------------------------------------------

# rejection-sampling draws per FC negative before generation gives up
FC_NEGATIVE_DRAWS = 100_000


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
        if self.outfit_size < 2:   # an FC negative mixes two styles
            raise SyntheticSpecError("outfit_size must be at least 2")
        if not 0.0 <= self.undescribed_frac < 1.0:
            raise SyntheticSpecError("undescribed_frac must be in [0, 1)")
        if self.num_styles < 2:
            raise SyntheticSpecError("need at least 2 style clusters")
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
    from a different style.
    """
    spec.validate()
    rng = np.random.default_rng(seed)

    types = [ItemType(name=f"type{i:02d}", id=i) for i in range(spec.num_types)]
    img_patterns = rng.normal(size=(spec.num_styles, spec.region_dim))
    img_patterns /= np.linalg.norm(img_patterns, axis=1, keepdims=True)
    txt_patterns = rng.normal(size=(spec.num_styles, spec.word_dim))
    txt_patterns /= np.linalg.norm(txt_patterns, axis=1, keepdims=True)

    items: dict[str, Item] = {}
    item_style: dict[str, int] = {}
    counter = 0

    def make_item(type_idx: int, style: int) -> str:
        nonlocal counter
        item_id = f"itm{counter:06d}"
        counter += 1
        regions = rng.normal(scale=spec.noise_scale,
                             size=(spec.num_regions, spec.region_dim))
        rows = rng.choice(spec.num_regions, size=spec.signal_rows, replace=False)
        regions[rows] = spec.signal_amplitude * img_patterns[style]
        described = rng.random() >= spec.undescribed_frac
        if described:
            words = rng.normal(scale=spec.noise_scale,
                               size=(spec.num_words, spec.word_dim))
            wrows = rng.choice(spec.num_words, size=spec.signal_rows, replace=False)
            words[wrows] = spec.signal_amplitude * txt_patterns[style]
            description = f"style {style} {types[type_idx].name} item"
        else:
            words = np.zeros((0, spec.word_dim))
            description = None
        items[item_id] = Item(id=item_id, type=types[type_idx],
                              regions=regions, words=words,
                              description=description)
        item_style[item_id] = style
        return item_id

    def make_outfit(oid: str, style: int) -> Outfit:
        type_ids = rng.choice(spec.num_types, size=spec.outfit_size, replace=False)
        members = tuple(make_item(int(t), style) for t in type_ids)
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
            key = (items[i].type.id, item_style[i])
            test_pool.setdefault(key, []).append(i)
    test_item_ids = [i for o in test_outfits for i in o.items]

    fc: list[FCQuestion] = []
    for i in range(n_pos):
        fc.append(FCQuestion(items=test_outfits[i].items, label=1))
    n_neg = spec.fc_questions - n_pos
    for _ in range(n_neg):
        # random cross-style combination with distinct types
        for _ in range(FC_NEGATIVE_DRAWS):
            picks = rng.choice(len(test_item_ids), size=spec.outfit_size,
                               replace=False)
            chosen = [test_item_ids[int(p)] for p in picks]
            type_set = {items[c].type.id for c in chosen}
            style_set = {item_style[c] for c in chosen}
            if len(type_set) == spec.outfit_size and len(style_set) >= 2:
                break
        else:
            raise SyntheticSpecError(
                f"no cross-style FC negative with {spec.outfit_size} distinct "
                f"types in {FC_NEGATIVE_DRAWS} draws; increase num_types "
                "or the number of test outfits")
        fc.append(FCQuestion(items=tuple(chosen), label=0))

    fitb: list[FITBQuestion] = []
    for i in range(spec.fitb_questions):
        outfit = test_outfits[i % len(test_outfits)]
        blank = int(rng.integers(len(outfit.items)))
        truth = outfit.items[blank]
        partial = tuple(x for j, x in enumerate(outfit.items) if j != blank)
        t_id = items[truth].type.id
        style = item_style[truth]
        eligible = [x for (ty, st), pool in test_pool.items() if ty == t_id
                    and st != style for x in pool]
        if len(eligible) < 3:
            raise SyntheticSpecError(
                "too few same-type cross-style items for FITB distractors; "
                "increase test outfits or styles")
        picks = rng.choice(len(eligible), size=3, replace=False)
        candidates = [truth] + [eligible[int(p)] for p in picks]
        order = rng.permutation(4)
        shuffled = tuple(candidates[int(j)] for j in order)
        answer = int(np.where(order == 0)[0][0])
        fitb.append(FITBQuestion(partial=partial, candidates=shuffled,
                                 answer=answer))

    dims = Dims(num_regions=spec.num_regions, num_words=spec.num_words,
                region_dim=spec.region_dim, word_dim=spec.word_dim)
    return Dataset(items=items, types=types, dims=dims, outfits=outfits,
                   fc_questions=fc, fitb_questions=fitb)


# -- question filtering -----------------------------------------------------


def filter_questions(fc: list[FCQuestion], fitb: list[FITBQuestion],
                     dataset: Dataset) -> tuple[list[FCQuestion],
                                                list[FITBQuestion], int, int]:
    """Drop questions touching any description-less item.

    Returns (kept_fc, kept_fitb, fc_discarded, fitb_discarded). Untrained
    type pairs are not dropped here; scoring skips them pair by pair.
    """
    def all_described(ids) -> bool:
        return all(dataset.items[i].described for i in ids)

    kept_fc = [q for q in fc if all_described(q.items)]
    kept_fitb = [q for q in fitb
                 if all_described(list(q.partial) + list(q.candidates))]
    return kept_fc, kept_fitb, len(fc) - len(kept_fc), len(fitb) - len(kept_fitb)
