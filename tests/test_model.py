"""Checkpoint format: the pinned byte layout and the load error contract."""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outfitrec import model as model_module
from outfitrec.errors import DatasetError, DimensionError
from outfitrec.model import (CHECKPOINT_MAGIC, FUSION_KINDS, ModelDims,
                             init_model, item_features, load_model,
                             save_model)
from outfitrec.tensor import no_grad

DIMS = ModelDims(d_g=2, d_c=3, h=2, hops=2, mfb_factor=2, region_dim=3,
                 word_dim=2)
PAIRS = {("top", "bottom"), ("bottom", "shoe"), ("top", "shoe")}

# Header (name, shape) lists and file digests of `save_model` for seed 0.
# A change here breaks every checkpoint written before it.
PROJ = [("proj.w_img", (2, 3)), ("proj.w_txt", (2, 2))]
STACKED = [("stacked.0.w_v", (2, 2)), ("stacked.0.w_t", (2, 2)),
           ("stacked.0.w_p", (1, 2)), ("stacked.0.b_s", (2, 1)),
           ("stacked.1.w_v", (2, 2)), ("stacked.1.w_t", (2, 2)),
           ("stacked.1.w_p", (1, 2)), ("stacked.1.b_s", (2, 1))]
COATT = [("coatt.text.w1", (2, 2)), ("coatt.text.b1", (2,)),
         ("coatt.text.w2", (1, 2)), ("coatt.text.b2", (1,)),
         ("coatt.vis0.w1", (2, 4)), ("coatt.vis0.b1", (2,)),
         ("coatt.vis0.w2", (1, 2)), ("coatt.vis0.b2", (1,)),
         ("coatt.vis1.w1", (2, 4)), ("coatt.vis1.b1", (2,)),
         ("coatt.vis1.w2", (1, 2)), ("coatt.vis1.b2", (1,)),
         ("coatt.u_merge", (8, 2)), ("coatt.v_merge", (8, 2)),
         ("coatt.u_final", (8, 4)), ("coatt.v_final", (8, 2)),
         ("coatt.w_f", (4, 8))]


def spaces(rep_dim):
    return [(f"space.{key}", (3, rep_dim))
            for key in ("bottom|shoe", "bottom|top", "shoe|top")]


LAYOUT = {"baseline": PROJ + spaces(2),
          "dot_product": PROJ + spaces(4),
          "stacked": PROJ + STACKED + spaces(4),
          "coattention": PROJ + COATT + spaces(4)}
SHA256 = {
    "baseline":
        "c732741f8a7ce4a3d730d999e2887539d0ee9cbb424a172f6a877c4550e82439",
    "dot_product":
        "323eee98055283012302106bfcdbf8590c5118735d5b91451778020253f89c2c",
    "stacked":
        "3cb337b7c49b7334b11bae109391e2319d5e6c83b8e1e694c5d2ac55d01b93a9",
    "coattention":
        "b32047c53ff4eb0c0dc40e8bbe7b959cc212be92dedc4ccab9404e3832bc2e33",
}


def split(raw):
    """(header dict, payload bytes) of a well-formed checkpoint."""
    off = len(CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack_from("<Q", raw, off)
    return (json.loads(raw[off + 8:off + 8 + hlen]),
            raw[off + 8 + hlen:])


def join(blob, payload):
    return CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob + payload


def saved(tmp_path, fusion):
    path = tmp_path / f"{fusion}.ckpt"
    save_model(init_model(fusion, DIMS, PAIRS, seed=0), path)
    return path


@pytest.mark.parametrize("fusion", FUSION_KINDS)
def test_checkpoint_layout_is_pinned(tmp_path, fusion):
    raw = saved(tmp_path, fusion).read_bytes()
    header, _ = split(raw)
    assert ([(p["name"], tuple(p["shape"])) for p in header["params"]]
            == LAYOUT[fusion])
    assert hashlib.sha256(raw).hexdigest() == SHA256[fusion]


# -- malformed checkpoints ---------------------------------------------------


def cut_length_prefix(raw):
    return raw[:len(CHECKPOINT_MAGIC) + 4]


def cut_header(raw):
    return raw[:len(CHECKPOINT_MAGIC) + 8 + 20]


def invalid_header(raw):
    return join(b"{not json", split(raw)[1])


def header_without_dims(raw):
    header, payload = split(raw)
    del header["dims"]
    return join(json.dumps(header).encode(), payload)


def trailing_bytes(raw):
    return raw + b"\0" * 4


def cut_inside_float(raw):
    return raw[:-1]


def dims_beyond_memory(raw):
    header, payload = split(raw)
    header["dims"]["d_g"] = 10**15
    return join(json.dumps(header).encode(), payload)


def omitted_parameter(raw):
    """Drop the last parameter from the header and its values from the
    payload, leaving a file that is consistent but incomplete."""
    header, payload = split(raw)
    last = header["params"].pop()
    nbytes = 4 * int(np.prod(last["shape"]))
    return join(json.dumps(header).encode(), payload[:-nbytes])


def nan_payload(raw):
    """A quiet NaN in place of the last stored value."""
    return raw[:-4] + struct.pack("<f", float("nan"))


def inf_payload(raw):
    return raw[:-4] + struct.pack("<f", float("-inf"))


def snan_payload(raw):
    """A signaling NaN, which warns if it is widened before the check."""
    return raw[:-4] + struct.pack("<I", 0x7F800001)


@pytest.mark.parametrize("corrupt", [
    cut_length_prefix, cut_header, invalid_header, header_without_dims,
    trailing_bytes, cut_inside_float, dims_beyond_memory, omitted_parameter,
    nan_payload, inf_payload, snan_payload],
    ids=lambda f: f.__name__)
def test_malformed_checkpoint_raises_dataset_error(tmp_path, corrupt):
    path = saved(tmp_path, "stacked")
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(DatasetError):
        load_model(path)


def test_hop_count_is_checked_before_the_model_is_built(tmp_path, monkeypatch):
    path = saved(tmp_path, "stacked")
    header, payload = split(path.read_bytes())
    header["dims"]["hops"] = 10**9
    path.write_bytes(join(json.dumps(header).encode(), payload))

    def build(*args, **kwargs):
        raise AssertionError("built a model for an impossible hop count")

    monkeypatch.setattr(model_module, "_build_model", build)
    with pytest.raises(DatasetError, match="hops"):
        load_model(path)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    return {fusion: saved(tmp_path_factory.mktemp(fusion), fusion).read_bytes()
            for fusion in ("stacked", "coattention")}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), fusion=st.sampled_from(["stacked", "coattention"]),
       edit=st.sampled_from(["truncate", "overwrite", "insert"]))
def test_mutated_checkpoint_raises_only_package_errors(
        tmp_path_factory, checkpoint_bytes, data, fusion, edit):
    raw = checkpoint_bytes[fusion]
    pos = data.draw(st.integers(0, len(raw)), label="position")
    if edit == "truncate":
        raw = raw[:pos]
    else:
        chunk = data.draw(st.binary(min_size=1, max_size=8), label="bytes")
        end = pos + len(chunk) if edit == "overwrite" else pos
        raw = raw[:pos] + chunk + raw[end:]
    path = tmp_path_factory.getbasetemp() / "mutated.ckpt"
    path.write_bytes(raw)
    try:
        model = load_model(path)
    except (DatasetError, DimensionError):
        return
    for name, tensor in model.parameters():
        assert np.all(np.isfinite(tensor.data)), name


# -- the float32 round trip --------------------------------------------------


@pytest.mark.parametrize("fusion", FUSION_KINDS)
def test_f32_round_trip_stays_within_its_bound(tmp_path, fusion):
    dims = ModelDims(d_g=16, d_c=16, h=16, hops=2, mfb_factor=2,
                     region_dim=12, word_dim=10)
    model = init_model(fusion, dims, PAIRS, seed=3)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    loaded = load_model(path)
    for (name, want), (_, got) in zip(model.parameters(), loaded.parameters()):
        err = np.abs(got.data - want.data)
        assert np.all(err <= 2.0**-24 * np.abs(want.data)), name

    rng = np.random.default_rng(4)
    regions = 3.0 * rng.normal(size=(32, 8, 12))
    words = rng.normal(size=(32, 6, 10))
    with no_grad():
        pairs = zip(item_features(model, regions, words),
                    item_features(loaded, regions, words))
        for want, got in pairs:
            err = np.linalg.norm(got.data - want.data, axis=-1)
            assert np.all(err <= 1e-5 * np.linalg.norm(want.data, axis=-1))
