"""Reader fuzzing: a mutated input reads back or fails with a typed error,
and ``cli.main`` exits 2 with one ``error:`` line.

Covered: binary recordings (.raw), with truncations, flipped header bytes
and extreme header dims; and bundles (window sets and checkpoints), with
truncations, flipped header bytes, mutated array specs and meta fields of
another JSON type.
"""

import contextlib
import io
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from eegadapt.adapter import default_adapter_config
from eegadapt.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from eegadapt.cli import main
from eegadapt.encoder import BfmConfig
from eegadapt.errors import IntegrityError, PipelineError
from eegadapt.fileio import (
    BUNDLE_MAGIC,
    RECORDING_MAGIC,
    read_recording_binary,
    read_recording_header,
    write_recording_binary,
)
from eegadapt.model import build_classifier
from eegadapt.pipeline import WindowSet, load_window_set, save_window_set

# A valid recording of E x T; the manifest below lists E channels.
E, T = 2, 40
U32_MAX = 2**32 - 1


@pytest.fixture(scope="module")
def original(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-raw")
    write_recording_binary(root / "r.raw",
                           np.random.default_rng(0).normal(size=(E, T)))
    (root / "manifest.json").write_text(json.dumps({
        "classes": {"first": 0},
        "recordings": [{
            "path": "r.raw", "format": "f32-binary",
            "channel_labels": [f"e{i}" for i in range(E)],
            "sample_rate_hz": 250.0, "label": "first", "subject_id": "s0",
            "split": "train",
        }],
    }))
    return root, (root / "r.raw").read_bytes()


truncated = st.integers(0, 16 + 4 * E * T - 1).map(lambda k: ("cut", k))
header_flip = st.tuples(st.just("flip"), st.integers(0, 15), st.integers(1, 255))
# Dims over the original payload: every product but E * T mismatches the
# file length, and E * T in another shape is refused by the manifest.
extreme_dims = st.tuples(
    st.just("dims"), st.sampled_from([0, 1, 3, T, 1 << 16, U32_MAX]),
    st.sampled_from([0, 1, E, 1 << 16, U32_MAX]))
# Dims with exactly the payload they claim, none of them preprocessable:
# no channels or samples, a channel count the manifest does not list, or
# too few samples to filter.
exact_dims = st.tuples(st.just("exact"), st.sampled_from([0, 1, E, 3]),
                       st.sampled_from([0, 1, 3, 24]))


def mutate(raw: bytes, mutation) -> bytes:
    kind, *args = mutation
    if kind == "cut":
        return raw[:args[0]]
    if kind == "flip":
        i, mask = args
        return raw[:i] + bytes([raw[i] ^ mask]) + raw[i + 1:]
    e, t = args
    payload = raw[16:] if kind == "dims" else bytes(4 * e * t)
    return RECORDING_MAGIC + struct.pack("<II", e, t) + payload


def outcome(read, path):
    """The (E, T) that ``read`` finds, or IntegrityError."""
    try:
        result = read(path)
    except IntegrityError:
        return IntegrityError
    return result.shape if isinstance(result, np.ndarray) else result


@settings(derandomize=True, max_examples=150, deadline=None)
@given(mutation=st.one_of(truncated, header_flip, extreme_dims, exact_dims))
def test_mutated_recording_is_refused_in_one_line(original, mutation):
    root, raw = original
    path, out = root / "r.raw", root / "w.wset"
    data = mutate(raw, mutation)
    assert data != raw
    path.write_bytes(data)

    # The header read and the full read agree on (E, T), or both refuse.
    assert outcome(read_recording_header, path) \
        == outcome(read_recording_binary, path)

    rc, text = run_cli(["preprocess", "--manifest", str(root / "manifest.json"),
                        "--window", "16", "--out", str(out)])
    assert rc == 2, mutation
    assert text.startswith("error:") and text.count("\n") == 1, text
    assert not out.exists()


def run_cli(argv):
    """``cli.main``'s exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


# ------------------------------------------------------------------------
# Bundles: a window set of 6 windows of 3 x 48 and the checkpoint of an
# adapter model (3 x 48 -> 4 x 32, patches of 8) that evaluates it.


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-bundles")
    rng = np.random.default_rng(0)
    fingerprint = {"alignment": "none", "window_len": 48}
    save_window_set(root / "w.wset", WindowSet(
        data=rng.normal(size=(6, 3, 48)), labels=np.arange(6) % 2,
        subjects=np.array(["s0", "s1", "s2"] * 2), splits=np.array(["test"] * 6),
        sample_rates=np.full(6, 250.0), channel_labels=["e0", "e1", "e2"],
        classes={"rest": 0, "task": 1}, fingerprint=fingerprint))
    cfg = BfmConfig(num_channels=4, num_classes=2, patch_len=8, embed_dim=8,
                    num_layers=1, num_heads=2, channel_vocab=4, max_patches=4)
    adapter_cfg = default_adapter_config(3, 48, 32, out_channels=4, hidden_maps=4)
    save_checkpoint(root / "m.ckpt", Checkpoint(
        build_classifier(cfg, adapter_cfg, seed=0), {"rest": 0, "task": 1},
        {**fingerprint, "mode": "adapter"}))
    return root, {name: (root / name).read_bytes() for name in ("w.wset", "m.ckpt")}


def split_bundle(raw: bytes):
    """(header dict, array payload) of a well-formed bundle."""
    header_len = struct.unpack("<Q", raw[8:16])[0]
    return json.loads(raw[16:16 + header_len]), raw[16 + header_len:-4]


def join_bundle(header: dict, payload: bytes) -> bytes:
    """A bundle of ``header`` and ``payload`` with a valid CRC, so that the
    reader gets past the checksum to the header's contents."""
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return with_crc(BUNDLE_MAGIC + struct.pack("<Q", len(text)) + text + payload
                    + bytes(4))


def with_crc(raw: bytes) -> bytes:
    """``raw`` with its last 4 bytes replaced by the CRC of the rest."""
    return raw[:-4] + struct.pack("<I", zlib.crc32(raw[:-4]))


def leaf_paths(value, path=()):
    """Every key path into a JSON value, the value itself included."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from leaf_paths(child, (*path, key))


# A value of each JSON type; a meta field is swapped for one of another type.
OTHER_TYPES = [None, True, 0, 3, -1, 2.5, "", "x", [], [1], {}, {"a": 1}]
SPEC_DTYPES = ["<f8", "<f4", "<i8", ">f8", "<f2", "|u1", "x", 8, None]
SPEC_NAMES = ["data", "labels", "sample_rates", "", "z", "encoder.head_w", 5, None]


def shape_mutations(shape):
    """Shapes with the same payload, another payload, or no valid dims."""
    size = int(np.prod(shape))
    yield from ([size], [*shape, 1], shape[::-1], shape[:-1], [], [-1] + shape[1:],
                [0] + shape[1:], [shape[0] + 1] + shape[1:], [2.0] + shape[1:],
                ["3"] + shape[1:], None, 7)


@st.composite
def bundle_mutations(draw, raw: bytes):
    """Mutated bytes of the bundle ``raw`` and a description of the edit."""
    header, payload = split_bundle(raw)
    kind = draw(st.sampled_from(["cut", "flip", "spec", "meta"]))
    if kind == "cut":
        k = draw(st.integers(0, len(raw) - 1))
        return raw[:k], ("cut", k)
    if kind == "flip":
        # A flip inside the magic, length or JSON header; with the CRC
        # fixed up it reaches the header parse.
        i = draw(st.integers(0, len(raw) - len(payload) - 5))
        mask, fix_crc = draw(st.integers(1, 255)), draw(st.booleans())
        data = raw[:i] + bytes([raw[i] ^ mask]) + raw[i + 1:]
        return (with_crc(data) if fix_crc else data), ("flip", i, mask, fix_crc)
    if kind == "spec":
        a = draw(st.integers(0, len(header["arrays"]) - 1))
        spec = header["arrays"][a]
        field = draw(st.sampled_from(["dtype", "shape", "name"]))
        value = draw(st.sampled_from({
            "dtype": SPEC_DTYPES, "name": SPEC_NAMES,
            "shape": list(shape_mutations(spec["shape"]))}[field]))
        header["arrays"][a] = {**spec, field: value}
        return join_bundle(header, payload), ("spec", spec["name"], field, value)
    path = draw(st.sampled_from(list(leaf_paths(header["meta"]))[1:]))
    parent = header["meta"]
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    parent[path[-1]] = draw(st.sampled_from(
        [v for v in OTHER_TYPES if type(v) is not type(old)]))
    return join_bundle(header, payload), ("meta", path, parent[path[-1]])


def contents(loaded):
    """What a loaded window set or checkpoint holds, comparable with ==."""
    if isinstance(loaded, WindowSet):
        arrays = [loaded.data, loaded.labels, loaded.subjects, loaded.splits,
                  loaded.sample_rates]
        return ([(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
                loaded.channel_labels, loaded.classes, loaded.fingerprint)
    model = loaded.model
    return (model.encoder_config, model.adapter_config,
            [(n, a.dtype.str, a.shape, a.tobytes()) for n, a in model.named_arrays()],
            loaded.classes, loaded.fingerprint)


# Derandomized and pinned: 200 examples over both bundle kinds.
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_mutated_bundle_loads_unchanged_or_is_refused_in_one_line(bundles, data):
    root, originals = bundles
    name = data.draw(st.sampled_from(sorted(originals)), label="bundle")
    raw = originals[name]
    mutated, mutation = data.draw(bundle_mutations(raw), label="mutation")
    assume(mutated != raw)
    path = root / f"mutated-{name}"
    path.write_bytes(mutated)
    load = load_window_set if name.endswith(".wset") else load_checkpoint
    try:
        loaded = contents(load(path))
    except PipelineError:
        loaded = None

    inputs = {"w.wset": str(root / "w.wset"), "m.ckpt": str(root / "m.ckpt"),
              name: str(path)}
    rc, text = run_cli(["eval", "--checkpoint", inputs["m.ckpt"],
                        "--windows", inputs["w.wset"]])
    same = loaded == contents(load(root / name))
    event(f"{name} {mutation[0]}: "
          + ("refused" if loaded is None else "same" if same else "changed")
          + f", eval exits {rc}")
    if same:
        assert rc == 0, (mutation, text)
    elif loaded is None:
        assert rc == 2, mutation
    else:
        # A flip under a fixed-up CRC can edit a value (a subject, a class
        # name), and fingerprint values are free-form: eval compares them
        # with the other file's. Nothing else loads changed.
        assert mutation[0] == "flip" or (
            mutation[0] == "meta" and mutation[1][0] == "fingerprint"), mutation
    if rc != 0:
        assert text.startswith("error:") and text.count("\n") == 1, (mutation, text)

