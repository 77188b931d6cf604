"""Reader fuzzing: a mutated input reads back or fails with a typed error,
and ``cli.main`` exits 2 with one ``error:`` line.

Binary recordings (.raw) are covered: truncations, flipped header bytes
and extreme header dims.
"""

import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegadapt.cli import main
from eegadapt.errors import IntegrityError
from eegadapt.fileio import (
    RECORDING_MAGIC,
    read_recording_binary,
    read_recording_header,
    write_recording_binary,
)

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

    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["preprocess", "--manifest", str(root / "manifest.json"),
                   "--window", "16", "--out", str(out)])
    assert rc == 2, mutation
    text = err.getvalue()
    assert text.startswith("error:") and text.count("\n") == 1, text
    assert not out.exists()
