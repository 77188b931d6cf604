"""On-disk formats: binary recordings, array bundles, and embedding tables.

Binary recording (.raw):
    bytes 0..7    magic ``EEGREC01``
    bytes 8..11   uint32 little-endian channel count E
    bytes 12..15  uint32 little-endian sample count T
    bytes 16..    E*T float32 little-endian values, row-major (channel, time)

Array bundle (window sets and checkpoints, whose meta names a kind and version):
    bytes 0..7    magic ``EEGBNDL1``
    bytes 8..15   uint64 little-endian header length H
    next H bytes  UTF-8 JSON: {"meta": ..., "arrays": [{name, dtype, shape}]}
    next bytes    each array's raw little-endian C-order bytes, in order
    last 4 bytes  uint32 little-endian CRC-32 of everything before it

Embedding table: delimited text, one row per sample, ``embed_dim`` float
columns then the integer label then the subject id, comma separated; lines
beginning with ``#`` are header comments.
"""

from __future__ import annotations

import errno
import io
import json
import math
import os
import struct
import zlib
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import (ChecksumError, IntegrityError, ManifestError, NumericError,
                     PipelineError)
from .model import map_chunks

__all__ = [
    "write_recording_binary",
    "read_recording_header",
    "read_recording_binary",
    "read_recording_text",
    "write_bundle",
    "BundleReader",
    "checksummed",
    "read_bundle",
    "open_document",
    "check_subject_ids",
    "write_embeddings_text",
    "read_embeddings_text",
    "write_text",
    "read_text",
]

RECORDING_MAGIC = b"EEGREC01"
BUNDLE_MAGIC = b"EEGBNDL1"

_ALLOWED_DTYPES = {"<f8", "<f4", "<i8"}


def write_recording_binary(path: str | Path, data: np.ndarray) -> None:
    data = np.asarray(data)
    if data.ndim != 2:
        raise IntegrityError(f"recording data must be 2-D, got shape {data.shape}")
    e, t = data.shape
    payload = data.astype("<f4").tobytes(order="C")
    with _replacing(path) as fh:
        fh.write(RECORDING_MAGIC)
        fh.write(struct.pack("<II", e, t))
        fh.write(payload)


@contextmanager
def _recording(path: str | Path):
    """An open binary recording at its first sample, and its (E, T), once
    the magic and the file's length agree with the header."""
    path = Path(path)
    if not path.exists():
        raise IntegrityError(f"recording file not found: {path}")
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16 or head[:8] != RECORDING_MAGIC:
            raise IntegrityError(f"{path} is not a binary recording (bad magic)")
        e, t = struct.unpack("<II", head[8:])
        size, expected = os.fstat(fh.fileno()).st_size, 16 + 4 * e * t
        if size != expected:
            raise IntegrityError(
                f"{path} is {size} bytes; {e}x{t} recording needs {expected}"
            )
        yield fh, e, t


def read_recording_header(path: str | Path) -> tuple[int, int]:
    """(E, T) of a binary recording, from its 16-byte header alone."""
    with _recording(path) as (_, e, t):
        return e, t


def read_recording_binary(path: str | Path) -> np.ndarray:
    """A binary recording's (E, T) samples as float64."""
    with _recording(path) as (fh, e, t):
        data = np.empty((e, t), dtype="<f4")
        if fh.readinto(memoryview(data.reshape(-1)).cast("B")) != data.nbytes:
            raise IntegrityError(f"{path} was truncated while it was read")
    return data.astype(np.float64)


def read_recording_text(path: str | Path) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise IntegrityError(f"{path} is not a delimited recording: {exc}") from exc
    return data


class _Reserving(io.BufferedWriter):
    """A file that reserves each write's byte range (``os.posix_fallocate``)
    before writing it: ext4 renames a file over another only after flushing
    the blocks it has not yet allocated, and this file has none. Where the
    call or the file system's support is missing, writes go as they are."""

    def __init__(self, raw):
        super().__init__(raw)
        self.reserve = hasattr(os, "posix_fallocate")

    def write(self, data) -> int:
        size = memoryview(data).nbytes
        if size and self.reserve:  # a zero-length range is refused (EINVAL)
            try:
                os.posix_fallocate(self.fileno(), self.tell(), size)
            except OSError as exc:
                if exc.errno != errno.EOPNOTSUPP:
                    raise
                self.reserve = False
        return super().write(data)


@contextmanager
def _replacing(path: str | Path):
    """Open a temporary file beside ``path`` that replaces it on a clean exit.

    A failed write (a full disk found as a range is reserved, before its
    bytes are written) leaves any earlier file at ``path`` untouched and
    removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with _Reserving(io.FileIO(tmp, "wb")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    """Write a UTF-8 text file atomically: readers see the old file or the
    new one."""
    with _replacing(path) as fh:
        fh.write(text.encode("utf-8"))


def read_text(path: str | Path) -> str:
    """Read a UTF-8 text file; bytes that do not decode are an IntegrityError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise IntegrityError(f"{path} is not UTF-8 text: {exc}") from exc


def write_bundle(path: str | Path, meta: dict,
                 arrays: list[tuple[str, np.ndarray]]) -> None:
    """Write a bundle atomically, streaming each array's own buffer.

    An array already C-ordered in a stored dtype is written from its own
    memory without a copy. The arrays are written while their CRC is folded
    in file order, the two as tasks on the model's pool (``map_chunks``):
    both release the GIL on large buffers.
    """
    specs, blocks = [], []
    for name, arr in arrays:
        dtype = np.asarray(arr).dtype.newbyteorder("<").str
        if dtype not in _ALLOWED_DTYPES:
            dtype = "<f8"
        arr = np.ascontiguousarray(arr, dtype=dtype)
        specs.append({"name": name, "dtype": dtype, "shape": list(arr.shape)})
        blocks.append(arr)
    header = json.dumps({"meta": meta, "arrays": specs},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = BUNDLE_MAGIC + struct.pack("<Q", len(header)) + header
    with _replacing(path) as fh:
        fh.write(head)
        crc = zlib.crc32(head)

        def write_arrays():
            for block in blocks:
                fh.write(block)

        def fold_crc():
            folded = crc
            for block in blocks:
                folded = zlib.crc32(block, folded)
            return folded

        _, crc = map_chunks(lambda task: task(), (write_arrays, fold_crc))
        fh.write(struct.pack("<I", crc))
        assert fh.tell() == len(head) + sum(b.nbytes for b in blocks) + 4


def _fails_checksum(path: Path) -> bool:
    """Whether ``path`` is an array bundle whose stored CRC does not match
    everything before it, read in blocks."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < 20 or fh.read(8) != BUNDLE_MAGIC:
                return False
            fh.seek(0)
            crc, left = 0, size - 4
            while left and (block := fh.read(min(left, 1 << 20))):
                crc, left = zlib.crc32(block, crc), left - len(block)
            return left > 0 or struct.pack("<I", crc) != fh.read(4)
    except OSError:
        return False


@contextmanager
def checksummed(path):
    """Report a PipelineError from the body as the checksum failure of the
    bundle at ``path`` (None: no file) when its CRC does not match: a
    corrupt file is reported as corrupt ahead of any fault found in it
    before its CRC was checked. Each public reader wraps itself once."""
    try:
        yield
    except PipelineError as exc:
        if isinstance(exc, ChecksumError) or path is None \
                or not _fails_checksum(Path(path)):
            raise
        raise ChecksumError(f"{path} failed its checksum; file is corrupt") from exc


_BLOCK_BYTES = 1 << 16  # an array streams in blocks of this size, one row at least


class BundleReader:
    """A bundle whose header, array specs and size are checked against each
    other before any array is read; every read goes through the one file
    object opened here, so a file renamed over the path changes nothing
    read. ``array`` reads one array by its offset and ``take`` rows of one;
    ``blocks`` makes one pass in file order, folding the CRC over the bytes
    it reads and the arrays already read, and checks it at the end (then
    ``checked`` is True). A fault is raised as found: ``checksummed``
    reports a corrupt file first."""

    def __init__(self, path: str | Path):
        path = self.path = Path(path)
        if not path.exists():
            raise IntegrityError(f"file not found: {path}")
        fh = self.file = open(path, "rb")
        size = self.size = os.fstat(fh.fileno()).st_size
        lead = fh.read(16)
        if size < 20 or lead[:8] != BUNDLE_MAGIC:
            raise IntegrityError(f"{path} is not an array bundle (bad magic)")
        header_len = struct.unpack("<Q", lead[8:])[0]
        head = fh.read(min(header_len, size - 16))
        self._head_crc = zlib.crc32(head, zlib.crc32(lead))
        try:
            header = json.loads(head.decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or JSON, or an int of too many digits
            raise IntegrityError(f"{path} has a corrupt header: {exc}") from exc
        if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
                and isinstance(header.get("arrays"), list)):
            raise IntegrityError(
                f"{path} header must be an object with a 'meta' object and an "
                "'arrays' list"
            )
        offset = 16 + header_len
        for spec in header["arrays"]:
            if not (isinstance(spec, dict) and isinstance(spec.get("name"), str)
                    and isinstance(spec.get("dtype"), str)
                    and spec["dtype"] in _ALLOWED_DTYPES
                    and isinstance(spec.get("shape"), list)
                    and all(type(d) is int and d >= 0 for d in spec["shape"])):
                raise IntegrityError(
                    f"{path} has a malformed array spec {spec!r}; expected a str "
                    f"name, a dtype in {sorted(_ALLOWED_DTYPES)} and a list of "
                    "non-negative int dims"
                )
            spec["offset"] = offset
            offset += np.dtype(spec["dtype"]).itemsize * math.prod(spec["shape"])
            if offset > size - 4:
                raise IntegrityError(f"{path} is truncated inside array {spec['name']}")
        if offset != size - 4:
            raise IntegrityError(f"{path} carries {size - 4 - offset} unexpected bytes")
        self.meta, self.specs = header["meta"], header["arrays"]
        # A name given twice names its last array.
        self.names = {spec["name"]: i for i, spec in enumerate(self.specs)}
        self._held: dict[int, np.ndarray] = {}
        self.checked = False

    def _fill(self, spec, offset: int, arr: np.ndarray) -> memoryview:
        """``arr`` filled from the file's bytes at ``offset`` on."""
        buf = memoryview(arr.reshape(-1)).cast("B")
        self.file.seek(offset)
        if self.file.readinto(buf) != len(buf):
            raise IntegrityError(f"{self.path} is truncated inside array {spec['name']}")
        return buf

    def _read(self, i: int) -> np.ndarray:
        """Array ``i`` read whole into a fresh array, held for the CRC."""
        spec = self.specs[i]
        arr = self._held[i] = np.empty(spec["shape"], dtype=spec["dtype"])
        self._fill(spec, spec["offset"], arr)
        return arr

    def array(self, name: str) -> np.ndarray:
        """Array ``name`` read whole into a fresh array."""
        return self._read(self.names[name])

    def take(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Rows ``rows`` of array ``name``, in that order, read by offset into
        one fresh array: one read per run of consecutive rows."""
        spec = self.specs[self.names[name]]
        out = np.empty((len(rows), *spec["shape"][1:]), dtype=spec["dtype"])
        row_bytes = out.itemsize * math.prod(out.shape[1:])
        starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1)
        for a, b in zip(starts, [*starts[1:], len(rows)]):
            self._fill(spec, spec["offset"] + int(rows[a]) * row_bytes, out[a:b])
        return out

    def blocks(self, name: str | None = None):
        """(first row, rows) of array ``name`` (None: no array), a block at a
        time in one reused buffer; then the file's CRC is checked."""
        crc, stream = self._head_crc, self.names.get(name)
        for i, spec in enumerate(self.specs):
            if i in self._held:
                crc = zlib.crc32(memoryview(self._held[i].reshape(-1)).cast("B"), crc)
                continue
            n, *row = spec["shape"] or [1]
            row_bytes = np.dtype(spec["dtype"]).itemsize * math.prod(row)
            k = max(1, _BLOCK_BYTES // max(1, row_bytes))
            buf = np.empty((min(k, n), *row), dtype=spec["dtype"])
            for first in range(0, n, k):
                rows = buf[:min(k, n - first)]
                crc = zlib.crc32(self._fill(spec, spec["offset"] + first * row_bytes,
                                            rows), crc)
                if i == stream:
                    yield first, rows
        self.file.seek(self.size - 4)
        if struct.pack("<I", crc) != self.file.read(4):
            raise ChecksumError(f"{self.path} failed its checksum; file is corrupt")
        self.checked = True

    def whole(self) -> dict[str, np.ndarray]:
        """Every array read whole in file order, once the file's CRC has
        matched."""
        arrays = {spec["name"]: self._read(i) for i, spec in enumerate(self.specs)}
        for _ in self.blocks():  # every array is held: the CRC is folded from memory
            pass
        return arrays


def read_bundle(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """A bundle's meta and one fresh array per entry, with no second copy."""
    with checksummed(path):
        reader = BundleReader(path)
    return reader.meta, reader.whole()


def open_document(path: str | Path, kind: str, version: int, tables) -> BundleReader:
    """A reader of a bundle whose meta names document ``kind`` at ``version``
    and holds each (key, type) of ``tables``, else raise IntegrityError."""
    reader = BundleReader(path)
    meta = reader.meta
    found = meta.get("kind"), meta.get("version")
    if found != (kind, version) or type(found[1]) is not int:
        raise IntegrityError(f"{path} is not a version-{version} {kind}; its meta "
                             f"names {found[0]!r} version {found[1]!r}")
    for key, type_ in tables:
        if not isinstance(meta.get(key), type_):
            raise IntegrityError(f"{path}: {kind} meta {key!r} must be a {type_.__name__}")
    return reader


def check_subject_ids(subject_ids) -> None:
    """Refuse subject ids that would split an embeddings table's cells or rows."""
    if any("," in s or "\n" in s for s in map(str, subject_ids)):
        raise ManifestError("subject ids must not contain commas or newlines")


def write_embeddings_text(path: str | Path, embeddings: np.ndarray,
                          labels: np.ndarray, subject_ids,
                          header_lines=()) -> None:
    """Write an embeddings table atomically, ``_BLOCK_BYTES`` of embeddings'
    rows at a time."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    check_subject_ids(subject_ids)
    rows = zip(embeddings, labels, subject_ids)
    k = max(1, _BLOCK_BYTES // max(1, embeddings[:1].nbytes))
    with _replacing(path) as fh:
        fh.write("".join(f"# {line}\n" for line in header_lines).encode("utf-8"))
        while block := list(islice(rows, k)):
            fh.write("".join(f"{','.join(map(repr, row.tolist()))},{label},{sid}\n"
                             for row, label, sid in block).encode("utf-8"))
        if not fh.tell():  # a table of no line is one empty line
            fh.write(b"\n")


def read_embeddings_text(path: str | Path):
    """Read an embeddings table as (N, D) float64 embeddings, (N,) int64
    labels and N subject ids.

    Every row must hold as many values as the first, and every value must be
    finite.
    """
    embeddings, labels, subjects = [], [], []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 3:
            raise IntegrityError(f"{path}:{lineno}: expected values,label,subject")
        if embeddings and len(parts) - 2 != len(embeddings[0]):
            raise IntegrityError(
                f"{path}:{lineno}: {len(parts) - 2} values, but the first row "
                f"has {len(embeddings[0])}"
            )
        try:
            embeddings.append([float(v) for v in parts[:-2]])
            labels.append(int(parts[-2]))
        except ValueError as exc:
            raise IntegrityError(f"{path}:{lineno}: {exc}") from exc
        if not -2**63 <= labels[-1] < 2**63:
            raise IntegrityError(f"{path}:{lineno}: label {labels[-1]} is out of range")
        subjects.append(parts[-1])
    if not embeddings:
        raise IntegrityError(f"{path} contains no embedding rows")
    embeddings = np.array(embeddings)
    if not np.all(np.isfinite(embeddings)):
        raise NumericError(f"{path}: embeddings contain non-finite values")
    return embeddings, np.array(labels, dtype=np.int64), subjects
