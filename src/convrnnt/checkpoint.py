"""Single-file binary checkpoints.

Layout (little-endian):

    magic 'CVRT' | u16 version | u64 step | u32 n_records |
    records: [u16 name_len][name utf-8][u8 ndim][u32 dim...][f64 data...] |
    u32 rng_len | rng state as canonical JSON

Save -> load -> save is byte-identical: float64 payloads round-trip exactly
and record order is preserved.  A file of another format version fails
loudly: version 1 wired the global encoder to the local encoder's output,
and version 2 headers held a config hash besides.

This module reads and writes the layout only.  Whether a checkpoint fits a
model is `Trainer`'s to decide: `Trainer.load` checks every record's name,
shape and values before it restores any, so a load that fails changes
nothing.  Shapes cannot show every change of wiring: a config key that
rewires the model without changing any record's shape must bump `VERSION`.
Adding or dropping a record is not such a change: the layout stays, and
`Trainer.load` names any record it does not build or misses.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import DataError

MAGIC = b"CVRT"
VERSION = 3


def _canonical_json(obj) -> bytes:
    # The RNG state's NumPy arrays and scalars are written as their `tolist()`.
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=lambda o: o.tolist()).encode("utf-8")


def save_checkpoint(path, step: int, named_arrays, rng_state) -> None:
    """Write the file beside `path` under a temporary name, sync it, then move
    it over `path`: a save that stops part way leaves the previous file as it
    was, and no temporary file behind."""
    named_arrays = list(named_arrays)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<HQ", VERSION, step))
            f.write(struct.pack("<I", len(named_arrays)))
            for name, arr in named_arrays:
                arr = np.ascontiguousarray(arr, dtype="<f8")
                encoded = name.encode("utf-8")
                f.write(struct.pack("<H", len(encoded)))
                f.write(encoded)
                f.write(struct.pack("<B", arr.ndim))
                for d in arr.shape:
                    f.write(struct.pack("<I", d))
                f.write(arr.tobytes())
            rng_blob = _canonical_json(rng_state)
            f.write(struct.pack("<I", len(rng_blob)))
            f.write(rng_blob)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read(f, n: int, path) -> bytes:
    # Checked first: a read allocates all n bytes even when fewer are left.
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise DataError(f"{path}: checkpoint is truncated")
    return f.read(n)


def _unpack(fmt: str, f, path):
    return struct.unpack(fmt, _read(f, struct.calcsize(fmt), path))


def load_checkpoint(path):
    """Returns (step, {name: array}, rng_state_dict).  A file cut short, with
    bytes past its RNG state, with a record name twice or with text that does
    not decode raises `DataError`."""
    with open(path, "rb") as f:
        if f.read(4) != MAGIC:
            raise DataError(f"{path}: not a checkpoint file")
        (version,) = _unpack("<H", f, path)
        if version != VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        (step,) = _unpack("<Q", f, path)
        (n_records,) = _unpack("<I", f, path)
        arrays = {}
        try:
            for _ in range(n_records):
                (name_len,) = _unpack("<H", f, path)
                name = _read(f, name_len, path).decode("utf-8")
                (ndim,) = _unpack("<B", f, path)
                shape = _unpack(f"<{ndim}I", f, path)
                data = np.frombuffer(_read(f, 8 * math.prod(shape), path), dtype="<f8")
                data = data.reshape(shape)
                if name in arrays:
                    raise DataError(f"{path}: record {name} appears twice")
                arrays[name] = data.copy()
            (rng_len,) = _unpack("<I", f, path)
            rng_state = json.loads(_read(f, rng_len, path).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise DataError(f"{path}: checkpoint text does not decode ({e})") from None
        if f.read(1):
            raise DataError(f"{path}: checkpoint has bytes past its RNG state")
    return step, arrays, rng_state
