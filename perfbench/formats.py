"""The benchmark's own readers and writers for the files treesense exchanges.

They follow the formats documented in the README (binary P5 PGM, the `.lasr`
dictionary container, the shared CSV schema) and import nothing from
treesense, so the checks cannot inherit a defect of the library's own I/O.
"""

import csv
import io
import struct

import numpy as np

LASR_MAGIC = b"LASR"
LASR_VERSION = 1
_LASR_HEADER = struct.Struct("<HIIII")


def write_pgm16(path, img):
    """Write a [0, 1] image as a 16-bit binary PGM (big-endian samples)."""
    pix = np.clip(np.rint(np.asarray(img) * 65535), 0, 65535).astype(">u2")
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n65535\n" % (img.shape[1], img.shape[0]))
        f.write(pix.tobytes())
    return pix.astype(float) / 65535


def write_lasr(path, atoms, mean, d, L):
    """Write the `.lasr` container: magic, u16 version, u32 n/p/d/L, the
    length-n mean and the column-major n x p atoms, all little-endian."""
    n, p = atoms.shape
    with open(path, "wb") as f:
        f.write(LASR_MAGIC)
        f.write(_LASR_HEADER.pack(LASR_VERSION, n, p, d, L))
        f.write(np.asarray(mean, dtype="<f8").tobytes())
        f.write(np.asarray(atoms, dtype="<f8").tobytes(order="F"))


def read_lasr(data):
    """Parse `.lasr` bytes into (n, p, d, L, mean, atoms); ValueError on any
    size mismatch, so a truncated or padded file is reported, not misread."""
    head = len(LASR_MAGIC) + _LASR_HEADER.size
    if len(data) < head or data[:4] != LASR_MAGIC:
        raise ValueError("not a .lasr container (bad magic or short header)")
    version, n, p, d, L = _LASR_HEADER.unpack_from(data, 4)
    if version != LASR_VERSION:
        raise ValueError(f"unsupported .lasr version {version}")
    expected = head + 8 * n + 8 * n * p
    if len(data) != expected:
        raise ValueError(f".lasr holds {len(data)} bytes, header implies {expected}")
    mean = np.frombuffer(data, "<f8", n, head)
    atoms = np.frombuffer(data, "<f8", n * p, head + 8 * n).reshape((n, p), order="F")
    return n, p, d, L, mean, atoms


def read_csv_rows(data):
    """Parse CSV bytes into (header, list of dict rows)."""
    reader = csv.reader(io.StringIO(data.decode()))
    header = next(reader, [])
    return header, [dict(zip(header, row)) for row in reader]
