"""The two file formats genharm reads and writes: JSON and CSV.

JSON is written strictly, indented by 2, with a closing newline; data holding
a NaN or infinity is a :class:`ConfigurationError` and writes nothing. A file
that does not decode to a JSON value is a :class:`ConfigurationError` too.
CSV is written with the bytes of ``csv.writer``'s default dialect: ``,``
separators, ``\r\n`` line ends, and no quoting, which a number never needs.
Every field is written by ``repr``, a float's shortest lossless form, so rows
must hold Python scalars: numpy 2 reprs a float64 as ``np.float64(0.5)``.
``read_csv`` is its inverse: any line end, empty lines skipped, fields padded
by whitespace allowed, every field a float literal (``nan`` and ``inf``
included); quoted fields, ``#`` comments and a line of only spaces or tabs
(a row with the wrong field count to ``np.loadtxt``) are not. The only CSV genharm
reads is a signal, so a file it cannot read is an :class:`InvalidSignalError`.
"""

from __future__ import annotations

import json
import warnings
from itertools import chain

import numpy as np

from .errors import ConfigurationError, InvalidSignalError


def write_json(data, path) -> None:
    try:
        text = json.dumps(data, indent=2, allow_nan=False)
    except ValueError as exc:  # a non-finite float
        raise ConfigurationError(f"{path}: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and UnicodeDecodeError
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc


def write_csv(path, header, rows) -> None:
    """Write the header line, then one line per row of ints or floats."""
    values = tuple(chain.from_iterable(rows))
    # one formatting call over every field: as fast as a per-row f-string
    line = ",".join(["%r"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + line * (len(values) // len(header)) % values)


def read_csv(path, header) -> np.ndarray:
    """The rows under the header line as an (m, len(header)) float array."""
    try:
        with open(path) as fh:
            if [field.strip() for field in fh.readline().split(",")] != list(header):
                raise InvalidSignalError(f"{path}: expected header {','.join(header)!r}")
            with warnings.catch_warnings():
                # a header-only file is m = 0, which the caller judges
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        # a wrong field count, a field that is no float literal, or (as
        # UnicodeDecodeError) bytes that are not text
        raise InvalidSignalError(f"{path}: unreadable CSV: {exc}") from exc
    if rows.size and rows.shape[1] != len(header):
        raise InvalidSignalError(f"{path}: rows have {rows.shape[1]} fields, not {len(header)}")
    return rows.reshape(-1, len(header))
