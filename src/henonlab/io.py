"""CSV and portable-graymap writers.  Every file carries a versioned header
line and floats are written with %.17g, so identical runs emit identical
bytes."""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import PreconditionError

_SCHEMA = "# henonlab-csv v1"
CSV_CHUNK = 4096  # rows formatted by one % and written at a time
_FORMATS = {"b": "%s", "U": "%s", "i": "%d", "u": "%d", "f": "%.17g", "c": "%.17g,%.17g"}
PGM_LEVELS = 255  # 8-bit gray


def write_csv(path, kind, header, columns):
    """CSV under the header ``# henonlab-csv v1 <kind>`` and the column line ``header``, from
    one array per column: ints as %d, floats as %.17g, complex values as two %.17g fields,
    bools and strings as %s; each CSV_CHUNK rows are one % over their tolist() values."""
    columns = [np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) > 1 or any(c.dtype.kind not in _FORMATS for c in columns):
        raise PreconditionError("CSV columns must be equal-length arrays of numbers, bools or strings")
    line = ",".join(_FORMATS[c.dtype.kind] for c in columns) + "\n"
    parts = [p for c in columns for p in ((c.real, c.imag) if c.dtype.kind == "c" else (c,))]
    with open(path, "w") as fh:
        fh.write(f"{_SCHEMA} {kind}\n{header}\n")
        for i in range(0, len(columns[0]) if columns else 0, CSV_CHUNK):
            chunk = tuple(chain.from_iterable(zip(*(p[i:i + CSV_CHUNK].tolist() for p in parts))))
            fh.write(line * (len(chunk) // len(parts)) % chunk)


def write_pgm(path, values):
    """8-bit P5 graymap of a 2-D array of gray levels, integers in 0 .. 255."""
    img = np.asarray(values)
    if img.ndim != 2:
        raise PreconditionError("graymap needs a 2-D array")
    if not np.isin(img, np.arange(PGM_LEVELS + 1)).all():
        raise PreconditionError(f"graymap levels must be integers in 0 .. {PGM_LEVELS}")
    img = img.astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n# henonlab v1\n%d %d\n%d\n" % (img.shape[1], img.shape[0], PGM_LEVELS))
        fh.write(img.tobytes())
