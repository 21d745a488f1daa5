"""CSV and portable-graymap writers.  Every file carries a versioned header
line and floats are written with %.17g, so identical runs emit identical
bytes."""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

_SCHEMA = "# henonlab-csv v1"
PGM_LEVELS = 255  # 8-bit gray


def _field(v):
    """A float as one %.17g field, a complex value as two, anything else by str."""
    if isinstance(v, complex):
        return "%.17g,%.17g" % (v.real, v.imag)
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def write_csv(path, kind, columns, rows):
    """CSV under the header ``# henonlab-csv v1 <kind>`` and the column line."""
    with open(path, "w") as fh:
        fh.write(f"{_SCHEMA} {kind}\n{columns}\n")
        fh.writelines(",".join(map(_field, row)) + "\n" for row in rows)


def write_pgm(path, values):
    """8-bit P5 graymap from a 2-D array scaled to its own range."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise PreconditionError("graymap needs a 2-D array")
    lo, hi = float(np.min(arr)), float(np.max(arr))
    span = hi - lo if hi > lo else 1.0
    img = np.round((arr - lo) / span * PGM_LEVELS).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n# henonlab v1\n%d %d\n%d\n" % (img.shape[1], img.shape[0], PGM_LEVELS))
        fh.write(img.tobytes())
