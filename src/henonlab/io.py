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
