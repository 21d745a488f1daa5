"""CSV and portable-graymap writers.  Every file carries a versioned header
line and floats are written with %.17g, so identical runs emit identical
bytes."""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

_SCHEMA = "# henonlab-csv v1"


def write_csv(path, kind, columns, rows):
    """CSV under the header ``# henonlab-csv v1 <kind>`` and the column line.

    A float is one %.17g field, a complex value fills two (real, imaginary),
    anything else is written with str.  Each row is one %-format, built once
    per sequence of value types."""
    formats = {}

    def line(row):
        # built at its size: tuple(map(...)) resizes its tuple, and the
        # interpreter then keeps up to 2000 of them on a free list
        kinds = (*map(type, row),)
        if kinds not in formats:
            fields = ("%.17g,%.17g" if issubclass(k, complex) else "%.17g" if issubclass(k, float)
                      else "%s" for k in kinds)
            formats[kinds] = (",".join(fields) + "\n",
                              [i for i, k in enumerate(kinds) if issubclass(k, complex)][::-1])
        fmt, complex_at = formats[kinds]
        if complex_at:
            row = list(row)
            for i in complex_at:  # right to left, so that the indices stay valid
                row[i:i + 1] = row[i].real, row[i].imag
        return fmt % tuple(row)

    with open(path, "w") as fh:
        fh.write(f"{_SCHEMA} {kind}\n{columns}\n")
        fh.writelines(map(line, rows))


def write_pgm(path, values, levels: int = 255):
    """8-bit P5 graymap from a 2-D array scaled to its own range."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise PreconditionError("graymap needs a 2-D array")
    lo, hi = float(np.min(arr)), float(np.max(arr))
    span = hi - lo if hi > lo else 1.0
    img = np.round((arr - lo) / span * levels).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n# henonlab v1\n%d %d\n%d\n" % (img.shape[1], img.shape[0], levels))
        fh.write(img.tobytes())
