"""Reading and writing the small raster formats used by scene files.

Two formats are supported: ESRI ASCII grids (.asc) for elevation and
whitespace-separated 0/1 text grids for land-class masks.  Arrays are
returned indexed ``[y, x]`` with ``y = 0`` at the *bottom* row, matching
the scene coordinate convention (the .asc format lists rows north to
south, so rows are flipped on read/write).
"""
from __future__ import annotations

import warnings

import numpy as np

_ASC_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")

# a mask grid's digits, and whitespace as str.split() reads it
_MASK_BYTES = np.frombuffer(b"01 \t\n\v\f\r\x1c\x1d\x1e\x1f", dtype=np.uint8)


def read_esri_ascii(path) -> tuple[np.ndarray, np.ndarray, float]:
    """Read an ESRI ASCII grid.

    Returns ``(values, nodata_mask, cellsize)`` where ``values`` is a float64
    array of shape (nrows, ncols) indexed [y, x] with y=0 the southmost row,
    and ``nodata_mask`` is True where the cell held the NODATA value.  The body
    after the six header lines is read as one stream of whitespace-separated
    samples, ``nrows * ncols`` of them in all, row after row from the north;
    where a line ends does not matter.
    """
    header = {}
    with open(path) as fh:
        for _ in range(6):
            parts = fh.readline().split()
            if len(parts) != 2:
                raise ValueError(f"{path}: malformed .asc header line")
            header[parts[0].lower()] = float(parts[1])
        missing = [k for k in _ASC_HEADER_KEYS if k not in header]
        if missing:
            raise ValueError(f"{path}: .asc header missing {missing}")
        ncols, nrows = header["ncols"], header["nrows"]
        for key, size in (("ncols", ncols), ("nrows", nrows)):
            if not (size.is_integer() and size >= 1):
                raise ValueError(f"{path}: .asc {key} must be a positive integer, got {size!r}")
        ncols, nrows = int(ncols), int(nrows)
        nodata = header["nodata_value"]
        start = fh.tell()
        try:   # numpy's C parser, for bodies of rows of equal length
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # a body of no samples
                values = np.loadtxt(fh, dtype=np.float64, ndmin=2, comments=None)
        except ValueError:   # rows of unequal length, or a token loadtxt cannot read
            fh.seek(start)
            values = np.array(fh.read().split(), dtype=np.float64)
    if values.size != ncols * nrows:
        raise ValueError(
            f"{path}: expected {ncols * nrows} samples, found {values.size}"
        )
    values = values.reshape(nrows, ncols)[::-1]  # first file row is the northmost
    mask = values == nodata
    return values, mask, header["cellsize"]


def write_esri_ascii(path, values: np.ndarray, cell_size: float) -> None:
    """Write a [y, x] array (y=0 south) as an ESRI ASCII grid with its
    lower-left corner at the origin and NODATA value -9999.0."""
    values = np.asarray(values, dtype=np.float64)
    nrows, ncols = values.shape
    with open(path, "w") as fh:
        fh.write(f"ncols {ncols}\n")
        fh.write(f"nrows {nrows}\n")
        fh.write("xllcorner 0.0\n")
        fh.write("yllcorner 0.0\n")
        fh.write(f"cellsize {cell_size}\n")
        fh.write("NODATA_value -9999.0\n")
        for row in values[::-1]:
            fh.write(" ".join(repr(float(v)) for v in row))
            fh.write("\n")


def read_mask_grid(path) -> np.ndarray:
    """Read a whitespace-separated 0/1 grid into a bool array (True = 1).

    The first text row is the northmost row, mirroring the .asc layout.
    """
    with open(path) as fh:
        text = fh.read()   # every line end read as "\n"
    if not text.isascii():   # Unicode spaces separate tokens, as str.split() reads them
        text = "\n".join(" ".join(line.split()) for line in text.split("\n"))
    chars = np.frombuffer(text.encode(), dtype=np.uint8)
    digit = chars >= ord("0")   # every other byte allowed is whitespace
    if not np.isin(chars, _MASK_BYTES).all() or (digit[1:] & digit[:-1]).any():
        raise ValueError(f"{path}: mask entries must be 0 or 1")   # or two in one token
    widths = np.unique(np.cumsum(chars == ord("\n"))[digit], return_counts=True)[1]
    if not widths.size:
        raise ValueError(f"{path}: empty mask grid")
    if (widths != widths[0]).any():
        raise ValueError(f"{path}: ragged mask grid rows")
    return (chars[digit] == ord("1")).reshape(widths.size, widths[0])[::-1]


def write_mask_grid(path, mask: np.ndarray) -> None:
    mask = np.asarray(mask, dtype=bool)
    with open(path, "w") as fh:
        for row in mask[::-1]:
            fh.write(" ".join("1" if v else "0" for v in row))
            fh.write("\n")
