"""Reading and writing the small raster formats used by scene files.

Two formats are supported: ESRI ASCII grids (.asc) for elevation and
whitespace-separated 0/1 text grids for land-class masks.  Arrays are
returned indexed ``[y, x]`` with ``y = 0`` at the *bottom* row, matching
the scene coordinate convention (the .asc format lists rows north to
south, so rows are flipped on read/write).
"""
from __future__ import annotations

import numpy as np

_ASC_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def read_esri_ascii(path) -> tuple[np.ndarray, np.ndarray, float]:
    """Read an ESRI ASCII grid.

    Returns ``(values, nodata_mask, cellsize)`` where ``values`` is a float64
    array of shape (nrows, ncols) indexed [y, x] with y=0 the southmost row,
    and ``nodata_mask`` is True where the cell held the NODATA value.
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
        body = fh.read().split()
    if len(body) != ncols * nrows:
        raise ValueError(
            f"{path}: expected {ncols * nrows} samples, found {len(body)}"
        )
    values = np.array(body, dtype=np.float64).reshape(nrows, ncols)
    values = values[::-1]  # first file row is the northmost
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
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            cells = line.split()
            if any(c not in ("0", "1") for c in cells):
                raise ValueError(f"{path}: mask entries must be 0 or 1")
            rows.append([c == "1" for c in cells])
    if not rows:
        raise ValueError(f"{path}: empty mask grid")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: ragged mask grid rows")
    return np.array(rows[::-1], dtype=bool)


def write_mask_grid(path, mask: np.ndarray) -> None:
    mask = np.asarray(mask, dtype=bool)
    with open(path, "w") as fh:
        for row in mask[::-1]:
            fh.write(" ".join("1" if v else "0" for v in row))
            fh.write("\n")
