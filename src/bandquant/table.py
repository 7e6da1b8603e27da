"""The one writer of bandquant's table files: comma-separated values, floats
as ``%.17g`` (so every value round-trips exactly), ints as ``%d``, after
optional ``# bandquant-<kind> v1 key=value`` lines.  Report dataclasses get
their header, row and ``name = value`` text from their fields, and a field's
``metadata={"conversion": ...}`` overrides its type's.

``write_columns`` writes chunks of fewer than _NUMPY_ROWS rows by one ``%``
over the row format, and formats the columns of longer chunks in numpy,
byte-identical to ``%``.  For a float64 x with 1e-4 <= |x| < 1e16, ``%.17g`` prints fixed notation
with the 17 digits D = round-half-even(|x| 10^(16-k)), k = floor(log10 |x|).
Every 10^s with s <= 22 is an exact double, so Dekker's product (Veltkamp
split by 2^27 + 1) gives |x| 10^(16-k) exactly as hi + lo; hi >= 2^53 is an
even integer, so D = hi + rint(lo).  A log10 that is one too small gives
D >= 10^17, and one that is one too large gives D < 10^16: no double lies
within 5e-17 below a power of ten in that range, where the rounding could
reach 10^16.  The digits are then laid out for their exponent: the point
inserted, trailing zeros (and a bare point) cut, the sign put in front.  An
int64 i with |i| < 10^17 is written digit by digit without leading zeros.
Every other value (0, -0, |x| < 1e-4, |x| >= 1e16, NaN, +-inf, a D outside
[10^16, 10^17), which happens only within a few dozen doubles of a power of
ten, and |i| >= 10^17), every column of another dtype and every other
conversion, such as ``%s`` or ``%.3f``, goes through ``%`` one value at a
time.  Cells are padded with NUL bytes, which are cut from each chunk of
rows before it is written, so no cell may hold a NUL.
"""

import dataclasses

import numpy as np

# Rows formatted per write: bounds the temporary cell matrices.
_WRITE_CHUNK = 1 << 12

# Below this many rows one ``%`` over the whole chunk is faster than the
# numpy path, whose fixed cost is about 1 ms for four columns.
_NUMPY_ROWS = 512

# Conversion per type name (report dataclasses use postponed annotations).
_CONVERSION = {"str": "%s", "int": "%d", "float": "%.17g"}

# 10^0 ... 10^22, every one an exact double.
_POW10 = np.array([float(10**s) for s in range(23)])

# "0000" ... "9999" as uint32, so that one gather writes four ASCII digits.
_QUADS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_QUADS = np.stack(np.meshgrid(*[_QUADS] * 4, indexing="ij"), -1).view(np.uint32).ravel()

# Ints below 10^17 take the digit path; 10^1 ... 10^16 count their digits.
_INT_LIMIT = 10**17
_INT_POW10 = 10 ** np.arange(1, 17, dtype=np.int64)

# A float cell is 39 bytes: a head of 6, then the 17 digits with a place
# for the point after each of the first 16.  _HEADS[5 * sign + z] is the
# sign, then "0." and z - 1 zeros for exponent k = -z < 0.  _KEEP[c] keeps
# the digits up to place c.  Bytes a value does not use stay NUL.
_HEADS = np.array(
    [sign + ("0." + "0" * (z - 1) if z else "") for sign in ("", "-") for z in range(5)],
    dtype="S6",
).view(np.uint8).reshape(10, 6)
_KEEP = np.arange(17) <= np.arange(17)[:, None]
_FLOAT_WIDTH = 6 + 17 + 16


def row_format_for(*types):
    """Row format of columns of the given types, as in row_format_for(int, float)."""
    return ",".join(_CONVERSION[t.__name__] for t in types)


def meta_line(kind, **values):
    """``# bandquant-<kind> v1 key=value ...``: floats as ``%.17g``, None as ``none``."""
    items = [f"# bandquant-{kind} v1"]
    for key, value in values.items():
        if isinstance(value, float):
            value = _CONVERSION["float"] % value
        items.append(f"{key}={'none' if value is None else value}")
    return " ".join(items)


def _split(a):
    """Veltkamp's split of a into halves of at most 26 bits: a = hi + lo."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(v, k):
    """round-half-even(v 10^(16-k)) as int64, exact where the product is >= 2^53."""
    s = 16 - k
    hi = v * _POW10[s]
    vh, vl = _split(v)
    ph, pl = _POW10_HI[s], _POW10_LO[s]
    lo = ((vh * ph - hi) + vh * pl + vl * ph) + vl * pl
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _digits(a, width):
    """ASCII of the last width decimal digits of non-negative int64 a, one row each."""
    quads = np.empty((a.size, -(-width // 4)), np.uint32)
    for j in range(quads.shape[1] - 1, -1, -1):
        a, rest = np.divmod(a, 10000)
        quads[:, j] = np.take(_QUADS, rest)
    return quads.view(np.uint8)[:, quads.shape[1] * 4 - width :]


def _percent_cells(conversion, values):
    """``conversion % v`` of each value, NUL-padded to the longest."""
    text = (conversion + "\0") * len(values) % tuple(values.tolist())
    cells = np.array(text.encode().split(b"\0")[:-1], dtype=bytes)
    return cells.view(np.uint8).reshape(len(values), -1)


def _with_fallback(cells, slow, conversion, values):
    """cells, with the rows flagged slow replaced by ``conversion % value``."""
    rows = np.flatnonzero(slow)
    if rows.size:
        exact = _percent_cells(conversion, values[rows])
        if exact.shape[1] > cells.shape[1]:
            cells = np.pad(cells, ((0, 0), (0, exact.shape[1] - cells.shape[1])))
        cells[rows] = 0
        cells[rows, : exact.shape[1]] = exact
    return cells


def _float_cells(x):
    """``%.17g`` cells of float64 x."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    v = np.where(fast, a, 1.0)
    k = np.floor(np.log10(v)).astype(np.int64)
    d = _scaled(v, k)
    fast &= (d >= 10**16) & (d < 10**17)
    # Rows off the fast path are laid out as 1 and overwritten below.
    k[~fast], d[~fast] = 0, 10**16
    digits = _digits(d, 17)
    # Cut the zeros after the last nonzero digit that are not in the integer
    # part, and the point when nothing follows it.
    last = 16 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    digits *= np.take(_KEEP, np.maximum(last, k), axis=0)
    point = np.where(last > k, k, -1)
    cells = np.zeros((x.size, _FLOAT_WIDTH), np.uint8)
    cells[:, :6] = np.take(_HEADS, 5 * np.signbit(x) + np.maximum(-k, 0), axis=0)
    cells[:, 6::2] = digits
    cells[np.arange(x.size), 7 + 2 * np.maximum(point, 0)] = (point >= 0) * ord(".")
    return _with_fallback(cells, ~fast, "%.17g", x)


def _int_cells(i):
    """``%d`` cells of int64 i."""
    slow = (i >= _INT_LIMIT) | (i <= -_INT_LIMIT)
    a = np.abs(np.where(slow, 0, i))
    width = len(str(a.max()))
    lead = width - 1 - np.searchsorted(_INT_POW10, a, side="right")
    cells = np.empty((i.size, 1 + width), np.uint8)
    cells[:, 0] = (i < 0) * ord("-")
    cells[:, 1:] = _digits(a, width)
    cells[:, 1:][np.arange(width) < lead[:, None]] = 0
    return _with_fallback(cells, slow, "%d", i)


def _cells(conversion, values):
    """(rows, width) uint8 cells of one column chunk, NUL-padded."""
    if conversion == "%.17g" and values.dtype == np.float64:
        return _float_cells(values)
    if conversion == "%d" and values.dtype.kind == "i":
        return _int_cells(values.astype(np.int64))
    return _percent_cells(conversion, values)


def write_columns(path, header_lines, columns, row_format):
    """Write the header lines, then one row_format line per row of the
    equal-length columns.  row_format is one ``%`` conversion per column,
    joined by commas.  Each chunk of _WRITE_CHUNK rows is written by one
    ``%`` when it is short, and otherwise as one byte matrix of cells,
    commas and newlines, from which the NUL padding is cut."""
    columns = [np.asarray(c) for c in columns]
    conversions = row_format.split(",") if columns else []
    if len(conversions) != len(columns):
        raise ValueError(f"row format {row_format!r} does not fit {len(columns)} columns")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in header_lines)
        for start in range(0, len(columns[0]) if columns else 0, _WRITE_CHUNK):
            chunk = [c[start : start + _WRITE_CHUNK] for c in columns]
            if chunk[0].size < _NUMPY_ROWS:
                flat = [None] * (len(chunk) * chunk[0].size)
                for j, c in enumerate(chunk):
                    flat[j :: len(chunk)] = c.tolist()
                fh.write((row_format + "\n") * chunk[0].size % tuple(flat))
                continue
            parts = []
            for conversion, c in zip(conversions, chunk):
                cells = _cells(conversion, c)
                parts += [cells, np.full((cells.shape[0], 1), ord(","), np.uint8)]
            parts[-1][:] = ord("\n")
            rows = np.concatenate(parts, axis=1).tobytes()
            fh.write(rows.translate(None, b"\0").decode("utf-8"))


def _layout(record):
    """(name, conversion) of each field of a report dataclass or instance."""
    return [
        (f.name, f.metadata.get("conversion") or _CONVERSION[f.type])
        for f in dataclasses.fields(record)
    ]


def record_header(cls):
    """CSV header of a report dataclass: its field names."""
    return ",".join(name for name, _ in _layout(cls))


def record_text(record):
    """One ``name        = value`` line per field of a report."""
    return "\n".join(
        f"{name:<12}= {conv % getattr(record, name)}" for name, conv in _layout(record)
    )


def write_records(path, cls, records):
    """CSV file of reports of one dataclass, column-wise: header, then one row each."""
    layout = _layout(cls)
    columns = [[getattr(r, name) for r in records] for name, _ in layout]
    write_columns(path, [record_header(cls)], columns, ",".join(conv for _, conv in layout))
