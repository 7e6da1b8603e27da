"""The one writer of bandquant's table files: comma-separated values, floats
as ``%.17g`` (so every value round-trips exactly), ints as ``%d``, after
optional ``# bandquant-<kind> v1 key=value`` lines.  ``write_columns`` takes
each column's conversion from its dtype: ``%d`` for an int kind, ``%.17g``
for float64, and a TypeError for any other.  Report dataclasses get their
header, row and ``name = value`` text from their fields, and a field's
``metadata={"conversion": ...}`` overrides its type's; ``write_records``
formats their few rows by ``%`` one field at a time, so other conversions,
such as ``%s`` or ``%.3f``, occur only there.

``write_columns`` writes chunks of fewer than _NUMPY_ROWS rows by one ``%``
over the row's conversions, and formats the columns of longer chunks in numpy,
byte-identical to ``%``, into one byte matrix per chunk.  For a float64 x
with 1e-4 <= |x| < 1e16, ``%.17g`` prints fixed notation with the 17 digits
D = round-half-even(|x| 10^(16-k)), k = floor(log10 |x|).  Every 10^s with
s <= 22 is an exact double, so Dekker's product (Veltkamp split by 2^27 + 1)
gives |x| 10^(16-k) exactly as hi + lo; hi >= 2^53 is an even integer, so
D = hi + rint(lo).  A log10 that is one too small gives D >= 10^17, and one
that is one too large gives D < 10^16: no double lies within 5e-17 below a
power of ten in that range, where the rounding could reach 10^16.

One int64 division by 10^8 splits D; float quotients by 10^8 and 10^4 then
give its lead digit and four groups of four digits, exactly, since each
quotient lies at least 10^-8 below the next integer.  A gather from a table
of "0000" ... "9999" writes a group, and one from a table of the zeros that
each group ends with counts D's trailing zeros.  A float cell is 24 bytes,
three little-endian uint64 words: the sign at byte 0, "0." and -k - 1 zeros
ending at byte 6 when k < 0, and the 17 digits from byte 7.  Masks on the
words cut the trailing zeros that are not in the integer part (and so a
bare point); when digits follow the point, the integer digits move one byte
down and the point takes their last byte.  An int64 i with |i| < 10^17 is
written by the same groups, from a table whose groups lose their leading
zeros where no nonzero digit comes before them.  Every other value (0, -0,
|x| < 1e-4, |x| >= 1e16, NaN, +-inf, a D outside [10^16, 10^17), which
happens only within a few dozen doubles of a power of ten, and
|i| >= 10^17) goes through ``%`` one value at a time.  Cells
are padded with NUL bytes, which are cut from each chunk of rows before it
is written, so no cell may hold a NUL.
"""

import dataclasses

import numpy as np

# Rows formatted per write: bounds the temporary cell matrices.
_WRITE_CHUNK = 1 << 12

# Below this many rows one ``%`` over the whole chunk costs about as much as
# the numpy path or less; the numpy path's fixed cost is about 0.3 ms.  For an
# int and three float columns (median of 41 writes, 2 cores, numpy 2.4.6),
# 200 rows take 0.27 ms by ``%`` and 0.38 ms in numpy, 400 rows 0.49 and
# 0.45 ms.  The crossover lies between 300 and 400 rows, and no benchmark
# workload writes a chunk of 300 to 511 rows.
_NUMPY_ROWS = 512

# Conversion per type name (report dataclasses use postponed annotations).
_CONVERSION = {"str": "%s", "int": "%d", "float": "%.17g"}

# 10^0 ... 10^22, every one an exact double.
_POW10 = np.array([float(10**s) for s in range(23)])

# "0000" ... "9999" as uint32, so that one gather writes four ASCII digits.
_QUADS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_QUADS = np.stack(np.meshgrid(*[_QUADS] * 4, indexing="ij"), -1).view(np.uint32).ravel()

# Ints below 10^17 take the digit path.  _INT_GROUPS[g] is _QUADS[g],
# _INT_GROUPS[10^4 + g] the same without leading zeros (all NUL for 0), for
# a group with no nonzero digit above it, and _INT_GROUPS[2 10^4] a lone 0.
_INT_LIMIT = 10**17
_INT_GROUPS = _QUADS.view(np.uint8).reshape(-1, 4).copy()
for _digit, _below in enumerate((1000, 100, 10, 1)):
    _INT_GROUPS[:_below, _digit] = 0
_INT_GROUPS = np.concatenate(
    [_QUADS, _INT_GROUPS.view(np.uint32).ravel(), np.frombuffer(b"\0\0\x000", np.uint32)]
)


def _words(rows, width):
    """Byte strings, NUL-padded to width bytes, as little-endian uint64
    words: one row per word of a string, one column per string."""
    words = np.array(rows, dtype=f"S{width}").view("<u8").astype(np.uint64)
    return words.reshape(len(rows), -1).T


# Float cell words, indexed by the values named in the module docstring.
# _HEADS[20 sign + k + 4] is word 0 without the lead digit and _LEADS[d]
# the lead digit d at byte 7; _GROUPS[g] puts the four digits of g in the
# low half of a word and _GROUPS_HIGH[g] in the high half.
_HEADS = _words(
    [(b"-" if sign else b"\0") + (b"0." + b"0" * (-k - 1) if k < 0 else b"").rjust(6, b"\0")
     for sign in (0, 1) for k in range(-4, 16)],
    8,
)[0]
_LEADS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64) << np.uint64(56)
_GROUPS = _QUADS.view("<u4").astype(np.uint64)
_GROUPS_HIGH = _GROUPS << np.uint64(32)

# The zeros that 0 ... 9999 end with, as four digits: 4 for 0.
_TRAILING_ZEROS = np.zeros(10**4, np.uint8)
for _step in (10, 100, 1000, 10000):
    _TRAILING_ZEROS[::_step] += 1

# _KEEP[:, c] masks words 1 and 2 to the digits before the last c.  With the
# point after digit k, _INTEGER[:, k] masks the integer digits (bytes 7 ...
# 7 + k) and _POINT[:, k] is the point at byte 7 + k; column 16 is all zero.
_KEEP = _words([b"\xff" * (16 - c) for c in range(17)], 16)
_INTEGER = _words([b"\0" * 7 + b"\xff" * (k + 1) for k in range(16)] + [b""], 24)
_POINT = _words([b"\0" * (7 + k) + b"." for k in range(16)] + [b""], 24)


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


def _groups(h):
    """The upper and lower four digits of float integers h < 10^8: exact,
    since h / 10^4 lies at least 10^-4 below the next integer."""
    upper = np.floor(h / 1e4)
    return upper.astype(np.intp), (h - upper * 1e4).astype(np.intp)


def _float_cells(x):
    """``%.17g`` cells of float64 x."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    v = np.where(fast, a, 1.0)
    k = np.floor(np.log10(v)).astype(np.intp)
    d = _scaled(v, k)
    fast &= (d >= 10**16) & (d < 10**17)
    # Rows off the fast path are laid out as 1 and overwritten below.
    k[~fast], d[~fast] = 0, 10**16
    # D = lead 10^16 + upper 10^8 + lower; each half is two groups of four.
    top = d // 10**8
    g = _groups((d - top * 10**8).astype(float))
    top = top.astype(float)
    lead = np.floor(top / 1e8)
    g = _groups(top - lead * 1e8) + g
    # Cut the zeros after the last nonzero digit that are not in the
    # integer part (digits 0 ... k).
    zeros = np.take(_TRAILING_ZEROS, g[0])
    for group in g[1:]:
        zeros = np.where(group == 0, zeros + 4, np.take(_TRAILING_ZEROS, group))
    cut = np.minimum(zeros, 16 - k)
    cells = np.empty((x.size, 3), "<u8")
    words = cells.T
    words[0] = np.take(_HEADS, 20 * np.signbit(x) + k + 4)
    words[0] |= np.take(_LEADS, lead.astype(np.intp))
    for word, first, second, keep in zip(words[1:], g[::2], g[1::2], _KEEP):
        word[:] = np.take(_GROUPS, first) | np.take(_GROUPS_HIGH, second)
        word &= np.take(keep, cut)
    point = (k >= 0) & (cut < 16 - k)
    if point.any():
        # Shift the integer digits one byte down, a right shift by 8 of the
        # 192-bit little-endian cell, and put the point after them.
        at = np.where(point, k, 16)
        integer = words & np.take(_INTEGER, at, axis=1)
        words ^= integer
        words |= integer >> np.uint64(8)
        words[:2] |= integer[1:] << np.uint64(56)
        words |= np.take(_POINT, at, axis=1)
    return _with_fallback(cells.view(np.uint8), ~fast, "%.17g", x)


def _int_cells(i):
    """``%d`` cells of int64 i."""
    slow = (i >= _INT_LIMIT) | (i <= -_INT_LIMIT)
    a = np.abs(np.where(slow, 0, i))
    width = len(str(a.max()))
    groups = -(-width // 4)
    # A word for the sign, then the groups, the most significant first.
    quads = np.empty((i.size, 1 + groups), np.uint32)
    quads[:, 0] = 0
    rest = a
    for j in range(groups, 0, -1):
        rest, group = np.divmod(rest, 10000)
        group += 10000 * (rest == 0)
        if j == groups:
            group += 10000 * (a == 0)
        quads[:, j] = np.take(_INT_GROUPS, group)
    # No value has more than width digits, so the byte before the last
    # width bytes is NUL in every row: the sign goes there.
    cells = quads.view(np.uint8)[:, 3 + 4 * groups - width :]
    cells[:, 0] = (i < 0) * ord("-")
    return _with_fallback(cells, slow, "%d", i)


def _conversion(column):
    """``%d`` for an int column, ``%.17g`` for a float64 one."""
    if column.dtype.kind == "i":
        return _CONVERSION["int"]
    if column.dtype == np.float64:
        return _CONVERSION["float"]
    raise TypeError(f"no table conversion for a column of dtype {column.dtype}")


def write_columns(path, header_lines, columns):
    """Write the header lines, then one line per row of the equal-length
    int or float64 columns.  Each chunk of _WRITE_CHUNK rows is written by
    one ``%`` when it is short, and otherwise as one byte matrix of cells,
    commas and newlines, from which the NUL padding is cut."""
    columns = [np.asarray(c) for c in columns]
    row_format = ",".join(_conversion(c) for c in columns)
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
            cells = [
                _float_cells(c) if c.dtype == np.float64 else _int_cells(c.astype(np.int64))
                for c in chunk
            ]
            ends = np.cumsum([c.shape[1] + 1 for c in cells])
            rows = np.empty((chunk[0].size, ends[-1]), np.uint8)
            for c, end in zip(cells, ends):
                rows[:, end - 1 - c.shape[1] : end - 1] = c
                rows[:, end - 1] = ord(",")
            rows[:, -1] = ord("\n")
            fh.write(rows.tobytes().translate(None, b"\0").decode("utf-8"))


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
    """CSV file of reports of one dataclass: header, then one row each."""
    layout = _layout(cls)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(record_header(cls) + "\n")
        fh.writelines(
            ",".join(conv % getattr(r, name) for name, conv in layout) + "\n" for r in records
        )
