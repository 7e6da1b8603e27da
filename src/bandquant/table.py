"""The one writer of bandquant's table files: comma-separated values, floats
as ``%.17g`` (so every value round-trips exactly), ints as ``%d``, after
optional ``# bandquant-<kind> v1 key=value`` lines.  Report dataclasses get
their header, row and ``name = value`` text from their fields, and a field's
``metadata={"conversion": ...}`` overrides its type's."""

import dataclasses

import numpy as np

# Rows formatted per write: bounds the temporary value list and string.
_WRITE_CHUNK = 1 << 12

# Conversion per type name (report dataclasses use postponed annotations).
_CONVERSION = {"str": "%s", "int": "%d", "float": "%.17g"}


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


def write_columns(path, header_lines, columns, row_format):
    """Write the header lines, then one row_format line per row of the
    equal-length columns, _WRITE_CHUNK rows at a time by a single ``%``."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in header_lines)
        for start in range(0, len(columns[0]) if columns else 0, _WRITE_CHUNK):
            chunk = [c[start : start + _WRITE_CHUNK].tolist() for c in columns]
            flat = [None] * (len(chunk) * len(chunk[0]))
            for j, values in enumerate(chunk):
                flat[j :: len(chunk)] = values
            fh.write((row_format + "\n") * len(chunk[0]) % tuple(flat))


def _layout(record):
    """(name, conversion) of each field of a report dataclass or instance."""
    return [
        (f.name, f.metadata.get("conversion") or _CONVERSION[f.type])
        for f in dataclasses.fields(record)
    ]


def record_header(cls):
    """CSV header of a report dataclass: its field names."""
    return ",".join(name for name, _ in _layout(cls))


def record_row(record):
    """CSV row of one report."""
    return ",".join(conv % getattr(record, name) for name, conv in _layout(record))


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
