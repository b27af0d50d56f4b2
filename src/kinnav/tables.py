"""Flat CSV tables: the one reader and writer behind every kinnav CSV file.

A table format is an ordered {column: type} dict. Floats are written with 6
significant digits; other values as they are. Reading matches columns by
name, ignores undeclared ones, and rejects a missing column or a row whose
length differs from the header's with a ValueError naming the file and line.
"""

import contextlib
import csv


def opened(path_or_stream, mode):
    """A stream as given (left open), or a path opened as text with newline=""."""
    if hasattr(path_or_stream, "write" if "w" in mode else "read"):
        return contextlib.nullcontext(path_or_stream)
    return open(path_or_stream, mode, newline="")


def write_table(path_or_stream, types, records):
    """A header row of the declared columns, then one row per record."""
    floats = [t is float for t in types.values()]
    with opened(path_or_stream, "w") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(types)
        for rec in records:
            writer.writerow([f"{rec[c]:.6g}" if fl else rec[c]
                             for c, fl in zip(types, floats)])


def read_table(path_or_stream, types):
    """Records as dicts of the declared columns, each converted to its type."""
    with opened(path_or_stream, "r") as f:
        name = getattr(f, "name", "<stream>")
        reader = csv.reader(f)
        header = next(reader, [])
        missing = [c for c in types if c not in header]
        if missing:
            raise ValueError(f"{name}: missing column(s) {', '.join(missing)}")
        columns = [(c, header.index(c), t) for c, t in types.items()]
        records = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                which = "few" if len(row) < len(header) else "many"
                raise ValueError(f"{name}: line {reader.line_num} has too {which} values")
            try:
                records.append({c: t(row[i]) for c, i, t in columns})
            except ValueError as exc:
                raise ValueError(f"{name}: line {reader.line_num}: {exc}") from None
        return records
