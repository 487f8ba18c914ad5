"""Reading and writing long-format count files and run configuration.

The count format is a UTF-8 CSV, with or without a byte-order mark, whose
header names the variables followed by a literal ``count`` column; each
row carries one category label per variable and a nonnegative number.
Category order is first appearance in the file unless a config supplies an
explicit order.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import InputError
from .table import NOMINAL, TREATMENTS, CategoryScheme, SparseTable, VariableDef, _first

__all__ = ["VariableConfig", "RunConfig", "read_config", "read_counts", "write_counts", "load_table"]

# csv records parsed and checked at a time.  A block's raw fields stay alive
# until it is coded, so a smaller block holds less memory; below about a
# hundred records the per-block numpy calls start to cost time.
_READ_BLOCK_ROWS = 128


@dataclass(frozen=True)
class VariableConfig:
    name: str
    categories: tuple[str, ...] | None = None
    treatment: str = NOMINAL


@dataclass(frozen=True)
class RunConfig:
    """Per-variable configuration: optional explicit category order plus the
    collapsing treatment.  Variables are matched to data columns by name."""

    variables: tuple[VariableConfig, ...]

    def by_name(self) -> dict[str, VariableConfig]:
        return {v.name: v for v in self.variables}


def read_config(path) -> RunConfig:
    """Parse a JSON config: ``{"variables": [{"name": ..., "categories":
    [...], "treatment": "nominal"}, ...]}``; categories and treatment are
    optional.  The file is UTF-8, with or without a byte-order mark."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise InputError(
            f"config {path} is not valid UTF-8 text ({_first_undecodable(path)})") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("variables"), list):
        raise InputError(f"config {path} must be an object with a 'variables' list")
    out = []
    for i, entry in enumerate(doc["variables"]):
        if not isinstance(entry, dict) or "name" not in entry:
            raise InputError(f"config variable #{i} must be an object with a 'name'")
        name = str(entry["name"])
        cats = entry.get("categories")
        if cats is not None:
            if not isinstance(cats, list) or not all(isinstance(c, str) for c in cats):
                raise InputError(f"config variable {name!r}: categories must be a list of strings")
            if len(set(cats)) != len(cats):
                raise InputError(f"config variable {name!r}: duplicate categories")
            cats = tuple(cats)
        treatment = entry.get("treatment", NOMINAL)
        if treatment not in TREATMENTS:
            raise InputError(
                f"config variable {name!r}: treatment must be one of {TREATMENTS}")
        out.append(VariableConfig(name=name, categories=cats, treatment=treatment))
    names = [v.name for v in out]
    if len(set(names)) != len(names):
        raise InputError("config lists a variable twice")
    return RunConfig(variables=tuple(out))


def read_counts(path, config: RunConfig | None = None):
    """Read a long-format counts CSV.

    The file is UTF-8, with or without a byte-order mark.  Labels and the
    header are stripped of surrounding whitespace; blank and whitespace-only
    lines are skipped.  Returns ``(names, categories, entries)`` where
    ``categories`` holds the ordered label list per variable and ``entries``
    the ``(coordinates, count)`` pairs, one per data record, as tuples of
    Python ints and a Python float.  Errors are :class:`InputError`; a bad
    data record is named by its record number (the header is record 1), and
    text that is not UTF-8 by its line.
    """
    names, categories, coords, counts = _read_columns(path, config)
    entries = list(zip(map(tuple, coords.tolist()), counts.tolist()))
    return names, categories, entries


def load_table(path, config: RunConfig | None = None) -> tuple[CategoryScheme, SparseTable]:
    """Read a counts file (the format of :func:`read_counts`) into a scheme
    and table, applying the config's category orders and treatments.
    Duplicate records are summed and zero counts dropped."""
    names, categories, coords, counts = _read_columns(path, config)
    cfg = config.by_name() if config is not None else {}
    variables = []
    for k, name in enumerate(names):
        vc = cfg.get(name)
        cats = categories[k]
        treatment = vc.treatment if vc is not None else NOMINAL
        if not cats:
            raise InputError(f"{path}: variable {name!r} has no categories (empty data)")
        variables.append(VariableDef(name=name, categories=tuple(cats), treatment=treatment))
    scheme = CategoryScheme(tuple(variables))
    return scheme, SparseTable(scheme.shape, coords, counts)


def _read_columns(path, config: RunConfig | None):
    """Parse a counts CSV into ``(names, categories, coords, counts)``: the
    variable names, the ordered labels of each variable, an ``(n, K)`` intp
    array of category codes and the ``n`` float64 counts, one row per data
    record.

    Records are read ``_READ_BLOCK_ROWS`` at a time and checked a block at a
    time, so memory stays bounded by the arrays plus one block.
    """
    path = Path(path)
    try:
        fh = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with fh:
        try:
            reader = csv.reader(fh)
            columns = _Columns(path, *_read_header(path, reader, config))
            record = 2
            while rows := list(islice(reader, _READ_BLOCK_ROWS)):
                columns.add(rows, record)
                record += len(rows)
        except UnicodeDecodeError:
            raise InputError(
                f"{path}: not valid UTF-8 text ({_first_undecodable(path)})") from None
    return columns.finish()


def _read_header(path, reader, config):
    """The variable names and, per variable, the configured label -> code
    map or ``None`` when its order is first appearance."""
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{path}: empty file (no header)") from None
    header = [h.strip() for h in header]
    if len(header) < 2 or header[-1] != "count":
        raise InputError(f"{path}: header must be variable names followed by 'count'")
    names = header[:-1]
    if len(set(names)) != len(names):
        raise InputError(f"{path}: duplicate variable names in header")

    fixed_order: list[dict[str, int] | None] = [None] * len(names)
    if config is not None:
        cfg = config.by_name()
        unknown = set(n.name for n in config.variables) - set(names)
        if unknown:
            raise InputError(f"{path}: config names unknown variables {sorted(unknown)}")
        for k, name in enumerate(names):
            vc = cfg.get(name)
            if vc is not None and vc.categories is not None:
                fixed_order[k] = {c: i for i, c in enumerate(vc.categories)}
    return names, fixed_order


class _Columns:
    """Category codes and counts of the records read so far.

    Each column is coded through a map from raw field to code that lives
    across blocks, so ``str.strip`` and the label lookup run once per
    distinct raw field of the file, in first-appearance order.
    """

    def __init__(self, path, names, fixed_order):
        self.path = path
        self.names = names
        self.fixed = [f is not None for f in fixed_order]
        # stripped label -> code; insertion order is code order
        self.index = [dict(f) if f else {} for f in fixed_order]
        self.raw_codes: list[dict[str, int]] = [{} for _ in names]
        # one buffer each for the codes and the counts, doubled when full;
        # finish() returns views of the rows filled
        self.codes = np.empty((_READ_BLOCK_ROWS, len(names)), dtype=np.intp)
        self.counts = np.empty(_READ_BLOCK_ROWS)
        self.rows = 0

    def add(self, rows, first):
        """Check and code one block of csv records; ``first`` is the record
        number of ``rows[0]``.  Raises the error of the first offending
        record, checked in the order arity, count parse, finite, sign,
        labels left to right."""
        width = len(self.names) + 1
        records = range(first, first + len(rows))
        stop = len(rows)
        if set(map(len, rows)) != {width}:
            kept = [i for i, row in enumerate(rows) if row and (len(row) > 1 or row[0].strip())]
            rows = [rows[i] for i in kept]
            records = [first + i for i in kept]
            stop = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
            if stop < len(rows):
                stop_error = f"expected {width} fields, got {len(rows[stop])}"
        fields = list(zip(*rows[:stop])) or [()] * width
        try:
            counts = np.fromiter(map(float, fields[-1]), np.float64, stop)
        except ValueError:
            stop = next(i for i, text in enumerate(fields[-1]) if not _is_float(text))
            stop_error = f"count {fields[-1][stop]!r} is not a number"
            fields = [f[:stop] for f in fields]
            counts = np.fromiter(map(float, fields[-1]), np.float64, stop)

        bad, error = stop, None
        nonfinite = _first(~np.isfinite(counts))
        if nonfinite < bad:
            bad, error = nonfinite, f"count {fields[-1][nonfinite]!r} is not finite"
        negative = _first(counts < 0)
        if negative < bad:
            bad, error = negative, f"negative count {float(counts[negative])}"
        lo, hi = self.rows, self.rows + stop
        if hi > self.counts.shape[0]:
            cap = max(hi, 2 * self.counts.shape[0])
            self.codes, self.counts = _grown(self.codes, lo, cap), _grown(self.counts, lo, cap)
        for k, col in enumerate(fields[:-1]):
            code = self.raw_codes[k].__getitem__
            try:
                self.codes[lo:hi, k] = np.fromiter(map(code, col), np.intp, stop)
            except KeyError:
                # the block holds raw fields not seen before: code them, retry
                unknown = self._code_labels(k, col)
                if not unknown:
                    self.codes[lo:hi, k] = np.fromiter(map(code, col), np.intp, stop)
                    continue
                row = next(i for i, text in enumerate(col) if text in unknown)
                if row < bad:
                    bad, error = row, (f"label {col[row].strip()!r} not in configured "
                                       f"categories of {self.names[k]!r}")
        if error is not None:
            raise self._error(records[bad], error)
        if stop < len(rows):
            raise self._error(records[stop], stop_error)
        self.counts[lo:hi] = counts
        self.rows = hi

    def _code_labels(self, k, col) -> set[str]:
        """Give a code to every new raw field of column ``k``; return those
        whose label is not among the variable's configured categories."""
        raw_codes, index = self.raw_codes[k], self.index[k]
        unknown = set()
        for text in dict.fromkeys(col):
            if text in raw_codes:
                continue
            label = text.strip()
            code = index.get(label)
            if code is None:
                if self.fixed[k]:
                    unknown.add(text)
                    continue
                code = index[label] = len(index)
            raw_codes[text] = code
        return unknown

    def _error(self, record, message) -> InputError:
        return InputError(f"{self.path}:{record}: {message}")

    def finish(self):
        categories = [list(index) for index in self.index]
        return self.names, categories, self.codes[:self.rows], self.counts[:self.rows]


def _grown(buf: np.ndarray, rows: int, cap: int) -> np.ndarray:
    """A ``cap``-row copy of ``buf`` holding its first ``rows`` rows."""
    out = np.empty((cap,) + buf.shape[1:], dtype=buf.dtype)
    out[:rows] = buf[:rows]
    return out


def _is_float(text) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _first_undecodable(path) -> str:
    """Where ``path`` first fails to decode as UTF-8, as ``line N, byte 0xXX``.
    UTF-8 never uses the newline byte inside a character, so each line
    decodes on its own."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return f"line {lineno}, byte 0x{raw[exc.start]:02x}"
    return "undecodable bytes"


def write_counts(path, scheme: CategoryScheme, table: SparseTable) -> None:
    """Write a table in long format; cells come out in lexicographic order
    so rewriting the same table is byte-identical."""
    if table.shape != scheme.shape:
        raise InputError(f"table shape {table.shape} does not match scheme {scheme.shape}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(scheme.names) + ["count"])
        for coords, count in zip(table.coords, table.counts):
            labels = [scheme.variables[k].categories[c] for k, c in enumerate(coords)]
            writer.writerow(labels + [_format_count(count)])


def _format_count(x: float) -> str:
    x = float(x)
    if x == int(x):
        return str(int(x))
    return repr(x)
