"""Reading and writing long-format count files and run configuration.

The count format is a UTF-8 CSV, with or without a byte-order mark, whose
header names the variables followed by a literal ``count`` column; each
row carries one category label per variable and a nonnegative number.
Category order is first appearance in the file unless a config supplies an
explicit order.

A counts file is read a block at a time, so memory stays bounded by the
coded arrays plus one block.  A block of plain lines, one record each with
no quotes and LF or CRLF line ends (as :func:`write_counts` writes them),
is coded straight from its bytes, a column at a time, with numpy: each
field's bytes are its key, and a key of one 8-byte word is found through
a hashed slot table, any other by binary search in a sorted key table.  From
the first block that ``csv.reader`` might read differently, or that holds
a faulty record, the rest of the file goes through ``csv.reader``.  That
one loop reads quoted fields and raises every error about a record.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import InputError
from .table import (NOMINAL, TREATMENTS, CategoryScheme, SparseTable, VariableDef, _code_dtype,
                    _find, _insert_sorted)

__all__ = ["VariableConfig", "RunConfig", "read_config", "read_counts", "write_counts", "load_table"]

# csv records parsed and checked at a time.  A block's raw fields stay alive
# until it is coded, so a smaller block holds less memory; below about a
# hundred records the per-block numpy calls start to cost time.
_READ_BLOCK_ROWS = 128

# bytes read at a time by the byte path.  A block is cut at its last
# newline and grows until it holds one.  Its transient arrays take a few
# times its size; a block whose keys of one column come near the 16-fold
# cap in _Columns.take can take about 75 times (4.7 MB at 64 KiB).  Much
# smaller blocks spend their time in numpy call overhead.
_READ_BLOCK_BYTES = 1 << 16

# _LOW_BYTES[n] keeps the first n bytes of a little-endian 8-byte word.
# Words are signed, so sorting keys runs the int64 sort code that the
# table build runs anyway.  The keys sorted here are distinct, so every
# sort kind gives the same order; they take numpy's default kind, as the
# table build does when no cell repeats.
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype="<u8").view("<i8")

# 2**64 over the golden ratio, odd: multiply-shift hashing by it moves
# every bit of a key into the top bits that pick its slot
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
# slot tables have at most 2**16 slots (512 KiB).  A column's table is
# rebuilt whenever a block adds labels to it, so a larger one costs more to
# rebuild than it saves in a column whose labels keep coming; past about
# 4,000 labels, keys share slots more often and more of them are searched for
_MAX_SLOT_BITS = 16


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
    variable names, the ordered labels of each variable, an ``(n, K)`` array
    of category codes and the ``n`` float64 counts, one row per data
    record.  The codes take the dtype rule of :class:`SparseTable`: int16,
    or int32 once a variable has more labels than int16 holds, then int64.

    A plain header line (:func:`_plain`) is parsed on its own.  Then the file is read ``_READ_BLOCK_BYTES`` at a time, cut
    at newlines, and :meth:`_Columns.take` codes each block from its bytes.
    The first block it does not take, and everything after it, is read by
    ``csv.reader`` ``_READ_BLOCK_ROWS`` records at a time; a header that is
    not plain sends the whole file there.  The byte path only takes blocks
    of one record per line, so record numbers carry over.  Either way memory
    stays bounded by the arrays plus one block.
    """
    path = Path(path)
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with fh:
        columns, record, offset = None, 2, 0
        header = fh.readline()
        if (header.endswith(b"\n") and _plain(header)
                and len(header) <= csv.field_size_limit()):
            try:
                text = header.decode("utf-8-sig")
            except UnicodeDecodeError:
                pass
            else:
                columns = _Columns(path, *_read_header(path, csv.reader([text]), config))
                offset = len(header)
                for block in _blocks(fh):
                    if not (taken := columns.take(block)):
                        break
                    offset += len(block)
                    record += taken
                else:
                    return columns.finish()
        # the lines before the csv loop's first: all taken records are one
        # line each
        skipped = record - 1 if columns is not None else 0
        fh.seek(offset)
        reader = csv.reader(io.TextIOWrapper(
            fh, encoding="utf-8-sig" if offset == 0 else "utf-8", newline=""))
        try:
            if columns is None:
                columns = _Columns(path, *_read_header(path, reader, config))
            while rows := list(islice(reader, _READ_BLOCK_ROWS)):
                columns.add(rows, record)
                record += len(rows)
        except UnicodeDecodeError:
            raise InputError(
                f"{path}: not valid UTF-8 text ({_first_undecodable(path)})") from None
        except csv.Error as exc:
            raise InputError(f"{path}: line {skipped + reader.line_num}: {exc}") from None
    return columns.finish()


def _plain(data: bytes) -> bool:
    """Whether ``csv.reader`` reads every byte of ``data`` as plain text or
    a field or line end: no quote, no NUL and every CR part of a CRLF."""
    return (b'"' not in data and b"\0" not in data
            and (b"\r" not in data or data.count(b"\r") == data.count(b"\r\n")))


def _blocks(fh):
    """The rest of ``fh`` in blocks of whole lines, each about
    ``_READ_BLOCK_BYTES`` long; a last line with no newline gets one."""
    carry = b""
    while chunk := fh.read(_READ_BLOCK_BYTES):
        block = carry + chunk
        cut = block.rfind(b"\n") + 1
        if cut:
            yield block[:cut]
        carry = block[cut:]
    if carry:
        yield carry + b"\n"


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
    distinct raw field of the file, in first-appearance order.  The byte
    path keeps beside it, per column, a sorted table of the raw fields it
    has seen as fixed-width keys (:func:`_field_keys`), with their codes.
    While the keys are one word each, a slot table (:func:`_slot_table`)
    points most of them at their place in the sorted table without a
    search; it is rebuilt only when keys are added.  The sorted table
    alone holds the codes.
    """

    def __init__(self, path, names, fixed_order):
        self.path = path
        self.names = names
        self.fixed = [f is not None for f in fixed_order]
        # stripped label -> code; insertion order is code order
        self.index = [dict(f) if f else {} for f in fixed_order]
        self.raw_codes: list[dict[str, int]] = [{} for _ in names]
        # per column: sorted raw-field keys, their codes, the slot table
        # of one-word keys (None for wide or no keys) and the longest raw
        # field seen, in bytes
        self.key_tables = [(np.empty(0, "<i8"), np.empty(0, np.intp), None)] * len(names)
        self.key_widths = [0] * len(names)
        # one buffer each for the codes and the counts, doubled when full;
        # finish() returns views of the rows filled.  The codes' dtype is
        # SparseTable's for the labels known so far; _code_labels widens it.
        self.codes = np.empty((_READ_BLOCK_ROWS, len(names)),
                              dtype=_code_dtype(map(len, self.index)))
        self.counts = np.empty(_READ_BLOCK_ROWS)
        self.rows = 0

    def take(self, block: bytes) -> int:
        """Code a block of whole lines from its bytes, if ``csv.reader``
        would read the same records from it and none is at fault; return
        the number of records coded, 0 if it did not take the block.

        The block is taken only if it is plain (:func:`_plain`), every line
        has K+1 fields, none longer than ``csv.field_size_limit()``, every
        count is a finite nonnegative number and every label is allowed by
        the config.  A block not taken adds no record.
        """
        if not _plain(block):
            return 0
        width = len(self.names) + 1
        buf = np.frombuffer(block, np.uint8)
        newline = buf == ord("\n")
        n = int(np.count_nonzero(newline))
        ends = np.flatnonzero(newline | (buf == ord(",")))
        # n lines of K+1 fields each: every (K+1)-th field end is a newline
        if ends.size != n * width or not np.all(newline[ends[width - 1::width]]):
            return 0
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        # one row per column, one entry per record
        starts = starts.reshape(n, width).T
        ends = ends.reshape(n, width).T
        lengths = ends - starts
        if b"\r" in block:
            # a CRLF line end: the CR is not part of the count
            lengths[-1] -= buf[ends[-1] - 1] == ord("\r")
        widths = lengths.max(axis=1)
        if widths.max() > csv.field_size_limit():
            return 0
        # keys wider than one word take whole words
        widths = np.where(widths > 8, -(-widths // 8) * 8, widths)
        widths[:-1] = np.maximum(widths[:-1], self.key_widths)
        if np.any((widths > 8) & (widths * n > 16 * len(block))):
            return 0  # keys this wide would take many times the block
        # the eight bytes from each offset of the block as one
        # little-endian word
        words = np.ndarray(len(block), "<i8", block + bytes(8), 0, (1,))

        keys = _field_keys(words, starts[-1], lengths[-1], widths[-1])
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        try:
            values = np.array([float(block[a:a + m]) for a, m in
                               zip(starts[-1, first].tolist(), lengths[-1, first].tolist())])
        except ValueError:
            return 0
        if not np.all((values >= 0) & (values < np.inf)):
            return 0
        codes = []
        for k in range(width - 1):
            keys = _field_keys(words, starts[k], lengths[k], widths[k])
            col = self._code_keys(k, block, keys, starts[k], lengths[k], widths[k])
            if col is None:
                return 0
            codes.append(col)
        lo, hi = self._reserve(n)
        for k, col in enumerate(codes):
            self.codes[lo:hi, k] = col
        self.counts[lo:hi] = values[inverse]
        self.rows = hi
        return n

    def _code_keys(self, k, block, keys, starts, lengths, width):
        """Codes of column ``k``'s fields in ``block``, found by their
        ``width``-byte keys in the column's table.  Fields new to the column
        are decoded and coded by :meth:`_code_labels`; returns None if one is
        not UTF-8 or not a configured label."""
        table, codes, slots = self.key_tables[k]
        if width > max(self.key_widths[k], 8):
            # re-key the table as zero-padded bytes, sorted as such
            if table.dtype.kind == "i":
                table = table.view("S8")
            table = table.astype(f"S{width}")
            order = np.argsort(table)
            table, codes, slots = table[order], codes[order], None
            self.key_tables[k] = table, codes, slots
        self.key_widths[k] = width
        pos, found = _lookup(table, slots, keys)
        if not found.all():
            new = np.flatnonzero(~found)
            _, first = np.unique(keys[new], return_index=True)
            first.sort()
            rows = new[first]
            try:
                texts = [block[a:a + m].decode() for a, m in
                         zip(starts[rows].tolist(), lengths[rows].tolist())]
            except UnicodeDecodeError:
                return None
            if self._code_labels(k, texts):
                return None
            added = keys[rows]
            order = np.argsort(added)
            raw_codes = self.raw_codes[k]
            table, codes = _insert_sorted(
                (table, codes), np.searchsorted(table, added[order]),
                (added[order], [raw_codes[texts[i]] for i in order]))
            slots = _slot_table(table) if table.dtype.kind == "i" else None
            self.key_tables[k] = table, codes, slots
            pos, found = _lookup(table, slots, keys)
        return codes[pos]

    def _reserve(self, n: int) -> tuple[int, int]:
        """Grow the buffers to hold ``n`` more rows; return the rows they go
        to as ``(lo, hi)``."""
        lo, hi = self.rows, self.rows + n
        if hi > self.counts.shape[0]:
            cap = max(hi, 2 * self.counts.shape[0])
            self.codes, self.counts = _grown(self.codes, lo, cap), _grown(self.counts, lo, cap)
        return lo, hi

    def add(self, rows, first):
        """Check and code one block of csv records; ``first`` is the record
        number of ``rows[0]``.  A block holding a faulty record raises the
        error :meth:`_fault` gives."""
        width = len(self.names) + 1
        numbered = enumerate(rows, first)
        if set(map(len, rows)) != {width}:
            numbered = [(i, row) for i, row in numbered if len(row) > 1 or row and row[0].strip()]
            rows = [row for _, row in numbered]
            if set(map(len, rows)) - {width}:
                raise self._fault(numbered)
        n = len(rows)
        fields = list(zip(*rows)) or [()] * width
        try:
            counts = np.fromiter(map(float, fields[-1]), np.float64, n)
        except ValueError:
            raise self._fault(numbered) from None
        if not np.all((counts >= 0) & (counts < np.inf)):
            raise self._fault(numbered)
        lo, hi = self._reserve(n)
        for k, col in enumerate(fields[:-1]):
            code = self.raw_codes[k].__getitem__
            try:
                self.codes[lo:hi, k] = np.fromiter(map(code, col), self.codes.dtype, n)
            except KeyError:
                # the block holds raw fields not seen before: code them, retry
                if self._code_labels(k, col):
                    raise self._fault(numbered) from None
                self.codes[lo:hi, k] = np.fromiter(map(code, col), self.codes.dtype, n)
        self.counts[lo:hi] = counts
        self.rows = hi

    def _fault(self, numbered) -> InputError:
        """The error of the first faulty record among ``numbered``, a
        block's ``(record number, fields)`` pairs, each record checked in
        the order arity, count parse, finite, sign, labels left to right."""
        width = len(self.names) + 1
        for record, row in numbered:
            if len(row) != width:
                return self._error(record, f"expected {width} fields, got {len(row)}")
            try:
                count = float(row[-1])
            except ValueError:
                return self._error(record, f"count {row[-1]!r} is not a number")
            if not np.isfinite(count):
                return self._error(record, f"count {row[-1]!r} is not finite")
            if count < 0:
                return self._error(record, f"negative count {count}")
            for k, text in enumerate(row[:-1]):
                if self.fixed[k] and text.strip() not in self.index[k]:
                    return self._error(record, f"label {text.strip()!r} not in configured "
                                               f"categories of {self.names[k]!r}")

    def _code_labels(self, k, col) -> set[str]:
        """Give a code to every new raw field of column ``k``; return those
        whose label is not among the variable's configured categories.  The
        first time the column has more labels than the code buffer's dtype
        holds, the buffer is widened."""
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
        if len(index) > np.iinfo(self.codes.dtype).max:
            self.codes = self.codes.astype(_code_dtype([len(index)]))
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


def _field_keys(words, starts, lengths, width):
    """Fixed-width sortable keys of the fields at ``starts``, each its bytes
    zero-padded to ``width``, from ``words``, the block's 8-byte word at
    every byte: one little-endian word (``int64``) when ``width`` is at most
    8, else ``S{width}`` for a multiple of 8.  Little-endian words laid end
    to end are the bytes in order.  Fields hold no NUL byte, so equal keys
    are equal fields."""
    if width <= 8:
        return words[starts] & _LOW_BYTES[lengths]
    out = np.empty((starts.size, width // 8), "<i8")
    last = words.size - 1
    for j in range(width // 8):
        # past its field's end a word is masked off whole, so any index
        # in the block will do
        out[:, j] = words[np.minimum(starts + 8 * j, last)]
        out[:, j] &= _LOW_BYTES[np.minimum(np.maximum(lengths - 8 * j, 0), 8)]
    return out.view(f"S{width}").ravel()


def _slot(keys, bits):
    """Multiply-shift hash of one-word keys to slots ``0 .. 2**bits - 1``:
    the top ``bits`` bits of each key times ``_HASH_MULTIPLIER``, mod 2**64."""
    return (keys.view("<u8") * _HASH_MULTIPLIER >> np.uint64(64 - bits)).view("<i8")


def _slot_table(table):
    """Positions of the sorted one-word ``table``'s keys by :func:`_slot`.
    It has 2**b slots, b the bit length of the table's size plus 4, so at
    most one slot in 16 is taken, up to ``_MAX_SLOT_BITS``.  Where keys
    share a slot, one of their positions is kept."""
    bits = min(table.size.bit_length() + 4, _MAX_SLOT_BITS)
    slots = np.zeros(1 << bits, np.intp)
    slots[_slot(table, bits)] = np.arange(table.size)
    return slots


def _lookup(table, slots, keys):
    """Where each key is or would go in the sorted ``table`` (clipped to its
    last entry) and whether it is there.  A key whose slot in ``slots``
    (:func:`_slot_table`; None to skip it) holds the position of that same
    key is found there; every other key is searched for in the table."""
    if slots is None:
        return _find(table, keys)
    pos = slots[_slot(keys, slots.size.bit_length() - 1)]
    found = table[pos] == keys
    if not found.all():
        miss = np.flatnonzero(~found)
        pos[miss], found[miss] = _find(table, keys[miss])
    return pos, found


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
