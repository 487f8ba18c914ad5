"""Reading and writing long-format count files and run configuration.

The count format is a UTF-8 CSV whose header names the variables followed
by a literal ``count`` column; each row carries one category label per
variable and a nonnegative number.  Category order is first appearance in
the file unless a config supplies an explicit order.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import InputError
from .table import NOMINAL, TREATMENTS, CategoryScheme, SparseTable, VariableDef, build_table

__all__ = ["VariableConfig", "RunConfig", "read_config", "read_counts", "write_counts", "load_table"]


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
    optional."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
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

    Returns ``(names, categories, entries)`` where ``categories`` holds the
    ordered label list per variable and ``entries`` the indexed
    ``(coordinates, count)`` pairs.  Errors carry the offending line number.
    """
    path = Path(path)
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
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

        index: list[dict[str, int]] = [dict(f) if f else {} for f in fixed_order]
        entries: list[tuple[tuple[int, ...], float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(names) + 1:
                raise InputError(
                    f"{path}:{lineno}: expected {len(names) + 1} fields, got {len(row)}")
            labels = [c.strip() for c in row[:-1]]
            try:
                count = float(row[-1])
            except ValueError:
                raise InputError(f"{path}:{lineno}: count {row[-1]!r} is not a number") from None
            if not math.isfinite(count):
                raise InputError(f"{path}:{lineno}: count {row[-1]!r} is not finite")
            if count < 0:
                raise InputError(f"{path}:{lineno}: negative count {count}")
            coords = []
            for k, label in enumerate(labels):
                if label not in index[k]:
                    if fixed_order[k] is not None:
                        raise InputError(
                            f"{path}:{lineno}: label {label!r} not in configured "
                            f"categories of {names[k]!r}")
                    index[k][label] = len(index[k])
                coords.append(index[k][label])
            entries.append((tuple(coords), count))

    categories = []
    for k in range(len(names)):
        ordered = sorted(index[k].items(), key=lambda kv: kv[1])
        categories.append([label for label, _ in ordered])
    return names, categories, entries


def load_table(path, config: RunConfig | None = None) -> tuple[CategoryScheme, SparseTable]:
    """Read a counts file into a scheme and table, applying the config's
    category orders and treatments."""
    names, categories, entries = read_counts(path, config)
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
    return scheme, build_table(scheme, entries)


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
