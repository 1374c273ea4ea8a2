"""Row-aligned named columns, either categorical (known arity) or continuous.

Datasets are immutable after construction.  CSV ingestion expects a header
row plus a sidecar schema declaring each column as ``name:cat:<arity>`` or
``name:cont``; missing values are rejected.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, SchemaError

__all__ = [
    "Column",
    "Dataset",
    "parse_schema",
    "read_csv",
    "read_text",
    "write_csv",
    "write_text",
]

CATEGORICAL = "cat"
CONTINUOUS = "cont"


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # CATEGORICAL or CONTINUOUS
    values: np.ndarray
    arity: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (CATEGORICAL, CONTINUOUS):
            raise SchemaError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if self.arity is None or self.arity < 1:
                raise SchemaError(f"column {self.name!r}: categorical needs arity >= 1")
            v = np.asarray(self.values)
            if v.size and (v.min() < 0 or v.max() >= self.arity):
                raise SchemaError(
                    f"column {self.name!r}: values outside [0, {self.arity})"
                )
            object.__setattr__(self, "values", v.astype(np.int64))
        else:
            if self.arity is not None:
                raise SchemaError(f"column {self.name!r}: continuous has no arity")
            v = np.asarray(self.values, dtype=np.float64)
            if v.size and not np.isfinite(v).all():
                raise InputError(f"column {self.name!r}: non-finite or missing values")
            object.__setattr__(self, "values", v)
        self.values.setflags(write=False)


class Dataset:
    """Immutable collection of equal-length columns with unique names."""

    def __init__(self, columns: list[Column]):
        if not columns:
            raise InputError("dataset needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise InputError("duplicate column names")
        lengths = {len(c.values) for c in columns}
        if len(lengths) != 1:
            raise InputError(f"ragged columns: lengths {sorted(lengths)}")
        self.columns = tuple(columns)
        self.n = len(columns[0].values)
        self._by_name = {c.name: c for c in columns}

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def col(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise InputError(f"unknown column {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._by_name

    def drop(self, name: str) -> "Dataset":
        self.col(name)
        return Dataset([c for c in self.columns if c.name != name])

    def with_column(self, column: Column) -> "Dataset":
        """New dataset with ``column`` appended, or replaced if the name exists."""
        cols = [column if c.name == column.name else c for c in self.columns]
        if column.name not in self._by_name:
            cols.append(column)
        return Dataset(cols)

    def take_rows(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            [Column(c.name, c.kind, c.values[idx], c.arity) for c in self.columns]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.names != other.names or self.n != other.n:
            return False
        return all(
            a.kind == b.kind and a.arity == b.arity and np.array_equal(a.values, b.values)
            for a, b in zip(self.columns, other.columns)
        )


def keyed_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based Philox generator keyed by (seed, stream), each taken
    modulo 2**64; a key gives the same stream on every platform."""
    key = np.array([seed % (1 << 64), stream % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def parse_schema(text: str) -> dict[str, tuple[str, int | None]]:
    """Parse ``name:cat:<arity>`` / ``name:cont`` lines into a schema map."""
    schema: dict[str, tuple[str, int | None]] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(":")
        if len(parts) == 2 and parts[1] == CONTINUOUS:
            name, spec = parts[0], (CONTINUOUS, None)
        elif len(parts) == 3 and parts[1] == CATEGORICAL:
            try:
                arity = int(parts[2])
            except ValueError:
                raise SchemaError(f"schema line {ln}: bad arity {parts[2]!r}") from None
            name, spec = parts[0], (CATEGORICAL, arity)
        else:
            raise SchemaError(f"schema line {ln}: expected name:cat:<arity> or name:cont")
        if name in schema:
            raise SchemaError(f"schema line {ln}: duplicate column {name!r}")
        schema[name] = spec
    if not schema:
        raise SchemaError("empty schema")
    return schema


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text; a path that cannot be read or decoded is an
    InputError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(
            f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc


def write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 text; a path that cannot be written is an InputError naming it."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def read_csv(path: str | Path, schema: dict[str, tuple[str, int | None]]) -> Dataset:
    """Load a header-first CSV under the given schema."""
    return read_csv_text(read_text(path), schema, source=str(path))


def read_csv_text(
    text: str, schema: dict[str, tuple[str, int | None]], source: str = "<csv>"
) -> Dataset:
    reader = csv.reader(io.StringIO(text))
    header = [h.strip() for h in next(reader, [])]
    if not header:
        raise InputError(f"{source}: empty file or header")
    missing = [h for h in header if h not in schema]
    if missing:
        raise SchemaError(f"{source}: columns not in schema: {missing}")
    raw: list[list[str]] = [[] for _ in header]
    for ln, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise InputError(f"{source} line {ln}: expected {len(header)} fields, got {len(row)}")
        for cell, bucket in zip(row, raw):
            bucket.append(cell.strip())
    if not raw[0]:
        raise InputError(f"{source}: no data rows")
    columns = []
    for name, cells in zip(header, raw):
        kind, arity = schema[name]
        if any(c == "" for c in cells):
            raise InputError(f"{source}: missing value in column {name!r}")
        try:
            if kind == CATEGORICAL:
                values = np.array([int(c) for c in cells], dtype=np.int64)
            else:
                values = np.array([float(c) for c in cells], dtype=np.float64)
        except ValueError as exc:
            raise InputError(f"{source}: column {name!r}: {exc}") from None
        columns.append(Column(name, kind, values, arity))
    return Dataset(columns)


def write_csv(d: Dataset, path: str | Path) -> None:
    """Write the dataset with a header row; categorical cells as integers."""
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    with fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(d.names)
        cols = [c.values for c in d.columns]
        kinds = [c.kind for c in d.columns]
        for i in range(d.n):
            writer.writerow(
                [
                    int(v[i]) if k == CATEGORICAL else format(float(v[i]), ".12g")
                    for v, k in zip(cols, kinds)
                ]
            )


def schema_text(d: Dataset) -> str:
    """Sidecar schema describing this dataset's columns."""
    lines = []
    for c in d.columns:
        if c.kind == CATEGORICAL:
            lines.append(f"{c.name}:{CATEGORICAL}:{c.arity}")
        else:
            lines.append(f"{c.name}:{CONTINUOUS}")
    return "\n".join(lines) + "\n"
