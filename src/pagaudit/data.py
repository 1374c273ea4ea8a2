"""Row-aligned named columns, either categorical (known arity) or continuous.

Datasets are immutable after construction.  CSV ingestion expects a header
row plus a sidecar schema declaring each column as ``name:cat:<arity>`` or
``name:cont``; missing values are rejected.  A ``CountTable`` holds
categorical columns as their distinct rows plus a count per distinct row,
which is all a chi-square test reads of them.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, SchemaError

__all__ = [
    "Column",
    "CountTable",
    "Dataset",
    "distinct_rows",
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
    """One named column; it keeps its own read-only copy of ``values``."""

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
            if v.dtype.kind == "f" and not np.isfinite(v).all():
                raise InputError(f"column {self.name!r}: non-finite or missing values")
            if v.dtype.kind not in "biuf" or (v.dtype.kind == "f" and (v % 1).any()):
                raise SchemaError(
                    f"column {self.name!r}: categorical values must be whole numbers"
                )
            if v.size and (v.min() < 0 or v.max() >= self.arity):
                raise SchemaError(
                    f"column {self.name!r}: values outside [0, {self.arity})"
                )
            object.__setattr__(self, "values", v.astype(np.int64))
        else:
            if self.arity is not None:
                raise SchemaError(f"column {self.name!r}: continuous has no arity")
            v = np.array(self.values, dtype=np.float64)
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


def distinct_rows(codes: np.ndarray, arities) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of coded columns, in lexicographic order, and the
    index of each row among them: ``np.unique(codes.T, axis=0,
    return_inverse=True)``, transposed, from one sort of a packed key.

    ``codes`` holds one column per array row (shape (k, n)), column j coded
    in [0, arities[j]).  The key packs a row in mixed radix, first column
    most significant; where the next column could push it past int64, the
    key is first replaced by its rank among the distinct keys so far, which
    keeps their order.
    """
    key = np.zeros(codes.shape[1], dtype=np.int64)
    bound = 1  # every key is below it
    for col, arity in zip(codes, arities):
        arity = int(arity)
        if bound > (1 << 63) // arity:
            ranked, key = np.unique(key, return_inverse=True)
            bound = len(ranked)
        key = key * arity + col
        bound *= arity
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return codes[:, first], inverse


class CountTable:
    """Categorical columns held as their distinct rows and, for each data
    row, the index of its distinct row.

    ``codes`` (shape (k, m)) holds the m distinct rows, one column per array
    row, in the smallest unsigned type; ``rows`` (shape (n,)) maps each data
    row, in data order, to its distinct row; ``counts`` (shape (m,)) is how
    often each distinct row occurs.  ``take_rows`` only recounts: the result
    shares ``codes``, and a distinct row it does not draw keeps count zero.
    A chi-square test reads the rows only through these counts.
    """

    def __init__(self, names, arities: np.ndarray, codes: np.ndarray, rows: np.ndarray):
        self.names = list(names)
        self.arities = arities
        self.codes = codes
        self.rows = rows
        self.n = len(rows)
        self.counts = np.bincount(rows, minlength=codes.shape[1])

    @classmethod
    def of(cls, d: Dataset) -> "CountTable":
        """The count table of an all-categorical dataset."""
        for c in d.columns:
            if c.kind != CATEGORICAL:
                raise InputError(f"count tables hold categorical columns, {c.name!r} is not")
        arities = np.array([c.arity for c in d.columns], dtype=np.int64)
        codes = np.empty((len(arities), d.n), dtype=np.min_scalar_type(arities.max() - 1))
        for i, c in enumerate(d.columns):
            codes[i] = c.values
        distinct, rows = distinct_rows(codes, arities)
        return cls(d.names, arities, distinct, rows)

    def take_rows(self, idx: np.ndarray) -> "CountTable":
        return CountTable(self.names, self.arities, self.codes, self.rows[idx])

    @property
    def columns(self) -> tuple[Column, ...]:
        """The data rows as Columns, in data order; built on each access."""
        return tuple(
            Column(name, CATEGORICAL, codes[self.rows], int(arity))
            for name, codes, arity in zip(self.names, self.codes, self.arities)
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
            if arity >= 1 << 63:
                raise SchemaError(f"schema line {ln}: arity {parts[2]} is past int64")
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
    """A UTF-8 file's text, without a leading byte order mark; a path that
    cannot be read or decoded is an InputError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
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
    """Load a header-first CSV under the given schema.  The file is read with
    universal newlines, so CRLF and CR line ends reach the parser as ``\n``."""
    return read_csv_text(read_text(path), schema, source=str(path))


_CSV_BLOCK = 1 << 11  # rows that read_csv_text decodes and write_csv formats at a time
_LEVELS_CAP = 1 << 12  # levels read_csv_text looks up; a cell past them is parsed cell by cell


def read_csv_text(
    text: str, schema: dict[str, tuple[str, int | None]], source: str = "<csv>"
) -> Dataset:
    """Parse header-first CSV text under the given schema, in one pass.

    The header goes through csv.  A plain body, one with no quote, carriage
    return or NUL and no line longer than csv's field limit, is split at its
    commas and newlines by numpy, on its UTF-8 bytes (_plain_blocks); any
    other body goes through csv.reader (_csv_blocks), the only path that
    applies quoting rules.  Either reads blocks of _CSV_BLOCK lines and
    decodes them a column slice at a time, in one step when every
    categorical cell spells a level as write_csv does (``"0"`` ..
    ``str(arity - 1)``) and every continuous cell parses with ``float``.  A
    slice with any other cell, such as a padded or signed level or an empty
    cell, goes to _parse_cells; only that slice is parsed cell by cell.
    Blank lines are skipped.  The first fault raises: a row of the wrong
    width or a csv error, in file order; then "no data rows"; then, column
    by column, a missing value, a cell that does not parse, and the Column's
    own checks.
    """
    header, body = _read_header(text, schema, source)
    kinds = [schema[name] for name in header]
    plain = _plain_lines(text, body)
    blocks = _plain_blocks(*plain, kinds, source) if plain else _csv_blocks(text, kinds, source)
    parts: list[list[np.ndarray]] = [[] for _ in header]
    missing = [False] * len(header)  # whether a column has an empty cell
    errors: list[str | None] = [None] * len(header)  # a column's first cell that does not parse
    n = 0
    for rows, decoded in blocks:
        n += rows
        for j, (values, empty, error) in enumerate(decoded):
            parts[j].append(values)
            missing[j] |= empty
            errors[j] = errors[j] or error
    if not n:
        raise InputError(f"{source}: no data rows")
    columns = []
    for name, (kind, arity), part, empty, error in zip(header, kinds, parts, missing, errors):
        if empty:
            raise InputError(f"{source}: missing value in column {name!r}")
        if error:
            raise InputError(f"{source}: column {name!r}: {error}")
        columns.append(Column(name, kind, np.concatenate(part), arity))
    return Dataset(columns)


def _plain_lines(text: str, body: int) -> tuple[bytes, int, np.ndarray] | None:
    """The text's UTF-8 bytes, the byte offset of its body, which starts at
    character ``body``, and the byte offset of each body line's end (its
    newline, or the end of the text), if csv would split every body line at
    its commas alone: no quote, carriage return or NUL, and no line longer
    than ``csv.field_size_limit()``, counted in bytes, which are never fewer
    than its characters.  Otherwise None."""
    if any(text.find(c, body) >= 0 for c in '"\r\0'):
        return None
    buf = text.encode("utf-8", "surrogatepass")
    start = len(text[:body].encode("utf-8", "surrogatepass"))
    ends = np.flatnonzero(np.frombuffer(buf, np.uint8, offset=start) == ord("\n")) + start
    if len(buf) > start and buf[-1] != ord("\n"):
        ends = np.append(ends, len(buf))
    if np.diff(ends, prepend=start - 1).max(initial=0) > csv.field_size_limit() + 1:
        return None
    return buf, start, ends


def _plain_blocks(buf: bytes, body: int, ends: np.ndarray, kinds, source: str):
    """Yield each block of _CSV_BLOCK lines of a plain body, which starts at
    byte ``body`` of ``buf``, as its number of rows and, per column,
    (values, whether a cell is empty, the first parse error).

    A block's commas are found on its bytes.  Its rows, the lines that are
    not blank, have the header's width exactly when there are width - 1
    commas per row and, cutting the row-ordered commas into groups of that
    many, no cell ends before it starts; the cells' byte offsets are then
    two (columns, rows) tables.  Categorical cells are read as digits
    (_levels); a column slice that is not all canonical levels, and every
    continuous slice, is decoded to strings.
    """
    raw = np.frombuffer(buf, np.uint8)
    width = len(kinds)
    limits = np.array(
        [[min(arity, _LEVELS_CAP) if kind == CATEGORICAL else 0] for kind, arity in kinds]
    )
    for first in range(0, len(ends), _CSV_BLOCK):  # body line 0 is file line 2
        stop = ends[first : first + _CSV_BLOCK]
        start = np.empty_like(stop)
        start[0] = ends[first - 1] + 1 if first else body
        start[1:] = stop[:-1] + 1
        commas = np.flatnonzero(raw[start[0] : stop[-1]] == ord(",")) + start[0]
        kept = stop > start  # csv skips a blank line
        rows = int(np.count_nonzero(kept))
        if rows < len(stop):
            start, stop = start[kept], stop[kept]
        length = None
        if len(commas) == rows * (width - 1):
            cuts = commas.reshape(rows, width - 1).T
            lo = np.concatenate((start[None], cuts + 1))
            hi = np.concatenate((cuts, stop[None]))
            length = hi - lo
        if length is None or length.min(initial=0) < 0:
            _raise_width(commas, ends[first : first + _CSV_BLOCK], kept, width, first, source)
        levels, canonical = _levels(raw, lo, length, limits)
        decoded = []
        for j, (kind, _) in enumerate(kinds):
            if canonical[j]:
                decoded.append((levels[j], False, None))
                continue
            cells = [
                buf[a:b].decode("utf-8", "surrogatepass")
                for a, b in zip(lo[j].tolist(), hi[j].tolist())
            ]
            if kind == CATEGORICAL:
                decoded.append(_parse_cells(cells, _parse_level, np.int64))
            else:
                decoded.append(_decode(cells, float, float, np.float64))
        yield rows, decoded


def _raise_width(commas, stop, kept, width: int, first: int, source: str):
    """Raise for the first row of a block, its lines ending at ``stop`` and
    the first of them line ``first`` of the body, that is not ``width``
    fields wide."""
    fields = np.searchsorted(commas, stop) + 1
    fields[1:] -= fields[:-1] - 1
    i = int((kept & (fields != width)).argmax())
    raise InputError(f"{source} line {first + i + 2}: expected {width} fields, got {fields[i]}")


def _levels(raw: np.ndarray, lo: np.ndarray, length: np.ndarray, limits: np.ndarray):
    """The levels that the cells of ``raw`` at offsets ``lo`` and of
    ``length`` bytes spell, a row per column, and whether each column's
    cells all spell a level canonically: digits only, no leading zero,
    below its row of ``limits``, which is 0 for a continuous column."""
    digits = len(str(limits.max() - 1))
    lead = raw.take(lo, mode="clip") - np.uint8(ord("0"))  # wraps past 9 if not a digit
    levels = lead.astype(np.int64)
    canonical = (lead < 10) & ((length == 1) | (lead != 0) & (length > 1) & (length <= digits))
    for k in range(1, digits):
        digit = raw.take(lo + k, mode="clip") - np.uint8(ord("0"))
        within = length > k
        canonical &= (digit < 10) | ~within
        levels = np.where(within, levels * 10 + digit, levels)
    canonical &= levels < limits
    return levels, canonical.all(axis=1)


def _csv_blocks(text: str, kinds, source: str):
    """Yield each block of _CSV_BLOCK rows that csv reads after the header
    as _plain_blocks does; a csv error raises after the width of every row
    read before it is checked."""
    reader = csv.reader(io.StringIO(text))
    next(reader)  # the header, which has parsed once already
    decoders = [
        (
            ({str(v): v for v in range(min(arity, _LEVELS_CAP))}.__getitem__, _parse_level, np.int64)
            if kind == CATEGORICAL
            else (float, float, np.float64)
        )
        for kind, arity in kinds
    ]
    width = len(kinds)
    for line in itertools.count(2, _CSV_BLOCK):  # the block's first row; the header is row 1
        block, fault = [], None
        try:
            block.extend(itertools.islice(reader, _CSV_BLOCK))  # keeps the rows before an error
        except csv.Error as exc:
            fault = InputError(f"{source} line {reader.line_num}: {exc}")
        if not set(map(len, block)) <= {0, width}:  # csv yields [] for a blank line
            ln, row = next((ln, r) for ln, r in enumerate(block, line) if len(r) not in (0, width))
            raise InputError(f"{source} line {ln}: expected {width} fields, got {len(row)}")
        if fault is not None:
            raise fault
        flat = list(itertools.chain.from_iterable(block))
        yield len(flat) // width, [_decode(flat[j::width], *d) for j, d in enumerate(decoders)]
        if len(block) < _CSV_BLOCK:
            return


def _decode(cells: list[str], decode, parse, dtype) -> tuple[np.ndarray, bool, str | None]:
    """A column slice decoded in one step with ``decode``, or, if a cell
    does not decode, cell by cell with _parse_cells."""
    try:
        return np.fromiter(map(decode, cells), dtype, len(cells)), False, None
    except (KeyError, ValueError):
        return _parse_cells(cells, parse, dtype)


def _parse_cells(cells: list[str], parse, dtype) -> tuple[np.ndarray, bool, str | None]:
    """A column slice parsed one cell at a time: each cell is stripped and
    parsed with ``parse``, and a cell that fails reads 0.  Also whether a
    cell was empty, and the message of the first cell that did not parse."""
    values, empty, error = [], False, None
    for cell in cells:
        cell = cell.strip()
        try:
            values.append(parse(cell))
        except ValueError as exc:
            values.append(0)
            empty |= not cell
            error = error or str(exc)
    return np.array(values, dtype), empty, error


def _parse_level(cell: str) -> int:
    """A categorical cell as an int; a level past int64 reads as -1, which is
    outside every arity's range, so the Column rejects it as out of range."""
    level = int(cell)
    return level if -(1 << 63) <= level < 1 << 63 else -1


def _read_header(text: str, schema, source: str) -> tuple[list[str], int]:
    """The stripped column names of the first row, each one in the schema,
    and the offset in ``text`` where the row after it starts.  csv reads the
    row from the text's lines as they are needed, not from a copy of it."""
    ends = [0]  # where each line read so far ends

    def lines():
        while ends[-1] < len(text):
            ends.append(text.find("\n", ends[-1]) + 1 or len(text))
            yield text[ends[-2] : ends[-1]]

    reader = csv.reader(lines())
    try:
        header = [h.strip() for h in next(reader, [])]
    except csv.Error as exc:
        raise InputError(f"{source} line {reader.line_num}: {exc}") from None
    if not header:
        raise InputError(f"{source}: empty file or header")
    missing = [h for h in header if h not in schema]
    if missing:
        raise SchemaError(f"{source}: columns not in schema: {missing}")
    return header, ends[-1]


def write_csv(d: Dataset, path: str | Path) -> None:
    """Write the dataset with a header row; categorical cells as integers,
    continuous cells in 12 significant digits.

    Cells are formatted a column at a time, in blocks of _CSV_BLOCK rows.  A
    categorical column whose largest level is below the row count shares one
    string per level, which keeps a block's strings small; one with a larger
    level formats each cell, so memory stays proportional to the data.
    Numbers never need quoting, so only the header goes through csv.
    """
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    text = []
    for c in d.columns:
        if c.kind == CONTINUOUS:
            text.append("{:.12g}".format)
        elif (top := int(c.values.max(initial=0))) < d.n:
            text.append([str(v) for v in range(top + 1)].__getitem__)
        else:
            text.append(str)
    with fh:
        csv.writer(fh, lineterminator="\n").writerow(d.names)
        for start in range(0, d.n, _CSV_BLOCK):
            cells = [
                list(map(cell, c.values[start : start + _CSV_BLOCK].tolist()))
                for cell, c in zip(text, d.columns)
            ]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def schema_text(d: Dataset) -> str:
    """Sidecar schema describing this dataset's columns."""
    lines = []
    for c in d.columns:
        if c.kind == CATEGORICAL:
            lines.append(f"{c.name}:{CATEGORICAL}:{c.arity}")
        else:
            lines.append(f"{c.name}:{CONTINUOUS}")
    return "\n".join(lines) + "\n"
