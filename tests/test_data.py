import csv
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_read_csv_text
from pagaudit import data
from pagaudit.data import (
    _CSV_BLOCK,
    _LEVELS_CAP,
    Column,
    CountTable,
    Dataset,
    distinct_rows,
    parse_schema,
    read_csv,
    read_csv_text,
    schema_text,
    write_csv,
)
from pagaudit.errors import InputError, SchemaError

SCHEMA = {"a": ("cat", 2), "b": ("cat", 3), "x": ("cont", None)}


def test_parse_schema_round_trip():
    text = "a:cat:2\nb:cat:3\nx:cont\n"
    assert parse_schema(text) == SCHEMA
    d = read_csv_text("a,b,x\n0,2,1.5\n1,0,-2.0\n", SCHEMA)
    assert schema_text(d) == text


def test_parse_schema_rejects_malformed():
    for bad in ("a:cat", "a:cat:x", "a:int:2", "a:cont:3", "a:cat:2\na:cat:2", ""):
        with pytest.raises(SchemaError):
            parse_schema(bad)


def test_read_csv_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,x\n0,2,1.5\n1,0,-2.0\n1,1,0.25\n")
    d = read_csv(p, SCHEMA)
    assert d.n == 3
    assert d.names == ["a", "b", "x"]
    assert d.col("a").values.tolist() == [0, 1, 1]
    assert d.col("x").kind == "cont"


def test_read_csv_rejects_missing_and_malformed():
    with pytest.raises(InputError):
        read_csv_text("a,b,x\n0,,1.0\n", SCHEMA)  # empty cell
    with pytest.raises(InputError):
        read_csv_text("a,b,x\n0,1\n", SCHEMA)  # short row
    with pytest.raises(InputError):
        read_csv_text("a,b,x\n", SCHEMA)  # no data rows
    with pytest.raises(SchemaError):
        read_csv_text("a,q\n0,1\n", {"a": ("cat", 2)})  # column not in schema
    with pytest.raises(InputError):
        read_csv_text("a,b,x\n0,1,oops\n", SCHEMA)  # non-numeric continuous
    with pytest.raises(InputError):
        read_csv_text("a,b,x\n1.0,1,1.0\n", SCHEMA)  # categorical cell as a float
    with pytest.raises(InputError):
        read_csv_text("\n", SCHEMA)  # blank header
    d = read_csv_text("a,b,x\n0,1,1.0\r1,1,1.0\n", SCHEMA)  # a lone CR ends a line
    assert d.col("a").values.tolist() == [0, 1]


def test_categorical_range_enforced():
    with pytest.raises(SchemaError):
        read_csv_text("a,b,x\n0,3,1.0\n", SCHEMA)  # b out of arity 3
    with pytest.raises(SchemaError):
        read_csv_text("a,b,x\n-1,0,1.0\n", SCHEMA)
    for level in ("99999999999999999999", "-99999999999999999999", str(2**63)):  # past int64
        with pytest.raises(SchemaError, match=r"column 'a': values outside \[0, 2\)"):
            read_csv_text(f"a,b,x\n{level},0,1.0\n", SCHEMA)


def test_dataset_invariants():
    with pytest.raises(InputError):
        Dataset([])
    c1 = Column("a", "cat", np.array([0, 1]), 2)
    c2 = Column("a", "cat", np.array([0, 1]), 2)
    with pytest.raises(InputError):
        Dataset([c1, c2])  # duplicate names
    c3 = Column("b", "cat", np.array([0, 1, 1]), 2)
    with pytest.raises(InputError):
        Dataset([c1, c3])  # ragged


@pytest.mark.parametrize("name", [0, 1, None, 2.0])
def test_a_column_name_that_is_not_a_str_is_rejected(name):
    # a noise column named 0 once reached FCI, whose graph read the name 0 as
    # node index 0: with x, y dependent, classify_edge(g, 0, "y") called the
    # noise column a possible cause of y
    cols = [Column(n, "cat", np.array([0, 1, 0, 1]), 2) for n in ("x", name, "y")]
    with pytest.raises(InputError, match=rf"column name {re.escape(repr(name))} is not a string"):
        Dataset(cols)


def test_columns_are_immutable():
    d = read_csv_text("a,b,x\n0,2,1.5\n", SCHEMA)
    with pytest.raises(ValueError):
        d.col("a").values[0] = 1


@pytest.mark.parametrize("kind, arity", [("cat", 8), ("cont", None)])
def test_a_column_keeps_its_own_read_only_copy(kind, arity):
    a = np.zeros(3, dtype=np.int64 if kind == "cat" else np.float64)
    view = a[:]
    c = Column("c", kind, a, arity)
    assert c.values is not a and not c.values.flags.writeable
    a[1] = 1  # the caller's array stays writable
    view[0] = 7
    assert c.values.tolist() == [0, 0, 0]


@pytest.mark.parametrize(
    "values", [np.array([0, 1]), np.array([True, False]), np.array([0.0, 1.0]), [1, 0]]
)
def test_a_categorical_column_takes_integers_bools_and_whole_floats(values):
    c = Column("a", "cat", values, 2)
    assert c.values.dtype == np.int64
    assert c.values.tolist() == np.asarray(values).astype(int).tolist()


def test_a_categorical_column_rejects_fractional_values():
    with pytest.raises(SchemaError, match="column 'a'"):
        Column("a", "cat", np.array([0.5, 1.7]), 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_categorical_column_rejects_missing_values(bad):
    with pytest.raises(InputError, match="column 'a': non-finite or missing values"):
        Column("a", "cat", np.array([bad, 1.0]), 2)


def test_a_categorical_column_rejects_strings():
    with pytest.raises(SchemaError, match="column 'a'"):
        Column("a", "cat", np.array(["1", "0"]), 2)


def test_drop_and_with_column():
    d = read_csv_text("a,b,x\n0,2,1.5\n1,0,2.0\n", SCHEMA)
    assert d.drop("b").names == ["a", "x"]
    extra = Column("w", "cat", np.array([1, 0]), 2)
    assert d.with_column(extra).names == ["a", "b", "x", "w"]
    replaced = d.with_column(Column("a", "cat", np.array([1, 1]), 2))
    assert replaced.col("a").values.tolist() == [1, 1]
    with pytest.raises(InputError):
        d.drop("zz")


def test_write_csv_round_trip(tmp_path):
    d = read_csv_text("a,b,x\n0,2,1.5\n1,0,-0.125\n", SCHEMA)
    p = tmp_path / "out.csv"
    write_csv(d, p)
    again = read_csv(p, SCHEMA)
    assert again == d
    # byte determinism
    p2 = tmp_path / "out2.csv"
    write_csv(d, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_write_csv_memory_follows_the_rows_not_the_largest_level(tmp_path):
    d = Dataset([Column("a", "cat", np.array([0, 999_999]), 1_000_000)])
    p = tmp_path / "wide.csv"
    tracemalloc.start()
    try:
        write_csv(d, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert p.read_text() == "a\n0\n999999\n"
    assert read_csv(p, {"a": ("cat", 1_000_000)}) == d


def _assert_distinct_rows_match_numpy(codes, arities):
    rows, inverse = distinct_rows(codes, arities)
    ref_rows, ref_inverse = np.unique(codes.T, axis=0, return_inverse=True)
    assert np.array_equal(rows, ref_rows.T)
    assert np.array_equal(inverse, ref_inverse.ravel())


def test_distinct_rows_key_past_int64_matches_numpy():
    # 70 binary columns: a packed key needs 70 bits, past int64, so the key
    # is re-ranked on the way
    rng = np.random.default_rng(3)
    codes = rng.integers(0, 2, (70, 400)).astype(np.uint8)
    codes[:, 200:] = codes[:, :200]  # every row twice
    _assert_distinct_rows_match_numpy(codes, [2] * 70)


def test_distinct_rows_with_arities_near_int64_match_numpy():
    # a column this wide overflows int64 even times the ranks of two keys, so
    # its own values are ranked; one past 2**32 is held as uint64, whose
    # values past 2**53 a float key would merge
    codes = np.array([[7, 0, 7, 3, 0], [2**62, 5, 2**62, 2**62 + 1, 6], [1, 1, 1, 1, 0]], np.uint64)
    _assert_distinct_rows_match_numpy(codes, [2**63 - 1, 2**62 + 2, 4])
    _assert_distinct_rows_match_numpy(codes[1:], [2**62 + 2, 2])
    _assert_distinct_rows_match_numpy(codes[::-1], [2, 2**62 + 2, 2**63 - 1])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(0, 80),
    arities=st.lists(st.integers(1, 300), min_size=1, max_size=40),
    copies=st.integers(1, 3),
)
def test_distinct_rows_matches_numpy_unique(seed, n, arities, copies):
    # arities up to 300 over up to 40 columns re-rank the key several times;
    # repeated blocks of rows make duplicates
    rng = np.random.default_rng(seed)
    block = np.stack([rng.integers(0, a, n) for a in arities]).astype(np.uint16)
    _assert_distinct_rows_match_numpy(np.tile(block, copies), arities)


def test_count_table_counts_and_recounts_rows():
    d = Dataset(
        [
            Column("a", "cat", np.array([1, 0, 1, 1, 0]), 2),
            Column("b", "cat", np.array([2, 0, 2, 0, 0]), 3),
        ]
    )
    t = CountTable.of(d)
    assert t.names == ["a", "b"] and t.n == 5
    assert t.codes.tolist() == [[0, 1, 1], [0, 0, 1]]  # rows (0,0), (1,0), (1,2)
    assert t.counts.tolist() == [2, 1, 2]
    assert Dataset(list(t.columns)) == d
    rep = t.take_rows(np.array([0, 0, 3]))
    assert rep.codes is t.codes and rep.n == 3
    assert rep.counts.tolist() == [0, 1, 2]
    assert Dataset(list(rep.columns)) == d.take_rows(np.array([0, 0, 3]))


def test_count_table_codes_only_the_levels_that_occur():
    # gapped levels, and declared arities far past the levels that occur
    d = Dataset(
        [
            Column("a", "cat", np.array([7, 0, 7, 3]), 2**63 - 1),
            Column("b", "cat", np.array([2**62, 5, 2**62, 2**62]), 2**62 + 1),
            Column("c", "cat", np.array([1, 1, 1, 1]), 4),
        ]
    )
    t = CountTable.of(d)
    assert t.arities.tolist() == [3, 2, 1]
    assert [v.tolist() for v in t.levels] == [[0, 3, 7], [5, 2**62], [1]]
    assert t.declared == [2**63 - 1, 2**62 + 1, 4]
    assert t.codes.dtype == np.uint8
    assert t.codes.tolist() == [[0, 1, 2], [0, 1, 1], [0, 0, 0]]  # rows (0,5,1), (3,2^62,1), (7,2^62,1)
    assert t.counts.tolist() == [1, 1, 2]
    assert Dataset(list(t.columns)) == d
    assert Dataset(list(t.take_rows(np.array([3, 3])).columns)) == d.take_rows(np.array([3, 3]))


def test_count_table_needs_categorical_columns():
    d = Dataset([Column("a", "cat", np.array([0, 1]), 2), Column("x", "cont", [0.5, 1.5])])
    with pytest.raises(InputError, match="'x'"):
        CountTable.of(d)


# -- read_csv_text against the row-at-a-time reference ----------------------------

# g has levels of up to four digits, past the lookup cap; the name ñ takes
# two bytes in UTF-8, so byte offsets past it differ from character offsets
CSV_SCHEMA = {
    "a": ("cat", 2),
    "b": ("cat", 3),
    "c": ("cat", 12),
    "g": ("cat", _LEVELS_CAP + 904),
    "x": ("cont", None),
    "ñ": ("cat", 150),
}
FIELD_LIMIT = csv.field_size_limit()
# cells in canonical form, then cells that are not: padded, signed, quoted,
# past int64, empty, non-numbers, a carriage return or NUL inside a field,
# non-ASCII digits and spaces
EDGE_LEVELS = (9, 10, 99, 100, 149, 999, 1000, _LEVELS_CAP - 1, _LEVELS_CAP, _LEVELS_CAP + 903)
CANONICAL = {
    "cat": lambda arity: st.one_of(
        st.integers(0, arity - 1), st.sampled_from([v for v in EDGE_LEVELS if v < arity] or [0])
    ).map(str),
    "cont": lambda _: st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr), st.integers(-5, 5).map(str)
    ),
}
ODD = {
    "cat": st.one_of(
        st.integers(0, 12).map(str),
        st.sampled_from([" 1", "1 ", "01", "+1", "-0", "-1", '"1"', '"1,0"', "1.0", "1_0"]),
        st.sampled_from(["99999999999999999999", "-99999999999999999999", str(2**63)]),
        st.sampled_from(["", "  ", "zap", "\u0661", "0x1", "1\r0", "1\x00", "\x00"]),
        st.sampled_from(["\u00a01", "1\u3000", "é", "\u0661\u0660"]),
    ),
    "cont": st.one_of(
        st.sampled_from(["1e3", " 2.5", "2.5 ", '"0.5"', "-0", "1_0", "nan", "inf", "-inf"]),
        st.sampled_from(["", "  ", "zap", "1,5", "1\r0", "0.5\x00", "\u00a00.5", "\u0661.5"]),
    ),
}


def _filler(header, k):
    """k rows of canonical cells."""
    levels = {"a": "1", "b": "2", "c": "11", "g": str(_LEVELS_CAP - 1), "x": "0.5", "ñ": "149"}
    return [",".join(levels[h] for h in header)] * k


@st.composite
def csv_texts(draw):
    """Header-first CSV over some of CSV_SCHEMA's columns: mostly canonical
    rows, each other row with one fault, and runs of about _CSV_BLOCK rows."""
    header = draw(
        st.lists(st.sampled_from(sorted(CSV_SCHEMA)), min_size=1, max_size=4, unique=True)
    )
    kinds = [CSV_SCHEMA[h] for h in header]

    def row():
        out = [draw(CANONICAL[kind](arity)) for kind, arity in kinds]
        fault = draw(
            st.sampled_from([None] * 6 + ["cell", "blank", "spaces", "short", "long", "huge"])
        )
        if fault in ("cell", "huge"):
            j = draw(st.integers(0, len(out) - 1))
            out[j] = draw(ODD[kinds[j][0]]) if fault == "cell" else "1" * (FIELD_LIMIT + 1)
        return {
            "blank": "",
            "spaces": "   ",
            "short": ",".join(out[:-1]),
            "long": ",".join(out + ["0"]),
        }.get(fault, ",".join(out))

    lines = [""] * draw(st.integers(0, 2))  # leading blank lines
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            lines += _filler(header, _CSV_BLOCK + draw(st.integers(-1, 1)))
        else:
            lines += [row() for _ in range(draw(st.integers(0, 5)))]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join([",".join(header)] + lines) + eol * draw(st.integers(0, 2))


def _outcome(parse, text):
    try:
        return parse(text, CSV_SCHEMA, source="t.csv")
    except Exception as exc:  # the exception's type and message are the outcome
        return type(exc), str(exc)


def _assert_matches_reference(text):
    got, want = _outcome(read_csv_text, text), _outcome(reference_read_csv_text, text)
    if isinstance(want, Dataset):
        assert isinstance(got, Dataset) and got == want
    else:
        assert got == want


def _csv(*rows):
    return "\n".join(rows) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=csv_texts())
@example(text=_csv("a,x", "1", "1,0.5\r1,0.5"))  # a short row, then a lone CR, in one block
# in column a: a bad cell, then a missing value a block later; a missing value,
# then a padded level; two different bad cells
@example(text=_csv("a,x", "zap,0.5", *_filler(["a", "x"], _CSV_BLOCK), ",0.5"))
@example(text=_csv("a,x", ",0.5", *_filler(["a", "x"], _CSV_BLOCK), " 1,0.5"))
@example(text=_csv("a,x", "zap,0.5", *_filler(["a", "x"], _CSV_BLOCK), "zip,0.5"))
@example(text=_csv("a,x", "zap,0.5", "1,"))  # a bad cell in a, a missing value in x
@example(text=_csv("a,x", "7,0.5", "1,"))  # a level out of range in a, a missing value in x
@example(text=_csv("a,x", "99999999999999999999,0.5", "1,"))  # the same, past int64
@example(text=_csv("a,x", "-99999999999999999999,0.5", ",0.5"))  # a missing value outranks it
# a quote, a NUL or a field past csv's limit first in a later block, and a
# line exactly at the limit
@example(text=_csv("a,x", *_filler(["a", "x"], _CSV_BLOCK + 3), '"1",0.5', "0,0.5"))
@example(text=_csv("a,x", *_filler(["a", "x"], _CSV_BLOCK + 3), "1\x00,0.5", "0,0.5"))
@example(text=_csv("a,x", *_filler(["a", "x"], _CSV_BLOCK + 3), "1," + "5" * FIELD_LIMIT))
@example(text=_csv("a", *_filler(["a"], 2 * _CSV_BLOCK), "1" * FIELD_LIMIT))
@example(text=_csv("a", "1", "1" * (FIELD_LIMIT - 1) + "é"))  # limit chars, more bytes
# leading, consecutive and trailing blank lines; no newline after the last row
@example(text=_csv("a,x", "", "", "1,0.5", "", "", "0,0.5", "", ""))
@example(text="a,x\n\n1,0.5\n0,0.5")
@example(text="a\n1\n\n0")
@example(text=_csv("a", *[""] * (_CSV_BLOCK + 1), "1"))  # a block of blank lines only
# non-ASCII names and cells ahead of canonical cells
@example(text=_csv("ñ,a", "\u00a01,1", "149,0", "\u0661\u0660,1", "3,0"))
@example(text=_csv("x,ñ", "\u0661.5,7", "é,1", "0.5,12"))
# levels of 2-4 digits, at and past the lookup cap, in one-column files
@example(text=_csv("g", "10", "99", "100", "999", "1000", str(_LEVELS_CAP - 1)))
@example(text=_csv("g", str(_LEVELS_CAP), str(_LEVELS_CAP + 903), "0"))
@example(text=_csv("g", str(_LEVELS_CAP + 904)))  # out of range
@example(text=_csv("ñ", "150", "0150"))
@example(text=_csv("g,ñ", "1_0,1", "2,1x", "3,2"))  # a non-digit after the first digit
@example(text=_csv("c", "12"))
# a quoted block whose non-ASCII cells, more bytes than characters, come
# ahead of canonical ones in their rows
@example(text=_csv("ñ,a,x", '"\u0661\u0660",1,\u0661.5', "149,0,0.5", "é,1,0.5", "3,1,0.5"))
@example(text="a,x\r1,0.5\r0,0.5\r")  # CR-only line ends
# a plain body whose first row of the wrong width follows a clean block
@example(text=_csv("a,x", *_filler(["a", "x"], _CSV_BLOCK), "1,0.5", "1", "0,0.5,1"))
def test_read_csv_text_matches_the_row_reference(text):
    _assert_matches_reference(text)


def test_width_error_in_a_later_block_comes_before_a_bad_cell():
    header = ["a", "x"]
    text = "\n".join(
        ["a,x"]
        + _filler(header, _CSV_BLOCK + 5)
        + ["7,0.5"]  # out of range, in the second block
        + _filler(header, _CSV_BLOCK)
        + ["1"]  # short, in the third block
        + _filler(header, 3)
    )
    with pytest.raises(InputError, match=f"line {2 * _CSV_BLOCK + 8}: expected 2 fields, got 1"):
        read_csv_text(text, CSV_SCHEMA)
    _assert_matches_reference(text)


def test_a_file_and_its_text_read_alike_whatever_the_line_ends(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    texts = [
        "a,x\n1,0.5\n0,0.5\n",
        "a,x\r\n1,0.5\r\n0,0.5\r\n",
        "a,x\r1,0.5\r0,0.5\r",
        "a,x\n1,0.5\r0,0.5\n",  # a lone CR mid-file
        'a,x\r\n"1\r\n",0.5\r\n0,0.5\r\n',  # a quoted cell that holds CRLF
    ]
    want = read_csv_text("a,x\n1,0.5\n0,0.5\n", CSV_SCHEMA)
    short = (InputError, "t.csv line 3: expected 2 fields, got 1")
    for text in texts + [t.replace("0,0.5", "0") for t in texts]:  # then a short last row
        (tmp_path / "t.csv").write_bytes(text.encode())
        from_file = _outcome(lambda _, schema, source: read_csv(source, schema), text)
        assert from_file == _outcome(read_csv_text, text)
        assert from_file == (want if "0,0.5" in text else short)


def test_crlf_text_is_split_without_csv(monkeypatch):
    seen = _lines_seen_by_csv(monkeypatch)
    d = read_csv_text("a,x\r\n" + "1,0.5\r\n" * (_CSV_BLOCK + 3), CSV_SCHEMA)
    assert d.n == _CSV_BLOCK + 3
    assert seen == ["a,x\n"]  # csv parses the header only


def test_one_column_blank_line_is_skipped_but_spaces_are_a_missing_value():
    assert read_csv_text("a\n1\n\n0\n", CSV_SCHEMA).col("a").values.tolist() == [1, 0]
    with pytest.raises(InputError, match="missing value in column 'a'"):
        read_csv_text("a\n1\n  \n0\n", CSV_SCHEMA)
    for text in ("a\n1\n\n0\n", "a\n1\n  \n0\n", 'a\n""\n'):
        _assert_matches_reference(text)


def test_canonical_text_is_decoded_without_parsing_cells(monkeypatch):
    rng = np.random.default_rng(0)
    n = 3 * _CSV_BLOCK + 7
    d = Dataset(
        [
            Column("a", "cat", rng.integers(0, 2, n), 2),
            Column("c", "cat", rng.integers(0, 12, n), 12),
            Column("x", "cont", rng.normal(size=n).round(6)),
        ]
    )
    text = "a,c,x\n" + "".join(
        f"{a},{c},{x!r}\n" for a, c, x in zip(*(col.values.tolist() for col in d.columns))
    )
    monkeypatch.setattr(data, "_parse_cells", None)  # calling it would raise
    seen = _lines_seen_by_csv(monkeypatch)
    assert read_csv_text(text, CSV_SCHEMA) == d
    assert seen == ["a,c,x\n"]  # csv parses the header only


def _lines_seen_by_csv(monkeypatch):
    """The lines every csv.reader made from now on reads, in order."""
    seen, reader = [], csv.reader
    monkeypatch.setattr(csv, "reader", lambda lines: reader(seen.append(x) or x for x in lines))
    return seen


@pytest.mark.parametrize(
    "body, plain",
    [
        ("1,0.5\n0,0.5\n", True),
        ("\n\n1,0.5\n\n0,0.5", True),  # blank lines, no newline at the end
        ("\u00a01,0.5\n", True),
        ("1," + "5" * (FIELD_LIMIT - 2) + "\n", True),  # a line at csv's field limit
        ("1," + "5" * (FIELD_LIMIT - 1) + "\n", False),
        ("1,0.5\n" * _CSV_BLOCK + '1,"0.5"\n', False),
        ("1,0.5\n" * _CSV_BLOCK + "1,0.5\r\n", True),
        ("1,0.5\n" * _CSV_BLOCK + "1,0.5\x00\n", False),
    ],
)
def test_only_a_plain_body_is_split_without_csv(monkeypatch, body, plain):
    seen = _lines_seen_by_csv(monkeypatch)
    _outcome(read_csv_text, '"a",x\n' + body)  # a quoted header is not part of the body
    assert (seen == ['"a",x\n']) == plain


def test_a_padded_cell_sends_only_its_column_slice_to_the_cell_parser(monkeypatch):
    header = ["a", "c", "x"]
    text = _csv("a,c,x", *_filler(header, 2 * _CSV_BLOCK + 5), "1, 3,0.5", *_filler(header, 4))
    parse_cells, slices = data._parse_cells, []

    def spy(cells, *args):
        slices.append(cells)
        return parse_cells(cells, *args)

    monkeypatch.setattr(data, "_parse_cells", spy)
    got = read_csv_text(text, CSV_SCHEMA)
    assert slices == [["11"] * 5 + [" 3"] + ["11"] * 4]  # column c of the third block
    assert got == reference_read_csv_text(text, CSV_SCHEMA)
    assert got.col("c").values[2 * _CSV_BLOCK + 5] == 3


@pytest.mark.parametrize(
    "column, cell",
    [("a", "2"), ("c", "01"), ("ñ", "0150"), ("g", str(_LEVELS_CAP)), ("g", " 1"), ("x", "١")],
)
def test_plain_and_csv_bodies_send_the_same_slices_to_the_cell_parser(monkeypatch, column, cell):
    # a level that is out of range, zero-padded or past the lookup cap is not
    # canonical on either path; a quoted first filler cell sends the same
    # cells through csv
    parse_cells, slices = data._parse_cells, {}
    filler = _filler([column], _CSV_BLOCK + 2)
    for first in (filler[0], f'"{filler[0]}"'):
        calls = slices[first] = []

        def spy(cells, *args):
            calls.append(cells)
            return parse_cells(cells, *args)

        monkeypatch.setattr(data, "_parse_cells", spy)
        _assert_matches_reference(_csv(column, first, *filler[1:], cell, *_filler([column], 3)))
    plain, quoted = slices.values()
    assert len(plain) == (column != "x") and plain == quoted


def test_levels_past_the_lookup_cap_are_parsed_cell_by_cell():
    big = {"g": ("cat", 10**9)}
    d = read_csv_text(f"g\n0\n{10**9 - 1}\n", big)
    assert d.col("g").values.tolist() == [0, 10**9 - 1]
