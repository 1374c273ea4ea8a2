import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pagaudit.data import (
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
        read_csv_text("\n", SCHEMA)  # blank header


def test_categorical_range_enforced():
    with pytest.raises(SchemaError):
        read_csv_text("a,b,x\n0,3,1.0\n", SCHEMA)  # b out of arity 3
    with pytest.raises(SchemaError):
        read_csv_text("a,b,x\n-1,0,1.0\n", SCHEMA)


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


def test_columns_are_immutable():
    d = read_csv_text("a,b,x\n0,2,1.5\n", SCHEMA)
    with pytest.raises(ValueError):
        d.col("a").values[0] = 1


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
    assert t.codes.tolist() == [[0, 1, 1], [0, 0, 2]]  # rows (0,0), (1,0), (1,2)
    assert t.counts.tolist() == [2, 1, 2]
    assert Dataset(list(t.columns)) == d
    rep = t.take_rows(np.array([0, 0, 3]))
    assert rep.codes is t.codes and rep.n == 3
    assert rep.counts.tolist() == [0, 1, 2]
    assert Dataset(list(rep.columns)) == d.take_rows(np.array([0, 0, 3]))


def test_count_table_needs_categorical_columns():
    d = Dataset([Column("a", "cat", np.array([0, 1]), 2), Column("x", "cont", [0.5, 1.5])])
    with pytest.raises(InputError, match="'x'"):
        CountTable.of(d)
