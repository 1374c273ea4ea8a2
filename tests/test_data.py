import numpy as np
import pytest

from pagaudit.data import (
    Column,
    Dataset,
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
