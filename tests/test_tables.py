import io

import pytest

from kinnav.tables import read_table, write_table

TYPES = {"step": int, "x": float, "tag": str}


def test_write_read_roundtrip_path_and_stream(tmp_path):
    records = [{"step": 1, "x": 0.1234567891, "tag": "a"},
               {"step": 2, "x": -3e-9, "tag": "b c"}]
    buf = io.StringIO()
    write_table(buf, TYPES, records)
    assert buf.getvalue() == "step,x,tag\n1,0.123457,a\n2,-3e-09,b c\n"
    path = str(tmp_path / "t.csv")
    write_table(path, TYPES, records)
    with open(path, newline="") as f:
        assert f.read() == buf.getvalue()
    buf.seek(0)
    back = [{"step": 1, "x": 0.123457, "tag": "a"}, {"step": 2, "x": -3e-09, "tag": "b c"}]
    assert read_table(buf, TYPES) == read_table(path, TYPES) == back


def test_columns_by_name_extras_ignored_blank_lines_skipped():
    text = "tag,extra,x,step\nq,9,1.5,3\n\nr,8,2,4\n"
    assert read_table(io.StringIO(text), TYPES) == [
        {"step": 3, "x": 1.5, "tag": "q"}, {"step": 4, "x": 2.0, "tag": "r"}]


@pytest.mark.parametrize("text, message", [
    ("", "<stream>: missing column(s) step, x, tag"),
    ("step,x,tag\n1.5,2,a\n", "<stream>: line 2: invalid literal for int() with base 10: '1.5'"),
])
def test_bad_tables_rejected(text, message):
    with pytest.raises(ValueError) as exc:
        read_table(io.StringIO(text), TYPES)
    assert str(exc.value) == message
