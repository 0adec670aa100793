"""The one formatter of output tables and JSON documents."""

import errno
import os

import numpy as np
import pytest

from hcl.errors import NumericError, OutputError
from hcl.ioutil import atomic_write_text, csv_text, json_text


def test_csv_text_cell_bytes():
    text = csv_text(["x", "flag", "empty", "n", "name"],
                    [(np.float64(0.1), True, None, 3, "hcl-u@two-view"),
                     (1.0, np.bool_(False), 2, np.int64(7), "")])
    assert text == ("x,flag,empty,n,name\n"
                    "0.1,true,,3,hcl-u@two-view\n"
                    "1.0,false,2,7,\n")


def test_csv_text_floats_round_trip():
    values = [np.float64(1) / 3, float("nan"), 1e-300, np.float32(0.1)]
    cells = csv_text(["v"], [(v,) for v in values]).splitlines()[1:]
    assert cells == ["0.3333333333333333", "nan", "1e-300",
                     "0.10000000149011612"]
    assert float(cells[0]) == 1 / 3


def test_json_text_sorted_indented_newline():
    doc = {"b": [np.float64(0.25)], "a": {"y": 1, "x": None}}
    assert json_text(doc) == (
        '{\n  "a": {\n    "x": null,\n    "y": 1\n  },\n'
        '  "b": [\n    0.25\n  ]\n}\n'
    )


@pytest.mark.parametrize("value", [float("nan"), np.float64("inf"), -np.inf])
def test_json_text_refuses_non_finite_numbers(value):
    # strict JSON has no token for them; the error is a named HclError
    with pytest.raises(NumericError, match="cannot write a JSON document"):
        json_text({"report": {"per_label": [0.5, value]}})


def test_atomic_write_failure_is_named_and_leaves_no_temp_file(tmp_path,
                                                               monkeypatch):
    # the rename fails after the temp file is written: the temp file goes,
    # the file already at the path keeps its bytes, and the OSError becomes
    # an OutputError naming the path and the reason
    target = tmp_path / "metrics.csv"
    target.write_text("old\n")

    def replace(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OutputError) as info:
        atomic_write_text(str(target), "new\n")
    assert str(info.value) == (f"cannot write {target}: "
                               f"{os.strerror(errno.ENOSPC)}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv"]
    assert target.read_text() == "old\n"


def test_atomic_write_of_unencodable_text_raises_it_unchanged(tmp_path):
    # a lone surrogate has no UTF-8 form: the write fails with a
    # UnicodeEncodeError, not an OSError, which goes out as it came, and
    # the temp file goes with it
    target = tmp_path / "metrics.csv"
    target.write_text("old\n")
    with pytest.raises(UnicodeEncodeError, match="surrogate"):
        atomic_write_text(str(target), "new \ud800\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv"]
    assert target.read_text() == "old\n"


def test_atomic_write_into_a_directory_is_named(tmp_path):
    taken = tmp_path / "run.json"
    taken.mkdir()
    with pytest.raises(OutputError, match=f"^cannot write {taken}: "
                       "Is a directory$"):
        atomic_write_text(str(taken), "{}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
    assert not any(taken.iterdir())
