"""The columnar CSV writer against the row writer it replaced: csv.writer
with minimal quoting over format_number's cells, one row at a time; and the
one-pass JSON writer against json.dump with indent=2 and sort_keys=True.
Every case must come out byte for byte the same."""

import csv
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from metronlab import cli
from metronlab.io import _json_default, format_number, write_csv, write_json


def oracle_csv(path, columns):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(list(columns))
        for row in zip(*columns.values()):
            writer.writerow([format_number(v) for v in row])
    return path


def _many_magnitudes():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(9000) * 10.0 ** rng.integers(-300, 300, 9000)
    return {"x": x, "y": np.repeat(x[:90], 100), "i": np.arange(9000)}


CASES = {
    "signed_zeros": lambda: {"z": np.array([-0.0, 0.0, -0.0, 0.0]),
                             "w": [-0.0, 0.0, np.float64(-0.0), 0.0]},
    "nan_and_inf": lambda: {"x": np.array([np.nan, np.inf, -np.inf, -np.nan, 1.0])},
    "subnormal_and_tenth": lambda: {"x": np.array([5e-324, 0.1, -5e-324, 0.1])},
    "beyond_2_53": lambda: {"x": np.array([2**53 + 1.0, 2.0**53, 2**53 + 2.0]),
                            "i": np.array([2**53 + 1, 2**53, -(2**62)], dtype=np.int64)},
    "repeated_values": lambda: {"phi": np.tile(np.linspace(0.0, 6.2832, 7), 50),
                                "ratio": np.repeat(np.linspace(0.0, 3.0, 50), 7)},
    "int_and_bool": lambda: {"i": np.arange(-3, 3, dtype=np.int64),
                             "b": np.array([True, False] * 3),
                             "nb": [np.bool_(True), np.bool_(False)] * 3,
                             "pb": [True, False, True, 1, 0, 2]},
    "complex": lambda: {"c": np.array([1 + 2j, -0.0 - 1e-300j, complex(np.nan, np.inf)]),
                        "l": [0.5j, 1 + 0j, complex(-1, -0.0)]},
    "special_strings": lambda: {"s": ["a,b", 'say "hi"', "cr\r", "lf\n", "crlf\r\n",
                                      "plain", "", '"'],
                                "x": np.arange(8.0)},
    "str_array": lambda: {"v": np.array(["Trapped", "a,b", "", 'q"', "cr\r"] * 3),
                          "u": np.arange(15, dtype=np.uint64)},
    "one_empty_cell": lambda: {"": ["", "a", "", "b,c"]},
    "one_empty_cell_array": lambda: {"v": np.array(["", "a", ""])},
    "no_columns": lambda: {},
    "zero_rows": lambda: {"a": np.array([]), "b": [], "c": np.array([], dtype=np.int64)},
    "quoted_header": lambda: {"a,b": [1.0], 'q"x': [2], "line\nbreak": ["s"]},
    "mixed_list": lambda: {"m": [0.1, "ok", 3, None, np.float32(0.1), 2.5]},
    "float32_array": lambda: {"f": np.array([0.1, 1e-40, np.nan], dtype=np.float32)},
    "strided_view": lambda: {"k": np.arange(12.0).reshape(3, 4)[:, 1],
                             "t": np.linspace(0.0, 1.0, 3)},
    "many_blocks": _many_magnitudes,
}


@pytest.mark.parametrize("case", list(CASES))
def test_bytes_match_the_row_writer(tmp_path, case):
    got = write_csv(tmp_path / "got.csv", CASES[case]())
    want = oracle_csv(tmp_path / "want.csv", CASES[case]())
    assert got == tmp_path / "got.csv"
    assert got.read_bytes() == want.read_bytes()


def test_mismatched_lengths_are_refused(tmp_path):
    with pytest.raises(ValueError, match="length"):
        write_csv(tmp_path / "bad.csv", {"a": np.zeros(3), "b": [1, 2]})


@pytest.mark.parametrize("argv", [
    ["bragg-sweep", "--ratio", "0:3:100", "--phi", "0:6.2832:100"],
    ["bragg-sweep", "--ratio=-1,0,1,2", "--phi=-0.0,0,3.14159"],
    ["metron-solve", "--n-points", "801"],
])
def test_command_outputs_match_the_row_writer(tmp_path, monkeypatch, argv):
    written = []

    def recording(path, columns):
        written.append((path, columns))
        return write_csv(path, columns)

    monkeypatch.setattr(cli, "write_csv", recording)
    assert cli.run(argv + ["--output-dir", str(tmp_path)]) == 0
    assert written
    for path, columns in written:
        want = oracle_csv(tmp_path / "oracle.csv", columns)
        assert path.read_bytes() == want.read_bytes(), path.name


def oracle_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return path


FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, 2.0**53 + 2.0])
TEXT = st.text(st.characters(codec="utf-8") | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
               max_size=8)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), FLOATS, TEXT,
    st.builds(complex, FLOATS, FLOATS),
    FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.builds(np.complex128, FLOATS, FLOATS),
    st.lists(FLOATS, max_size=12).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(st.integers(-5, 5), min_size=6, max_size=6).map(lambda v: np.reshape(v, (2, 3))),
)
PAYLOADS = st.recursive(LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=5), st.lists(children, max_size=3).map(tuple),
    st.lists(FLOATS, max_size=8), st.dictionaries(TEXT, children, max_size=5),
    st.dictionaries(st.integers(-9, 9) | st.sampled_from([True, False]), children, max_size=3),
    st.dictionaries(FLOATS, children, max_size=3)), max_leaves=20)


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(payload=PAYLOADS)
@example(payload={})
@example(payload=[{}, [], {"a": []}, np.array([]), "é", [[[-0.0]]]])
def test_json_bytes_match_json_dump(tmp_path, payload):
    got = write_json(tmp_path / "got.json", payload)
    assert got == tmp_path / "got.json"
    assert got.read_bytes() == oracle_json(tmp_path / "want.json", payload).read_bytes()


def test_unencodable_json_payloads_raise_as_json_dump_does(tmp_path):
    for payload in ({"a": object()}, {1: 1, "b": 2}, {(1, 2): 3}):
        with pytest.raises(TypeError):
            oracle_json(tmp_path / "want.json", payload)
        with pytest.raises(TypeError):
            write_json(tmp_path / "got.json", payload)
