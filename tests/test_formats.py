"""Serialization round-trips and the diagnostics for malformed files."""

import json
import os

import numpy as np
import pytest

from timepovm.formats import (
    PovmFormatError,
    atomic_write_text,
    bound_record,
    format_record,
    load_povm,
    load_state_table,
    save_povm,
    save_state_table,
)
from timepovm.model import EnergyGrid, build_sharp_time_povm, validate_povm
from timepovm.uncertainty import BoundReport


@pytest.fixture()
def sharp4_file(tmp_path):
    grid = EnergyGrid(4, 0.7, offset=-0.5 * 3 * 0.7)
    povm = build_sharp_time_povm(grid)
    path = tmp_path / "sharp4.json"
    save_povm(povm, path)
    return povm, path


def rewrite(path, doc):
    path.write_text(json.dumps(doc) + "\n")
    return path


def test_povm_round_trip_exact(sharp4_file):
    povm, path = sharp4_file
    loaded = load_povm(path)
    assert loaded.n_bins == povm.n_bins
    assert loaded.dim == povm.dim
    assert loaded.label == povm.label
    assert loaded.lattice.tau == povm.lattice.tau
    assert np.max(np.abs(loaded.grid.energies - povm.grid.energies)) <= 1e-15
    for k in range(povm.n_bins):
        assert np.array_equal(loaded.effect(k), povm.effect(k))
    assert validate_povm(loaded).passed


def test_halfline_round_trip_keeps_flag(halfline64, tmp_path):
    path = tmp_path / "half.json"
    save_povm(halfline64, path)
    loaded = load_povm(path)
    assert loaded.grid.halfline
    assert loaded.grid.energies[0] == 0.0
    assert loaded.n_bins == halfline64.n_bins
    assert loaded.dim == halfline64.dim
    for k in (0, halfline64.n_bins // 2, halfline64.n_bins - 1):
        assert np.array_equal(loaded.effect(k), halfline64.effect(k))


def test_load_missing_and_empty(tmp_path):
    with pytest.raises(PovmFormatError, match="No such file"):
        load_povm(tmp_path / "absent.json")
    empty = tmp_path / "empty.json"
    empty.write_text("  \n")
    with pytest.raises(PovmFormatError, match="empty file"):
        load_povm(empty)


def test_load_reports_parse_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_bins": 4,\n "dim": oops}\n')
    with pytest.raises(PovmFormatError, match=r"line 2 column"):
        load_povm(bad)


def test_load_rejects_non_object(tmp_path):
    bad = rewrite(tmp_path / "arr.json", [1, 2, 3])
    with pytest.raises(PovmFormatError, match="top level must be an object, got list"):
        load_povm(bad)


@pytest.mark.parametrize("missing", ["n_bins", "dim", "tau", "energies", "effects"])
def test_load_missing_field(sharp4_file, tmp_path, missing):
    _, path = sharp4_file
    doc = json.loads(path.read_text())
    del doc[missing]
    bad = rewrite(tmp_path / "m.json", doc)
    with pytest.raises(PovmFormatError, match=f"missing field {missing}"):
        load_povm(bad)


def test_load_unknown_field(sharp4_file, tmp_path):
    _, path = sharp4_file
    doc = json.loads(path.read_text())
    doc["comment"] = "hello"
    bad = rewrite(tmp_path / "u.json", doc)
    with pytest.raises(PovmFormatError, match="unknown field comment"):
        load_povm(bad)


@pytest.mark.parametrize(
    "field,value,complaint",
    [
        ("n_bins", True, "must be an integer"),
        ("n_bins", 2.0, "must be an integer"),
        ("n_bins", 1, ">= 2"),
        ("dim", "4", "must be an integer"),
        ("tau", -1.0, "positive finite"),
        ("tau", "soon", "positive finite"),
        ("label", 7, "must be a string"),
    ],
)
def test_load_scalar_field_diagnostics(sharp4_file, tmp_path, field, value, complaint):
    _, path = sharp4_file
    doc = json.loads(path.read_text())
    doc[field] = value
    bad = rewrite(tmp_path / "s.json", doc)
    with pytest.raises(PovmFormatError, match=complaint):
        load_povm(bad)


def test_load_energy_diagnostics(sharp4_file, tmp_path):
    _, path = sharp4_file
    base = json.loads(path.read_text())

    doc = dict(base, energies=base["energies"][:-1])
    with pytest.raises(PovmFormatError, match="must hold 4 numbers"):
        load_povm(rewrite(tmp_path / "e1.json", doc))

    doc = dict(base, energies=[0.0, 1.0, "two", 3.0])
    with pytest.raises(PovmFormatError, match=r"energies\[2\] is not a number"):
        load_povm(rewrite(tmp_path / "e2.json", doc))

    doc = dict(base, energies=[0.0, 1.0, 2.5, 3.0])
    with pytest.raises(PovmFormatError, match="not uniformly spaced"):
        load_povm(rewrite(tmp_path / "e3.json", doc))

    doc = dict(base, energies=[3.0, 2.0, 1.0, 0.0])
    with pytest.raises(PovmFormatError, match="must increase"):
        load_povm(rewrite(tmp_path / "e4.json", doc))

    bad = tmp_path / "e5.json"
    bad.write_text(json.dumps(dict(base, energies=[0.0, 1.0, 2.0, 1e999])) + "\n")
    with pytest.raises(PovmFormatError, match="non-finite energies"):
        load_povm(bad)


def test_load_effect_diagnostics(sharp4_file, tmp_path):
    _, path = sharp4_file
    base = json.loads(path.read_text())

    doc = dict(base, effects=base["effects"][:2])
    with pytest.raises(PovmFormatError, match="must hold 4 entries"):
        load_povm(rewrite(tmp_path / "f1.json", doc))

    doc = json.loads(path.read_text())
    del doc["effects"][1]["im"]
    with pytest.raises(PovmFormatError, match=r"effects\[1\] must be an object with fields re and im"):
        load_povm(rewrite(tmp_path / "f2.json", doc))

    doc = json.loads(path.read_text())
    doc["effects"][0]["re"] = doc["effects"][0]["re"][:3]
    with pytest.raises(PovmFormatError, match=r"effects\[0\].re: expected 4 rows"):
        load_povm(rewrite(tmp_path / "f3.json", doc))

    doc = json.loads(path.read_text())
    doc["effects"][2]["im"][1] = [0.0, 0.0]
    with pytest.raises(PovmFormatError, match=r"effects\[2\].im row 1: expected 4 numbers"):
        load_povm(rewrite(tmp_path / "f4.json", doc))

    doc = json.loads(path.read_text())
    doc["effects"][3]["re"][0][2] = None
    with pytest.raises(PovmFormatError, match=r"effects\[3\].re row 0 column 2: not a number"):
        load_povm(rewrite(tmp_path / "f5.json", doc))

    doc = json.loads(path.read_text())
    doc["effects"][0]["re"][0][0] = 1e999
    bad = tmp_path / "f6.json"
    bad.write_text(json.dumps(doc) + "\n")
    with pytest.raises(PovmFormatError, match="non-finite entries"):
        load_povm(bad)


def test_load_names_the_first_non_number(tmp_path):
    path = tmp_path / "sharp8.json"
    save_povm(build_sharp_time_povm(EnergyGrid(8, 0.7, offset=-4 * 0.7)), path)
    base = json.loads(path.read_text())
    for value, shown in ((True, "True"), ("0.5", "'0.5'")):
        doc = json.loads(json.dumps(base))
        doc["effects"][2]["im"][3][5] = value
        with pytest.raises(PovmFormatError) as err:
            load_povm(rewrite(tmp_path / "bad.json", doc))
        assert str(err.value) == f"{tmp_path / 'bad.json'}: effects[2].im row 3 column 5: not a number: {shown}"


def test_tampered_file_loads_but_fails_validation(sharp4_file, tmp_path):
    # structurally fine, physically wrong: loader accepts, validator refuses
    _, path = sharp4_file
    doc = json.loads(path.read_text())
    doc["effects"][0]["re"][0][0] += 0.25
    loaded = load_povm(rewrite(tmp_path / "t.json", doc))
    assert not validate_povm(loaded).passed


def test_state_table_round_trip(reference_minimal_state, tmp_path):
    path = tmp_path / "state.dat"
    save_state_table(reference_minimal_state, path)
    assert path.read_text().startswith("# x phi\n")
    loaded = load_state_table(path)
    assert np.array_equal(loaded.values, reference_minimal_state.values)
    assert abs(loaded.h - reference_minimal_state.h) <= 1e-18
    assert abs(loaded.L - reference_minimal_state.L) <= 1e-12


def test_state_table_diagnostics(tmp_path):
    one_col = tmp_path / "one.dat"
    one_col.write_text("# x phi\n1.0\n2.0\n")
    with pytest.raises(PovmFormatError, match="two columns"):
        load_state_table(one_col)

    short = tmp_path / "short.dat"
    short.write_text("0.5 1.0\n")
    with pytest.raises(PovmFormatError, match="at least two rows"):
        load_state_table(short)

    ragged = tmp_path / "ragged.dat"
    ragged.write_text("0.1 1.0\n0.2 2.0\n0.45 1.0\n")
    with pytest.raises(PovmFormatError, match="not uniformly spaced"):
        load_state_table(ragged)

    shifted = tmp_path / "shifted.dat"
    shifted.write_text("0.0 1.0\n0.1 2.0\n0.2 1.0\n")
    with pytest.raises(PovmFormatError, match="one spacing inside the wall"):
        load_state_table(shifted)

    garbage = tmp_path / "garbage.dat"
    garbage.write_text("once upon a grid\n")
    with pytest.raises(PovmFormatError):
        load_state_table(garbage)

    unnormalized = tmp_path / "unnorm.dat"
    unnormalized.write_text("0.5 3.0\n1.0 3.0\n1.5 3.0\n")
    with pytest.raises(PovmFormatError, match="unit norm"):
        load_state_table(unnormalized)


def test_format_record_rendering():
    line = format_record({"check": "demo", "pass": True, "err": 1.25e-4, "n": 64, "flaky": False})
    assert line == "check=demo pass=true err=0.000125 n=64 flaky=false"
    with pytest.raises(ValueError, match="not representable"):
        format_record({"bad key": 1})
    with pytest.raises(ValueError, match="not representable"):
        format_record({"k=v": 1})


def test_bound_record_order_and_content():
    report = BoundReport(
        name="spread-spread",
        lhs=0.5001,
        rhs=0.5,
        tolerance=1e-3,
        reliable=True,
        context={"time_std": 1.2, "energy_std": 0.42},
    )
    rec = bound_record(report, n=512)
    assert list(rec) == ["bound", "lhs", "rhs", "margin", "pass", "n", "reliable", "energy_std", "time_std"]
    assert rec["bound"] == "spread-spread"
    assert rec["pass"] is True
    assert abs(rec["margin"] - 1e-4) <= 1e-12
    rec = bound_record(report)
    assert "n" not in rec


def test_atomic_write_leaves_no_temp(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "payload\n")
    assert target.read_text() == "payload\n"
    atomic_write_text(target, "replaced\n")
    assert target.read_text() == "replaced\n"
    with pytest.raises(TypeError):
        atomic_write_text(tmp_path / "never.txt", 123)
    assert sorted(os.listdir(tmp_path)) == ["out.txt"]
