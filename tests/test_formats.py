"""Serialization round-trips and the diagnostics for malformed files."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from timepovm import formats
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
from timepovm.model import CovariantPOVM, EnergyGrid, TimeLattice, build_sharp_time_povm, validate_povm
from timepovm.uncertainty import BoundReport
from timepovm.variational import GridState


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


@pytest.mark.parametrize("family", ["sharp64", "halfline64", "vector64"])
def test_save_povm_streams_the_whole_document_bytes(family, request, tmp_path, whole_document_text):
    povm = request.getfixturevalue(family)
    path = tmp_path / "povm.json"
    save_povm(povm, path)
    assert path.read_bytes() == whole_document_text(povm).encode()


def test_save_povm_writes_every_number_as_json_does(tmp_path, whole_document_text):
    # each value at both signs: zeros, infinities, NaN (json drops its sign),
    # the smallest and a larger subnormal, and the exponent forms repr picks
    nan_payload = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    values = [0.0, np.inf, np.nan, nan_payload, 5e-324, 1e-310, 1e-05, 1e16, 0.1, 1.0, 2.5e-7, 123456789.0]
    signed = np.array(values + [np.copysign(v, -1.0) for v in values])
    rng = np.random.default_rng(5)
    # two bins of 4 x 4, re and im: 64 entries
    entries = np.concatenate([signed, rng.choice(signed, 64 - signed.size)])
    dense = np.empty((2, 4, 4), dtype=complex)
    dense.real.flat, dense.imag.flat = entries[:32], entries[32:]
    povm = CovariantPOVM(EnergyGrid(4, 0.7, offset=-1.4), TimeLattice(2, 1.0), dense=dense)
    path = tmp_path / "specials.json"
    save_povm(povm, path)
    assert path.read_text() == whole_document_text(povm)
    texts = [formats._json_matrix_pair(m) for m in dense]
    assert texts == [(json.dumps(m.real.tolist()), json.dumps(m.imag.tolist())) for m in dense]
    text = " ".join(t for pair in texts for t in pair)
    for shown in ("-0.0", "-Infinity", "NaN", "5e-324", "-1e-310", "1e-05", "-1e+16", "-2.5e-07"):
        assert shown in text, shown
    assert "-NaN" not in text


def test_hand_made_file_with_signed_zeros_re_saves_byte_for_byte(tmp_path):
    # -0.0 in re beside a positive im is what re + 1j * im turned into 0.0
    rng = np.random.default_rng(3)
    effects = [
        {"re": rng.choice([-0.0, 0.0, 0.25, -0.5], (4, 4)).tolist(), "im": rng.choice([-0.0, 0.5], (4, 4)).tolist()}
        for _ in range(3)
    ]
    doc = {"n_bins": 3, "dim": 4, "tau": 0.5, "energies": [-1.5, -0.5, 0.5, 1.5], "effects": effects, "label": "zeros"}
    text = json.dumps(doc) + "\n"
    assert text.count("-0.0") > 10
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(text)
    loaded = load_povm(first)
    assert all(np.array_equal(np.signbit(loaded.effect(k).real), np.signbit(effects[k]["re"])) for k in range(3))
    save_povm(loaded, second)
    assert second.read_text() == text


def test_save_povm_escapes_the_label_as_json_does(tmp_path, whole_document_text):
    label = 'say "t" \\ back\\slash, café – 時間 \U0001d4af\n'
    povm = dataclasses.replace(build_sharp_time_povm(EnergyGrid(4, 0.7, offset=-1.4)), label=label)
    path = tmp_path / "label.json"
    save_povm(povm, path)
    assert path.read_bytes() == whole_document_text(povm).encode()
    assert load_povm(path).label == label


def test_save_povm_failing_mid_stream_keeps_the_old_file(tmp_path, monkeypatch):
    povm = build_sharp_time_povm(EnergyGrid(8, 0.7, offset=-4 * 0.7))
    target = tmp_path / "povm.json"
    target.write_text("old\n")
    effect = CovariantPOVM.effect

    def failing(self, k):
        if k == 5:
            raise RuntimeError("effect 5 is unavailable")
        return effect(self, k)

    monkeypatch.setattr(CovariantPOVM, "effect", failing)
    with pytest.raises(RuntimeError, match="effect 5"):
        save_povm(povm, target)
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["povm.json"]


def test_save_povm_holds_one_bin_at_a_time(vector64, tmp_path):
    # the whole document would hold 2 * 64^3 Python floats, about 40 MB
    tracemalloc.start()
    try:
        save_povm(vector64, tmp_path / "vector.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak


@pytest.mark.parametrize("family", ["sharp64", "halfline64", "vector64"])
def test_load_povm_reads_the_bits_of_a_whole_document_parse(family, request, tmp_path, whole_document_parts):
    path = tmp_path / "povm.json"
    save_povm(request.getfixturevalue(family), path)
    want, _ = whole_document_parts(path)
    assert np.array_equal(load_povm(path).dense.view(np.uint64), want.view(np.uint64))


def test_load_povm_holds_one_bin_of_floats_at_a_time(vector64, tmp_path):
    # the file is 11.7 MB; as one document of Python floats it held 2 * 64^3
    # of them, and its traced peak was about 32 MB; read whole as bytes and
    # text, 23 MB.  What is left is the parsed effects and the dense copy,
    # 4.2 MB each.
    path = tmp_path / "vector.json"
    save_povm(vector64, path)
    tracemalloc.start()
    try:
        load_povm(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


@pytest.mark.parametrize("window", [1, 7, 64])
def test_load_povm_reads_the_same_through_any_window(window, sharp4_file, tmp_path, monkeypatch, whole_document_parts):
    # every value then starts or ends at an edge of the window, and numbers
    # are cut between their digits, a "." and an exponent
    _, path = sharp4_file
    text = path.read_text()
    signed = tmp_path / "signed.json"
    signed.write_text(text.replace("0.0,", "-0.0,", 5).replace('"label": "', '"label": "\\u03c4 \u00e9 '))
    assert re.search(r"-0\.0,", signed.read_text())
    monkeypatch.setattr(formats, "_WINDOW", window)
    for file in (path, signed):
        loaded = load_povm(file)
        want, label = whole_document_parts(file)
        assert np.array_equal(loaded.dense.view(np.uint64), want.view(np.uint64))
        assert loaded.label == label


def test_load_povm_reads_utf8_whatever_the_locale(sharp4_file, tmp_path):
    # under the C locale, without locale coercion or UTF-8 mode, the
    # locale's encoding is ASCII
    _, path = sharp4_file
    named = tmp_path / "named.json"
    named.write_text(path.read_text().replace('"label": "', '"label": "\u03c4 \u00e9 '), encoding="utf-8")
    src = str(Path(formats.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys; from timepovm.formats import load_povm; print(ascii(load_povm(sys.argv[1]).label))"
    run = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-c", code, str(named)], capture_output=True, text=True, env=env, timeout=60
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.startswith("'\\u03c4 \\xe9 "), run.stdout


@pytest.fixture(scope="module")
def vector64_text(vector64, tmp_path_factory):
    # the n = 64 vector file with each effect on a line of its own, so a
    # fault in effect 40 sits on line 41, some 7 MB into the file
    path = tmp_path_factory.mktemp("vector") / "vector.json"
    save_povm(vector64, path)
    text = path.read_text().replace('}, {"re": ', '},\n{"re": ')
    assert text.count("\n") == 64
    return text


def _effect_40(text):
    return [m.start() for m in re.finditer(r'\{"re": ', text)][40]


def _fault(text, name):
    """The file with the fault ``name``, and the offset the fault sits at."""
    start = _effect_40(text)
    if name == "stray-byte":
        cut = text.index(", ", start)
        return text[:cut] + "@" + text[cut:], cut
    if name == "missing-comma":
        cut = text.rindex(",", 0, start)
        return text[:cut] + text[cut + 1 :], cut
    if name == "cut-mid-number":
        cut = text.index(".", start) + 2
        return text[:cut], cut
    if name == "cut-mid-keyword":
        cut = text.index("[[", start) + 2
        return text[:cut] + "nul", cut
    if name == "cut-mid-string":
        cut = text.index('"im"', start) + 2
        return text[:cut], cut
    if name == "extra-data":
        return text + '{"n_bins": 2}\n', len(text)
    if name == "non-object":
        # what json skips, then the document as the one entry of a list
        return "\n" * formats._WINDOW + "[" + text + "]\n", formats._WINDOW
    if name == "whitespace-only":
        # with one character that str.isspace takes and json does not skip
        return " \r\n\t" * formats._WINDOW + "\x0c\n", 4 * formats._WINDOW
    if name == "form-feed-first":
        # a character json does not skip, before the document
        return "\n" * formats._WINDOW + "\x0c" + text, formats._WINDOW
    if name == "trailing-comma":
        cut = len(text) - 2
        return text[:cut] + ", }\n", cut + 2
    raise AssertionError(name)


def _whole_document_message(path):
    # what the loader said when it parsed the file in one json.loads call
    text = path.read_text()
    if text.isspace():
        return f"{path}: empty file"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
    return f"{path}: top level must be an object, got {type(doc).__name__}"


@pytest.mark.parametrize(
    "name",
    [
        "stray-byte",
        "missing-comma",
        "cut-mid-number",
        "cut-mid-keyword",
        "cut-mid-string",
        "extra-data",
        "non-object",
        "whitespace-only",
        "form-feed-first",
        "trailing-comma",
    ],
)
def test_load_povm_reports_a_fault_past_the_first_window_as_json_does(name, vector64_text, tmp_path):
    text, offset = _fault(vector64_text, name)
    assert offset >= formats._WINDOW
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    with pytest.raises(PovmFormatError) as err:
        load_povm(bad)
    assert str(err.value) == _whole_document_message(bad)


def test_load_povm_keeps_the_last_of_two_effects_arrays(vector64_text, tmp_path, whole_document_parts):
    # as json does, wherever the arrays are and whatever the first holds
    twice = tmp_path / "twice.json"
    twice.write_text('{"effects": [true, {"re": [[0.0]]}], ' + vector64_text[1:])
    want, _ = whole_document_parts(twice)
    assert np.array_equal(load_povm(twice).dense.view(np.uint64), want.view(np.uint64))
    start = _effect_40(vector64_text)
    effect = vector64_text[start : vector64_text.index("},", start) + 1]
    twice.write_text(vector64_text[:-2] + ', "effects": [' + effect + "]}\n")
    with pytest.raises(PovmFormatError) as err:
        load_povm(twice)
    assert str(err.value) == f"{twice}: field effects must hold 64 entries"


@pytest.mark.parametrize(
    "part, message",
    [
        ([], ": expected 4096 rows"),
        ([[]] * 4096, " row 0: expected 4096 numbers"),
        ([[None]] + [[]] * 4095, " row 0: expected 4096 numbers"),
    ],
    ids=["empty-part", "empty-rows", "null-in-row-0"],
)
def test_load_povm_refuses_a_file_before_allocating_for_it(part, message, tmp_path):
    # a 31-97 KB file whose table would be 2 * 4096^2 complex numbers, 537 MB
    dim = 4096
    doc = {"n_bins": 2, "dim": dim, "tau": 1.0, "energies": [float(j) for j in range(dim)]}
    bad = rewrite(tmp_path / "bad.json", dict(doc, effects=[{"re": part, "im": []}] * 2))
    tracemalloc.start()
    try:
        with pytest.raises(PovmFormatError) as err:
            load_povm(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"{bad}: effects[0].re{message}"
    assert peak < 5e6, peak


def test_load_povm_refuses_energies_whose_span_overflows_without_a_warning(sharp4_file, tmp_path):
    # the span is 3e308, past the float range: the spacing is inf, which the
    # grid refuses, and no overflow is reported on the way
    _, path = sharp4_file
    doc = dict(json.loads(path.read_text()), energies=[-1.5e308, -0.5e308, 0.5e308, 1.5e308])
    bad = rewrite(tmp_path / "span.json", doc)
    with pytest.raises(PovmFormatError) as err:
        load_povm(bad)
    assert str(err.value) == f"{bad}: grid spacing must be positive and finite, got de=inf"


def test_integer_entries_load_as_the_floats_they_stand_for(sharp4_file, tmp_path):
    # a hand-written 0 or 1 is a number like any float, so its part still
    # becomes one array, with the same bits
    _, path = sharp4_file
    ints = tmp_path / "ints.json"
    ints.write_text(re.sub(r"(?<=[\[ ])([01])\.0(?=[],])", r"\1", path.read_text()))
    assert "[0, " in ints.read_text()
    effect = json.loads(ints.read_text())["effects"][0]
    assert all(isinstance(formats._float_rows(part), np.ndarray) for part in effect.values())
    assert np.array_equal(load_povm(ints).dense.view(np.uint64), load_povm(path).dense.view(np.uint64))


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


def test_a_short_row_gives_one_message_from_array_or_list_rows(sharp4_file, tmp_path):
    # rows of floats all one short parse to an array, a short row 0 alone
    # keeps the rows as lists; both read as row 0 being short
    _, path = sharp4_file
    for short in (4, 1):
        doc = json.loads(path.read_text())
        for row in doc["effects"][2]["im"][:short]:
            row.pop()
        bad = rewrite(tmp_path / f"short{short}.json", doc)
        with pytest.raises(PovmFormatError) as err:
            load_povm(bad)
        assert str(err.value) == f"{bad}: effects[2].im row 0: expected 4 numbers"


def _effects_first(doc):
    return {"effects": doc.pop("effects"), **doc}


def _ragged_first(doc):
    doc = _effects_first(doc)
    doc["effects"][1]["re"][2].pop()
    return doc


def _misplaced_effect(where):
    def edit(doc):
        effect = {"re": [[1.0, -0.0]], "im": [[0.5, 2.0]]}
        if where == "energies":
            doc["energies"][1] = effect
        else:
            doc["effects"][0]["re"][0][3] = effect
        return doc

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_ragged_first, "effects[1].re row 2: expected 4 numbers"),
        (lambda doc: doc["effects"][0], "missing field n_bins"),
        (_misplaced_effect("energies"), "energies[1] is not a number: {'re': [[1.0, -0.0]], 'im': [[0.5, 2.0]]}"),
        (
            _misplaced_effect("effects"),
            "effects[0].re row 0 column 3: not a number: {'re': [[1.0, -0.0]], 'im': [[0.5, 2.0]]}",
        ),
    ],
    ids=["ragged-row-before-dim", "only-one-effect", "effect-as-energy", "effect-as-entry"],
)
def test_load_messages_do_not_depend_on_when_effects_are_converted(sharp4_file, tmp_path, edit, message):
    # the reader turns each effect into arrays as it reads it, before n_bins
    # and dim are known; every message must read as for the parsed lists
    _, path = sharp4_file
    bad = rewrite(tmp_path / "bad.json", edit(json.loads(path.read_text())))
    with pytest.raises(PovmFormatError) as err:
        load_povm(bad)
    assert str(err.value) == f"{bad}: {message}"


def test_load_takes_effects_in_any_place_and_the_last_duplicate(sharp4_file, tmp_path):
    _, path = sharp4_file
    text = path.read_text()
    want = load_povm(path).dense
    first = rewrite(tmp_path / "first.json", _effects_first(json.loads(text)))
    assert np.array_equal(load_povm(first).dense, want)
    # a repeated key keeps its last value, as json.loads does
    twice = tmp_path / "twice.json"
    twice.write_text('{"effects": [true, {"re": [[0.0]]}], ' + text[1:])
    assert np.array_equal(load_povm(twice).dense, want)
    twice.write_text(text[:-2] + ', "effects": [{"re": [[0.0]], "im": [[0.0]]}]}\n')
    with pytest.raises(PovmFormatError) as err:
        load_povm(twice)
    assert str(err.value) == f"{twice}: field effects must hold 4 entries"


def test_load_reports_parse_position_in_a_crlf_file(tmp_path):
    bad = tmp_path / "crlf.json"
    bad.write_bytes(b'{\r\n  "n_bins": 4,\r\n  "dim": oops\r\n}\r\n')
    with pytest.raises(PovmFormatError) as err:
        load_povm(bad)
    assert str(err.value) == f"{bad}: line 3 column 10: Expecting value"


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


@pytest.mark.parametrize(
    "table, message",
    [("0.5 1.0\n1.0 nan\n1.5 1.0\n", "not unit norm"), ("0.5 1.0\nnan 0.0\n1.5 1.0\n", "not uniformly spaced")],
    ids=["value", "node"],
)
def test_state_table_refuses_a_nan_row(table, message, tmp_path):
    path = tmp_path / "nan.dat"
    path.write_text(table)
    with pytest.raises(PovmFormatError, match=message):
        load_state_table(path)


def test_save_state_table_refuses_a_complex_state(tmp_path):
    # the table has one value column, and a complex value written there
    # would not load back
    h = 0.1
    real = np.sin(np.pi * h * np.arange(1, 10))
    state = GridState(np.exp(0.7j) * real / (np.sqrt(h) * np.linalg.norm(real)), h)
    path = tmp_path / "complex.dat"
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: a state table holds real values"):
        save_state_table(state, path)
    assert list(tmp_path.iterdir()) == []


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
    with pytest.raises(TypeError):
        bound_record(report)


def test_atomic_write_leaves_no_temp(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "payload\n")
    assert target.read_text() == "payload\n"
    atomic_write_text(target, "replaced\n")
    assert target.read_text() == "replaced\n"
    with pytest.raises(TypeError):
        atomic_write_text(tmp_path / "never.txt", 123)
    assert sorted(os.listdir(tmp_path)) == ["out.txt"]
