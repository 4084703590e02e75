"""File interchange: observables, grid states, and report records.

Observables travel as JSON documents carrying explicit effect matrices, so a
file is a claim that can be checked rather than trusted: loading produces a
dense observable whose positivity and covariance are verified downstream,
not assumed.  States use a plain delimited table that any plotting tool
can ingest.  All writes go through a sibling temp file and an atomic
rename, so readers never observe a half-written document.  An observable
file holds 2 n_bins dim^2 numbers, so it is streamed to that temp file one
bin at a time, with each distinct magnitude of a bin formatted once.  It is
read back as UTF-8 text through a fixed window, one effect decoded at a
time, and the effect's rows of numbers become float arrays before the next
is read: neither side holds the file's text, or more than one bin's numbers
as Python floats.  The loader allocates the dense table only once every
check has passed, so refusing a file costs memory in proportion to the
file, not to the table it declares.
"""

from __future__ import annotations

import codecs
import contextlib
import json
import os
import re
import tempfile
from pathlib import Path
from typing import BinaryIO, Iterator, Mapping, TextIO

import numpy as np

from .model import CovariantPOVM, EnergyGrid, TimeLattice
from .variational import GridState

__all__ = [
    "PovmFormatError",
    "atomic_write_text",
    "save_povm",
    "load_povm",
    "save_state_table",
    "load_state_table",
    "format_record",
    "bound_record",
]

_REQUIRED_FIELDS = ("n_bins", "dim", "tau", "energies", "effects")
_KNOWN_FIELDS = set(_REQUIRED_FIELDS) | {"label"}
_NUMBER_TYPES = frozenset((int, float))


class PovmFormatError(ValueError):
    """An observable file could not be understood.

    The message names the offending field, or the line and column for
    outright parse failures, so callers can surface usage errors precisely.
    """


@contextlib.contextmanager
def _atomic_file(path: str | os.PathLike) -> Iterator[TextIO]:
    """A text handle on a sibling temp file that replaces ``path`` when the
    block ends, after an fsync; if the block raises, the temp file is removed
    and ``path`` keeps its old content.  A temp file that cannot be made or
    cannot replace ``path`` raises an ``OSError`` that names ``path``, not
    the temp file's random name.

    The file gets the mode a plain ``open`` would give it (0o666 under the
    process umask), not the owner-only mode of the temp file.
    """
    target = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".", suffix=".tmp")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(target)) from None
    # reading the umask means setting it; put the old value straight back
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
            handle.flush()
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            os.fsync(handle.fileno())
        try:
            os.replace(tmp, target)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(target)) from None
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` via a sibling temp file and atomic rename."""
    with _atomic_file(path) as handle:
        handle.write(text)


_MAGNITUDE_BITS = np.uint64(0x7FFF_FFFF_FFFF_FFFF)


def _json_matrix_pair(m: np.ndarray) -> tuple[str, str]:
    """``json.dumps`` of ``m.real.tolist()`` and of ``m.imag.tolist()``.

    Each distinct magnitude is formatted once, in one ``json.dumps`` call,
    and a negative number is written as "-" and its magnitude's text, as
    json writes it; the exception is NaN, which json writes as "NaN"
    whatever its sign bit.
    """
    bits = np.stack((m.real, m.imag)).astype(np.float64).view(np.uint64)
    magnitudes, index = np.unique((bits & _MAGNITUDE_BITS).ravel(), return_inverse=True)
    texts = json.dumps(magnitudes.view(np.float64).tolist())[1:-1].split(", ")
    table = np.array(texts + [t if t == "NaN" else "-" + t for t in texts], dtype=object)
    index = index.reshape(bits.shape) + (bits >> np.uint64(63)).astype(np.intp) * len(texts)
    re, im = (
        "[" + ", ".join("[" + ", ".join(row) + "]" for row in part) + "]"
        for part in table[index].tolist()
    )
    return re, im


def save_povm(povm: CovariantPOVM, path: str | os.PathLike) -> None:
    """Serialize an observable with explicit per-bin effect matrices.

    The file is ``json.dumps`` of the document {n_bins, dim, tau, energies,
    effects, label} and a newline, byte for byte, but it is streamed: one
    effect is built and formatted at a time, so memory does not grow with
    n_bins.  Numbers are written in shortest round-trip decimal form, which
    always carries enough digits to reproduce the exact binary value on
    load; every effect entry is written as a float.
    """
    head = json.dumps(
        {
            "n_bins": povm.n_bins,
            "dim": povm.dim,
            "tau": float(povm.lattice.tau),
            "energies": [float(e) for e in povm.grid.energies],
        }
    )
    with _atomic_file(path) as handle:
        handle.write(head[:-1] + ', "effects": [')
        for k in range(povm.n_bins):
            re, im = _json_matrix_pair(povm.effect(k))
            handle.write(('{"re": ' if k == 0 else ', {"re": ') + re + ', "im": ' + im + "}")
        handle.write('], "label": ' + json.dumps(povm.label) + "}\n")


def _want_int(doc: dict, field: str, minimum: int, where: str) -> int:
    value = doc[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise PovmFormatError(f"{where}: field {field} must be an integer, got {value!r}")
    if value < minimum:
        raise PovmFormatError(f"{where}: field {field} must be >= {minimum}, got {value}")
    return value


def _float_rows(part: object) -> object:
    """``part`` as a float array if it is a non-empty list of equal-length
    lists of numbers (int or float, not bool), which is what ``save_povm``
    writes; otherwise ``part`` as parsed, for :func:`_want_real_matrix` to
    name what is wrong with it.
    """
    if isinstance(part, list) and part and type(part[0]) is list:
        width = len(part[0])
        if all(type(row) is list and len(row) == width and _NUMBER_TYPES.issuperset(map(type, row)) for row in part):
            return np.array(part, dtype=float)
    return part


def _want_real_matrix(part: object, dim: int, where: str) -> np.ndarray:
    """An effect part checked as dim rows of dim finite numbers.

    The reader makes a float array of every part that holds rows of numbers
    of one length, so an array only needs its shape and finiteness checked.
    Any other part holds a fault: its rows are walked, in order, only to
    name the first one, and nothing is built from them.
    """
    if not isinstance(part, (list, np.ndarray)) or len(part) != dim:
        raise PovmFormatError(f"{where}: expected {dim} rows")
    if isinstance(part, np.ndarray):
        # rows of one length: row 0 is the first short one
        if part.shape[1] != dim:
            raise PovmFormatError(f"{where} row 0: expected {dim} numbers")
    else:
        for i, row in enumerate(part):
            if not isinstance(row, list) or len(row) != dim:
                raise PovmFormatError(f"{where} row {i}: expected {dim} numbers")
            # one C-level scan of the exact types; the per-entry loop only runs
            # to name the offending entry (bool is a subclass of int, not int)
            if not _NUMBER_TYPES.issuperset(map(type, row)):
                j = next(j for j, value in enumerate(row) if type(value) not in _NUMBER_TYPES)
                raise PovmFormatError(f"{where} row {i} column {j}: not a number: {row[j]!r}")
    if not np.all(np.isfinite(part)):
        raise PovmFormatError(f"{where}: non-finite entries")
    return part


_WINDOW = 1 << 18  # bytes of an observable file read per step
_SPACE = re.compile(r"[ \t\n\r]*")  # the whitespace json skips
_ANY_SPACE = re.compile(r"\s*")  # what str.isspace takes; a file of only this is empty


def _parse_int(text: str) -> int | float:
    # an integer of over 308 characters may leave the float range: read as
    # inf, as 1e400 is, its field is refused as non-finite, not overflowed
    return int(text) if len(text) <= 308 else float(text)


class _Window:
    """An observable file as UTF-8 text, read a window at a time.

    ``text[pos:]`` is what is not yet parsed.  The text before ``pos`` is
    dropped as more is read, with its newlines counted, so the lines and
    columns in messages are those of the whole file.
    """

    def __init__(self, handle: BinaryIO, where: str):
        self._handle = handle
        self._where = where
        self._decoder = codecs.getincrementaldecoder("utf-8")()
        self._fed = 0  # bytes handed to the decoder
        self._dropped = 0  # characters dropped from the front of text
        self._lines = 0  # newlines among them
        self._line_end = -1  # character offset of the last of them
        self.text = ""
        self.pos = 0
        self._read()

    def _chunk(self) -> str:
        # the text of the next window, "" at the end of the file
        while True:
            data = self._handle.read(_WINDOW)
            try:
                text = self._decoder.decode(data, final=not data)
            except UnicodeDecodeError as exc:
                # exc.start counts from the bytes the decoder still held
                offset = self._fed - len(self._decoder.getstate()[0]) + exc.start
                raise PovmFormatError(f"{self._where}: byte {offset} is not UTF-8: {exc.reason}") from None
            self._fed += len(data)
            if text or not data:
                return text

    def _read(self, size: int = 1, stop: str = "") -> bool:
        """Read on until ``size`` more characters and a window holding
        ``stop`` are in, joining the windows once; False at the end of the file."""
        parts, got = [self.text[self.pos :]], 0
        while chunk := self._chunk():
            parts.append(chunk)
            got += len(chunk)
            if got >= size and stop in chunk:
                break
        if not got:
            return False
        last = self.text.rfind("\n", 0, self.pos)
        if last >= 0:
            self._lines += self.text.count("\n", 0, last + 1)
            self._line_end = self._dropped + last
        self._dropped += self.pos
        self.text, self.pos = "".join(parts), 0
        return True

    def skip(self, space: re.Pattern = _SPACE) -> str:
        """Move past ``space``; the next character, or "" at the end of the file."""
        while True:
            self.pos = space.match(self.text, self.pos).end()
            if self.pos < len(self.text):
                return self.text[self.pos]
            if not self._read():
                return ""

    def expect(self, char: str, message: str) -> None:
        if self.skip() != char:
            raise self.error(message)
        self.pos += 1

    def value(self, decode) -> object:
        """The JSON value after the whitespace at ``pos``, by ``decode``.

        A number never holds a brace, so an object is decoded once a "}"
        is in.  A value that fails, or ends within two characters of the
        edge, is decoded again with more text: a number, keyword or string
        may carry on past the edge, and a number stops short of a "." or
        "e+" whose digits are not in yet.
        """
        if self.skip() == "{" and self.text.find("}", self.pos) < 0:
            self._read(stop="}")
        while True:
            try:
                value, end = decode(self.text, self.pos)
            except json.JSONDecodeError as exc:
                # read as much again as is held, so a long value is decoded
                # a logarithmic number of times
                if self._read(len(self.text) - self.pos):
                    continue
                raise self.error(exc.msg, exc.pos) from None
            if end + 2 < len(self.text) or not self._read():
                self.pos = end
                return value

    def error(self, message: str, pos: int | None = None) -> PovmFormatError:
        """``message`` at ``pos`` (default: the parse position), as json places it."""
        pos = self.pos if pos is None else pos
        line = self._lines + self.text.count("\n", 0, pos) + 1
        start = self.text.rfind("\n", 0, pos)
        column = pos - start if start >= 0 else self._dropped + pos - self._line_end
        return PovmFormatError(f"{self._where}: line {line} column {column}: {message}")


def _read_effects(text: _Window, decode) -> list:
    # json's array scanner, by hand, so each effect is decoded on its own
    # and its rows of numbers are arrays before the next one is read
    effects = []
    text.pos += 1
    if text.skip() != "]":
        while True:
            entry = text.value(decode)
            if isinstance(entry, dict) and entry.keys() == {"re", "im"}:
                entry = {key: _float_rows(part) for key, part in entry.items()}
            effects.append(entry)
            if text.skip() != ",":
                break
            text.pos += 1
    text.expect("]", "Expecting ',' delimiter")
    return effects


def _read_document(handle: BinaryIO, where: str) -> object:
    """What ``json.loads`` makes of the file, with its messages, read a
    window at a time.

    Only the outer object and its effects array are walked here; every
    other value, each effect included, goes to one decoder.
    """
    text = _Window(handle, where)
    decode = json.JSONDecoder(parse_int=_parse_int).raw_decode
    if text.text.startswith("\ufeff"):
        raise text.error("Unexpected UTF-8 BOM (decode using utf-8-sig)")
    first = text.skip()
    if first.isspace():
        # space that json does not skip: the file is empty if that is all
        refused = text.error("Expecting value")
        if not text.skip(_ANY_SPACE):
            raise PovmFormatError(f"{where}: empty file")
        raise refused
    if not first:
        raise PovmFormatError(f"{where}: empty file")
    if first != "{":
        # the message names only the value's type, so each object inside
        # it is dropped as it closes
        doc = text.value(json.JSONDecoder(object_hook=lambda obj: None, parse_int=_parse_int).raw_decode)
    else:
        doc = {}
        text.pos += 1
        if text.skip() != "}":
            while True:
                if text.skip() != '"':
                    raise text.error("Expecting property name enclosed in double quotes")
                key = text.value(decode)
                text.expect(":", "Expecting ':' delimiter")
                # a repeated key keeps its last value, as in json
                if key == "effects" and text.skip() == "[":
                    doc[key] = _read_effects(text, decode)
                else:
                    doc[key] = text.value(decode)
                if text.skip() != ",":
                    break
                text.pos += 1
        text.expect("}", "Expecting ',' delimiter")
    if text.skip():
        raise text.error("Extra data")
    return doc


def load_povm(path: str | os.PathLike) -> CovariantPOVM:
    """Parse an observable file into dense-effect form.

    Only structure is validated here: field presence and types, matrix
    shapes, finite values, uniform energy spacing.  Whether the effects
    actually form a normalized covariant observable is a separate question
    answered by ``validate_povm`` on the result.

    The file is read as UTF-8 text through a window of 256 KiB and parsed
    as it is read, as ``json.loads`` would parse it, with its messages and
    the line and column in the file.  Each effect is decoded on its own,
    and its re and im parts, where they are rectangular rows of numbers
    (ints included), become float arrays before the next effect is read,
    so neither the file's text nor more than one bin's numbers as Python
    floats are held at once.  A part in any other form holds a fault; it
    is kept as parsed, and the message names the first faulty row or
    entry.  The dense table is allocated after every check has passed,
    and the entries are copied bit for bit into the real and imaginary
    parts of the stored effects, signed zeros included.
    """
    where = str(path)
    try:
        with open(path, "rb") as handle:
            doc = _read_document(handle, where)
    except OSError as exc:
        raise PovmFormatError(f"{where}: {exc.strerror or exc}") from None
    except RecursionError:
        # json's scanner recurses once per nested array or object
        raise PovmFormatError(f"{where}: values nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise PovmFormatError(f"{where}: top level must be an object, got {type(doc).__name__}")
    for field in _REQUIRED_FIELDS:
        if field not in doc:
            raise PovmFormatError(f"{where}: missing field {field}")
    for field in sorted(set(doc) - _KNOWN_FIELDS):
        raise PovmFormatError(f"{where}: unknown field {field}")

    n_bins = _want_int(doc, "n_bins", 2, where)
    dim = _want_int(doc, "dim", 2, where)
    tau = doc["tau"]
    if isinstance(tau, bool) or not isinstance(tau, (int, float)) or not (0.0 < tau < np.inf):
        raise PovmFormatError(f"{where}: field tau must be a positive finite number, got {tau!r}")

    energies = doc["energies"]
    if not isinstance(energies, list) or len(energies) != dim:
        raise PovmFormatError(f"{where}: field energies must hold {dim} numbers")
    for j, value in enumerate(energies):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise PovmFormatError(f"{where}: energies[{j}] is not a number: {value!r}")
    energy = np.asarray(energies, dtype=float)
    if not np.all(np.isfinite(energy)):
        raise PovmFormatError(f"{where}: non-finite energies")
    # a span past the float range gives de = inf, which EnergyGrid names
    with np.errstate(over="ignore", invalid="ignore"):
        de = (energy[-1] - energy[0]) / (dim - 1)
        spread = np.max(np.abs(np.diff(energy) - de))
    if de <= 0.0:
        raise PovmFormatError(f"{where}: energies must increase, got spacing {de}")
    if spread > 1e-9 * max(1.0, abs(de)):
        raise PovmFormatError(f"{where}: energies are not uniformly spaced")

    raw_effects = doc["effects"]
    if not isinstance(raw_effects, list) or len(raw_effects) != n_bins:
        raise PovmFormatError(f"{where}: field effects must hold {n_bins} entries")
    parts = []
    for k, entry in enumerate(raw_effects):
        if not isinstance(entry, dict) or set(entry) != {"re", "im"}:
            raise PovmFormatError(f"{where}: effects[{k}] must be an object with fields re and im")
        parts.append([_want_real_matrix(entry[key], dim, f"{where}: effects[{k}].{key}") for key in ("re", "im")])

    label = doc.get("label", Path(path).name)
    if not isinstance(label, str):
        raise PovmFormatError(f"{where}: field label must be a string")
    try:
        grid = EnergyGrid(dim, float(de), offset=float(energy[0]), halfline=bool(energy[0] >= 0.0))
        lattice = TimeLattice(n_bins, float(tau))
    except ValueError as exc:
        raise PovmFormatError(f"{where}: {exc}") from None
    # allocated only once every check has passed, so refusing a file costs
    # memory in proportion to the file, not to the table it declares
    dense = np.empty((n_bins, dim, dim), dtype=complex)
    for k, (re_part, im_part) in enumerate(parts):
        dense[k].real, dense[k].imag = re_part, im_part
    return CovariantPOVM(grid, lattice, dense=dense, label=label)


def save_state_table(state: GridState, path: str | os.PathLike) -> None:
    """Write a grid state as a two-column table: node position, value.

    The table has no column for an imaginary part, so a complex state is
    refused before any file is made.
    """
    if np.iscomplexobj(state.values):
        raise ValueError(f"{path}: a state table holds real values; got a complex state")
    lines = ["# x phi"]
    for x, v in zip(state.nodes, state.values):
        lines.append(f"{x:.17e} {v:.17e}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_state_table(path: str | os.PathLike) -> GridState:
    where = str(path)
    try:
        data = np.loadtxt(path, comments="#", ndmin=2)
    except (OSError, ValueError) as exc:
        raise PovmFormatError(f"{where}: {exc}") from None
    if data.size == 0 or data.shape[1] != 2:
        raise PovmFormatError(f"{where}: expected two columns x, phi")
    x, values = data[:, 0], data[:, 1]
    if x.size < 2:
        raise PovmFormatError(f"{where}: need at least two rows")
    h = (x[-1] - x[0]) / (x.size - 1)
    if not (h > 0.0 and np.max(np.abs(np.diff(x) - h)) <= 1e-9 * h):  # NaN nodes fail too
        raise PovmFormatError(f"{where}: nodes are not uniformly spaced")
    if abs(x[0] - h) > 1e-9 * h:
        raise PovmFormatError(f"{where}: first node must sit one spacing inside the wall at 0")
    try:
        return GridState(values, float(h))
    except ValueError as exc:
        raise PovmFormatError(f"{where}: {exc}") from None


def format_record(record: Mapping[str, object]) -> str:
    """One report line: space-separated key=value fields, diff-friendly."""
    parts = []
    for key, value in record.items():
        if " " in key or "=" in key:
            raise ValueError(f"record key not representable: {key!r}")
        if isinstance(value, bool):
            txt = "true" if value else "false"
        elif isinstance(value, float):
            txt = format(value, ".12g")
        else:
            txt = str(value)
        parts.append(f"{key}={txt}")
    return " ".join(parts)


def bound_record(report, n: int) -> dict:
    """Flatten a bound check into an ordered record for one report line."""
    rec = {
        "bound": report.name,
        "lhs": float(report.lhs),
        "rhs": float(report.rhs),
        "margin": float(report.margin),
        "pass": bool(report.passed),
        "n": int(n),
        "reliable": bool(report.reliable),
    }
    for key in sorted(report.context):
        rec[key] = report.context[key]
    return rec
