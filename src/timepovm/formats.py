"""File interchange: observables, grid states, and report records.

Observables travel as JSON documents carrying explicit effect matrices, so a
file is a claim that can be checked rather than trusted: loading produces a
dense observable whose positivity and covariance are verified downstream,
not assumed.  States use a plain delimited table that any plotting tool
can ingest.  All writes go through a sibling temp file and an atomic
rename, so readers never observe a half-written document.  An observable
file holds 2 n_bins dim^2 numbers, so it is streamed to that temp file one
bin at a time, with each distinct magnitude of a bin formatted once, and
read back with each bin turned into float arrays as soon as the parser
closes it: for such a file neither side holds more than one bin's numbers
as Python floats.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterator, Mapping, TextIO

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
_FLOAT_TYPE = frozenset((float,))


class PovmFormatError(ValueError):
    """An observable file could not be understood.

    The message names the offending field, or the line and column for
    outright parse failures, so callers can surface usage errors precisely.
    """


@contextlib.contextmanager
def _atomic_file(path: str | os.PathLike) -> Iterator[TextIO]:
    """A text handle on a sibling temp file that replaces ``path`` when the
    block ends, after an fsync; if the block raises, the temp file is removed
    and ``path`` keeps its old content.

    The file gets the mode a plain ``open`` would give it (0o666 under the
    process umask), not the owner-only mode of the temp file.
    """
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".", suffix=".tmp")
    # reading the umask means setting it; put the old value straight back
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
            handle.flush()
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            os.fsync(handle.fileno())
        os.replace(tmp, target)
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


class _ParsedEffect(dict):
    """An {"re", "im"} object as the parser hands it on: each part that was
    a rectangular list of rows of floats is a float array of those rows.

    Its repr is that of the lists it was parsed from, so a message that
    shows one where a number belongs reads as it would without arrays.
    """

    def __repr__(self) -> str:
        return repr({key: p.tolist() if isinstance(p, np.ndarray) else p for key, p in self.items()})


def _float_rows(part: object) -> object:
    """``part`` as a float array if it is a non-empty list of equal-length
    lists of floats, which is what ``save_povm`` writes; otherwise ``part``
    itself, for :func:`_want_real_matrix` to check and name what is wrong.

    Only floats: ``tolist`` gives them back unchanged, which an int in
    the same array would not be, so :class:`_ParsedEffect` can show them.
    """
    if isinstance(part, list) and part and type(part[0]) is list:
        width = len(part[0])
        if all(type(row) is list and len(row) == width and _FLOAT_TYPE.issuperset(map(type, row)) for row in part):
            return np.array(part, dtype=float)
    return part


def _effect_hook(obj: dict) -> dict:
    # json calls this as each object closes, so one effect's Python floats
    # are freed before the parser reads the next
    if obj.keys() != {"re", "im"}:
        return obj
    return _ParsedEffect((key, _float_rows(part)) for key, part in obj.items())


def _want_real_matrix(obj: object, dim: int, where: str) -> np.ndarray:
    if not isinstance(obj, (list, np.ndarray)) or len(obj) != dim:
        raise PovmFormatError(f"{where}: expected {dim} rows")
    if isinstance(obj, np.ndarray):
        # the parser makes arrays only of rows of floats of one length, so
        # row 0 is the first short row and every entry is a number
        if obj.shape[1] != dim:
            raise PovmFormatError(f"{where} row 0: expected {dim} numbers")
        out = obj
    else:
        out = np.empty((dim, dim))
        for i, row in enumerate(obj):
            if not isinstance(row, list) or len(row) != dim:
                raise PovmFormatError(f"{where} row {i}: expected {dim} numbers")
            # one C-level scan of the exact types; the per-entry loop only runs
            # to name the offending entry (bool is a subclass of int, not int)
            if not _NUMBER_TYPES.issuperset(map(type, row)):
                for j, value in enumerate(row):
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        raise PovmFormatError(f"{where} row {i} column {j}: not a number: {value!r}")
            out[i] = row
    if not np.all(np.isfinite(out)):
        raise PovmFormatError(f"{where}: non-finite entries")
    return out


def load_povm(path: str | os.PathLike) -> CovariantPOVM:
    """Parse an observable file into dense-effect form.

    Only structure is validated here: field presence and types, matrix
    shapes, finite values, uniform energy spacing.  Whether the effects
    actually form a normalized covariant observable is a separate question
    answered by ``validate_povm`` on the result.

    The file is parsed in one ``json.loads`` call, but each effect's re and
    im rows of floats become float arrays as soon as the parser closes that
    effect, so for a file as ``save_povm`` writes it at most one bin's
    numbers are alive as Python floats.  Parts in any other form are kept
    as parsed and checked the same way.  The entries are copied bit for bit
    into the real and imaginary parts of the stored effects, signed zeros
    included.
    """
    where = str(path)
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise PovmFormatError(f"{where}: {exc.strerror or exc}") from None
    if not raw or raw.isspace():
        raise PovmFormatError(f"{where}: empty file")
    try:
        # an integer of over 308 characters may leave the float range: read as
        # inf, as 1e400 is, its field is refused as non-finite, not overflowed
        doc = json.loads(raw, object_hook=_effect_hook, parse_int=lambda t: int(t) if len(t) <= 308 else float(t))
    except json.JSONDecodeError as exc:
        raise PovmFormatError(f"{where}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
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
    de = (energy[-1] - energy[0]) / (dim - 1)
    if de <= 0.0:
        raise PovmFormatError(f"{where}: energies must increase, got spacing {de}")
    if np.max(np.abs(np.diff(energy) - de)) > 1e-9 * max(1.0, abs(de)):
        raise PovmFormatError(f"{where}: energies are not uniformly spaced")

    raw_effects = doc["effects"]
    if not isinstance(raw_effects, list) or len(raw_effects) != n_bins:
        raise PovmFormatError(f"{where}: field effects must hold {n_bins} entries")
    dense = np.empty((n_bins, dim, dim), dtype=complex)
    for k, entry in enumerate(raw_effects):
        if not isinstance(entry, dict) or set(entry) != {"re", "im"}:
            raise PovmFormatError(f"{where}: effects[{k}] must be an object with fields re and im")
        dense[k].real = _want_real_matrix(entry["re"], dim, f"{where}: effects[{k}].re")
        dense[k].imag = _want_real_matrix(entry["im"], dim, f"{where}: effects[{k}].im")

    label = doc.get("label", Path(path).name)
    if not isinstance(label, str):
        raise PovmFormatError(f"{where}: field label must be a string")
    try:
        grid = EnergyGrid(dim, float(de), offset=float(energy[0]), halfline=bool(energy[0] >= 0.0))
        lattice = TimeLattice(n_bins, float(tau))
        return CovariantPOVM(grid, lattice, dense=dense, label=label)
    except ValueError as exc:
        raise PovmFormatError(f"{where}: {exc}") from None


def save_state_table(state: GridState, path: str | os.PathLike) -> None:
    """Write a grid state as a two-column table: node position, value."""
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
    if h <= 0.0 or np.max(np.abs(np.diff(x) - h)) > 1e-9 * h:
        raise PovmFormatError(f"{where}: nodes are not uniformly spaced")
    if abs(x[0] - h) > 1e-9 * h:
        raise PovmFormatError(f"{where}: first node must sit one spacing inside the wall at 0")
    try:
        return GridState(values, float(h), float(x[-1] + h))
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


def bound_record(report, n: int | None = None) -> dict:
    """Flatten a bound check into an ordered record for one report line."""
    rec = {
        "bound": report.name,
        "lhs": float(report.lhs),
        "rhs": float(report.rhs),
        "margin": float(report.margin),
        "pass": bool(report.passed),
    }
    if n is not None:
        rec["n"] = int(n)
    rec["reliable"] = bool(report.reliable)
    for key in sorted(report.context):
        rec[key] = report.context[key]
    return rec
