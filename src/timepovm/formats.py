"""File interchange: observables, grid states, and report records.

Observables travel as JSON documents carrying explicit effect matrices, so a
file is a claim that can be checked rather than trusted: loading produces a
dense observable whose positivity and covariance are verified downstream,
not assumed.  States use a plain delimited table that any plotting tool
can ingest.  All writes go through a sibling temp file and an atomic
rename, so readers never observe a half-written document.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Mapping

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


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` via a sibling temp file and atomic rename.

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
            handle.write(text)
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


def save_povm(povm: CovariantPOVM, path: str | os.PathLike) -> None:
    """Serialize an observable with explicit per-bin effect matrices.

    Numbers are written in shortest round-trip decimal form, which always
    carries enough digits to reproduce the exact binary value on load.
    """
    effects = []
    for k in range(povm.n_bins):
        m = povm.effect(k)
        effects.append({"re": m.real.tolist(), "im": m.imag.tolist()})
    doc = {
        "n_bins": povm.n_bins,
        "dim": povm.dim,
        "tau": float(povm.lattice.tau),
        "energies": [float(e) for e in povm.grid.energies],
        "effects": effects,
        "label": povm.label,
    }
    atomic_write_text(path, json.dumps(doc) + "\n")


def _want_int(doc: dict, field: str, minimum: int, where: str) -> int:
    value = doc[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise PovmFormatError(f"{where}: field {field} must be an integer, got {value!r}")
    if value < minimum:
        raise PovmFormatError(f"{where}: field {field} must be >= {minimum}, got {value}")
    return value


def _want_real_matrix(obj: object, dim: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise PovmFormatError(f"{where}: expected {dim} rows")
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
    """
    where = str(path)
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise PovmFormatError(f"{where}: {exc.strerror or exc}") from None
    if not raw.strip():
        raise PovmFormatError(f"{where}: empty file")
    try:
        doc = json.loads(raw)
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
        re = _want_real_matrix(entry["re"], dim, f"{where}: effects[{k}].re")
        im = _want_real_matrix(entry["im"], dim, f"{where}: effects[{k}].im")
        dense[k] = re + 1j * im

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
