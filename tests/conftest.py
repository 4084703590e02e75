"""Shared fixtures: the observables and reference states reused across files.

Everything heavy is session-scoped so the expensive builds (dilations, the
reference minimal state, the default models) happen once per run.
"""

import json

import numpy as np
import pytest

from timepovm.dilation import build_dilation
from timepovm.model import (
    centered_grid,
    default_fullline_model,
    default_halfline_model,
    vector_generated_povm,
)
from timepovm.variational import minimal_state


def _whole_document_text(povm) -> str:
    # the observable writer before it streamed: all effects as Python
    # floats in one document and one json.dumps
    doc = {
        "n_bins": povm.n_bins,
        "dim": povm.dim,
        "tau": float(povm.lattice.tau),
        "energies": [float(e) for e in povm.grid.energies],
        "effects": [
            {"re": m.real.tolist(), "im": m.imag.tolist()} for m in map(povm.effect, range(povm.n_bins))
        ],
        "label": povm.label,
    }
    return json.dumps(doc) + "\n"


@pytest.fixture(scope="session")
def whole_document_text():
    """Oracle for ``save_povm``: the text of the file, built as one document."""
    return _whole_document_text


@pytest.fixture(scope="session")
def sharp16():
    return default_fullline_model(16)


@pytest.fixture(scope="session")
def sharp64():
    return default_fullline_model(64)


@pytest.fixture(scope="session")
def halfline64():
    return default_halfline_model(64, 0.3)


@pytest.fixture(scope="session")
def vector64():
    rng = np.random.default_rng(0)
    generator = np.exp(2j * np.pi * rng.random(64)) / np.sqrt(64.0)
    return vector_generated_povm(centered_grid(64), generator)


@pytest.fixture(scope="session")
def sharp64_dilation(sharp64):
    return build_dilation(sharp64)


@pytest.fixture(scope="session")
def halfline64_dilation(halfline64):
    return build_dilation(halfline64)


@pytest.fixture(scope="session")
def vector64_dilation(vector64):
    return build_dilation(vector64)


@pytest.fixture(scope="session")
def fullline_model():
    return default_fullline_model()


@pytest.fixture(scope="session")
def halfline_model():
    return default_halfline_model()


@pytest.fixture(scope="session")
def reference_minimal_state():
    # h=1e-3, L=20: the spacing and domain used by the certification
    return minimal_state(1e-3, 20.0)
