"""Command-line interface: reports, exit codes, and file handling."""

import contextlib
import io
import json
import multiprocessing
import os
import signal
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from timepovm import cli, dilation, linalg, model, variational
from timepovm.cli import main
from timepovm.formats import save_povm
from timepovm.model import CovariantPOVM, build_sharp_time_povm, centered_grid, vector_generated_povm
from timepovm.variational import airy_operator_spectrum


def records(capsys):
    # key=value fields; a detail value may itself contain spaces, so tokens
    # without "=" continue the previous value
    out = capsys.readouterr().out
    recs = []
    for ln in out.strip().split("\n"):
        if not ln:
            continue
        rec, key = {}, None
        for tok in ln.split(" "):
            if "=" in tok:
                key, val = tok.split("=", 1)
                rec[key] = val
            elif key is not None:
                rec[key] += " " + tok
        recs.append(rec)
    return out, recs


def find(recs, **want):
    hits = [r for r in recs if all(r.get(k) == v for k, v in want.items())]
    assert hits, f"no record matching {want}"
    return hits[0]


def test_certify_fast_grid(capsys):
    assert main(["airy-certify", "--h", "2e-3", "--domain-l", "17"]) == 0
    _, recs = records(capsys)
    assert recs[-1] == {"summary": "airy-certify", "checks": "9", "failures": "0"}
    ground = find(recs, check="ground-eigenvalue")
    assert ground["pass"] == "true"
    assert abs(float(ground["value"]) - 2.338) <= float(ground["tolerance"])
    zero = find(recs, check="eigenvalue-vs-zero")
    assert float(zero["error"]) <= float(zero["tolerance"])
    chain = find(recs, check="identity-chain")
    assert chain["pass"] == "true"
    assert chain["pairs"] == "10000"
    weaker = find(recs, check="weaker-combined-rhs")
    assert weaker["strictly_below_sharp"] == "true"
    # the two descent workers end with the run
    assert multiprocessing.active_children() == []


def test_certify_coarse_grid_reports_regime(capsys):
    # descent finds lattice-scale minima here, so route agreement is
    # informational; the printed-precision checks still certify and exit 0
    assert main(["airy-certify", "--h", "0.1"]) == 0
    _, recs = records(capsys)
    assert recs[-1]["failures"] == "0"
    assert recs[-1]["checks"] == "7"
    route = find(recs, check="product-route-agreement")
    assert route["regime"] == "lattice-artifact"
    assert "pass" not in route


def test_certify_short_domain_is_usage_error(capsys):
    # the refusal comes from the spectrum in this process while both
    # descents still run; it ends them without waiting
    assert main(["airy-certify", "--domain-l", "3"]) == 2
    detail = "domain length 3.0 cannot hold 3 eigenfunctions; need L >= 16.04"
    assert capsys.readouterr().out == f"error=domain detail={detail} required_length=16.0411196562\n"
    assert multiprocessing.active_children() == []


def breakdown(*args, **kwargs):
    raise RuntimeError("iteration did not converge within its budget")


def killed(*args, **kwargs):
    # as the kernel's out-of-memory killer ends a process: no exception, no result
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize(
    "name, failure, detail",
    [
        ("minimal_state", breakdown, "iteration did not converge within its budget"),
        ("_descent", breakdown, "iteration did not converge within its budget"),
        ("_descent", killed, "a worker process ended with exit code -9 before its result"),
    ],
    ids=["spectral-in-process", "descent-in-worker", "worker-killed"],
)
def test_a_breakdown_in_either_route_is_one_record_exit_one(name, failure, detail, capsys, monkeypatch):
    # the product minimization's spectral route runs in this process and its
    # descent in a forked worker, which inherits the patch; either breakdown
    # ends the run after the same six records, with one error record
    monkeypatch.setattr(variational, name, failure)
    assert main(["airy-certify", "--h", "2e-3", "--domain-l", "17"]) == 1
    before = (GOLDEN / "airy-certify-h2e-3-L17.txt").read_text().splitlines(keepends=True)[:6]
    assert capsys.readouterr().out == "".join(before) + f"error=numerical detail={detail}\n"
    assert multiprocessing.active_children() == []


def test_fixtures_deterministic_and_dilatable(tmp_path, capsys):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["emit-fixtures", "--n", "16", "--h", "2e-3", "--out", str(first)]) == 0
    assert main(["emit-fixtures", "--n", "16", "--h", "2e-3", "--out", str(second)]) == 0
    capsys.readouterr()
    names = ["sharp-povm.json", "halfline-povm.json", "vector-povm.json", "minimal-state.txt"]
    assert sorted(p.name for p in first.iterdir()) == sorted(names)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    for name in names[:3]:
        assert main(["dilate", str(first / name)]) == 0
        _, recs = records(capsys)
        assert recs[-1]["summary"] == "dilate"
        assert recs[-1]["failures"] == "0"
        assert find(recs, check="compression")["pass"] == "true"
        assert find(recs, check="imprimitivity")["pass"] == "true"


@pytest.fixture(scope="module")
def fixtures64(tmp_path_factory):
    out = tmp_path_factory.mktemp("fx64")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["emit-fixtures", "--n", "64", "--h", "5e-3", "--out", str(out)]) == 0
    return out


def test_dilate_tampered_file_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "fx"
    assert main(["emit-fixtures", "--n", "8", "--h", "5e-3", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads((out / "sharp-povm.json").read_text())
    doc["effects"][0]["re"][0][0] += 0.2
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc) + "\n")
    assert main(["dilate", str(bad)]) == 1
    _, recs = records(capsys)
    failure = find(recs, error="axiom-violated")
    assert failure["axiom"] == "completeness"


def test_dilate_a_file_whose_transport_drift_overflows_is_one_record_and_a_quiet_stderr(fixtures64, tmp_path):
    # one finite entry of 1.7e308 in effect 5 overflows the drift's norm:
    # the residual is inf and fails, with no numpy warning on stderr
    doc = json.loads((fixtures64 / "halfline-povm.json").read_text())
    doc["effects"][5]["re"][1][2] = 1.7e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc) + "\n")
    argv = [sys.executable, "-m", "timepovm", "dilate", str(path)]
    run = subprocess.run(argv, capture_output=True, text=True, env=cli_env(None, None), timeout=120)
    assert (run.returncode, run.stderr) == (1, "")
    lines = run.stdout.splitlines()
    assert len(lines) == 3 and lines[0].startswith(f"povm={path} label=halfline n_bins=64 dim=32 ")
    assert lines[1].startswith("validation=axioms completeness=1.7e+308 covariance=1.7e+308 min_effect_eigenvalue=-inf ")
    assert lines[1].endswith(" pass=false")
    assert lines[2] == "error=axiom-violated axiom=completeness"


def test_dilate_malformed_input_exits_two(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["dilate", str(empty)]) == 2
    _, recs = records(capsys)
    assert recs[-1]["error"] == "input"
    assert main(["dilate", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "place, digits",
    [("effect", 401), ("energies", 401), ("tau", 401), ("effect", 5000)],
)
def test_dilate_refuses_an_integer_past_the_float_range(place, digits, tmp_path, capsys):
    # 401 digits overflow a float where the value is converted; 5000 pass
    # int()'s own digit limit, which json.loads hits first
    grid = centered_grid(4)
    doc = {
        "n_bins": 4,
        "dim": 4,
        "tau": 2 * np.pi / (4 * grid.de),
        "energies": grid.energies.tolist(),
        "effects": [{"re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()} for _ in range(4)],
    }
    if place == "effect":
        doc["effects"][0]["re"][1][1] = "HUGE"
    elif place == "energies":
        doc["energies"][1] = "HUGE"
    else:
        doc["tau"] = "HUGE"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc).replace('"HUGE"', "9" * digits))
    assert main(["dilate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error=input detail=" + str(path)), lines



def _sharp8_bytes(tmp_path):
    path = tmp_path / "sharp8.json"
    save_povm(build_sharp_time_povm(centered_grid(8)), path)
    return path.read_bytes()


def test_dilate_names_the_file_and_byte_it_cannot_read_as_utf8(tmp_path, capsys):
    text = _sharp8_bytes(tmp_path)
    cut = text.index(b"0.0", text.index(b'"effects"'))
    path = tmp_path / "stray.json"
    path.write_bytes(text[:cut] + b"\xff" + text[cut:])
    assert main(["dilate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [f"error=input detail={path}: byte {cut} is not UTF-8: invalid start byte"]


def test_dilate_refuses_a_byte_order_mark_as_json_does(tmp_path, capsys):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + _sharp8_bytes(tmp_path))
    assert main(["dilate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        f"error=input detail={path}: line 1 column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"
    ]


def test_dilate_refuses_a_file_too_large_to_hold_before_allocating_for_it(tmp_path, capsys):
    # an 889 KB file whose table would be 2 * 100000^2 complex numbers, 298 GiB
    dim = 100_000
    doc = {"n_bins": 2, "dim": dim, "tau": 1.0, "energies": [float(j) for j in range(dim)]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(doc, effects=[{"re": [], "im": []}] * 2)))
    assert main(["dilate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [f"error=input detail={path}: effects[0].re: expected 100000 rows"]


def test_bounds_fullline_gaussian_saturates(capsys):
    assert main(["bounds"]) == 0
    _, recs = records(capsys)
    head = recs[0]
    assert head["model"] == "fullline"
    assert head["n_bins"] == "512"
    bound = find(recs, state="gaussian", bound="spread-spread")
    assert bound["pass"] == "true"
    assert bound["reliable"] == "true"
    sat = find(recs, saturation="spread-spread")
    assert float(sat["error"]) <= 1e-4


def test_bounds_halfline_minimal(capsys):
    assert main(["bounds", "--model", "halfline", "--states", "minimal"]) == 0
    _, recs = records(capsys)
    mean_bound = find(recs, state="minimal", bound="spread-mean")
    assert mean_bound["pass"] == "true"
    assert abs(float(mean_bound["lhs"]) - 1.376) <= 2e-3
    sat = find(recs, saturation="spread-mean")
    assert sat["pass"] == "true"
    combined = find(recs, state="minimal", bound="combined")
    assert combined["sharp_rhs"] == "2.25"
    assert recs[-1]["failures"] == "0"


def test_bounds_default_grid_is_the_reference_model(capsys):
    # leaving out --n and --de builds the same family as spelling out the
    # reference grids of default_fullline_model and default_halfline_model
    minimal = ["bounds", "--model", "halfline", "--states", "minimal"]
    for implicit, explicit in ((["bounds"], ["bounds", "--n", "512"]), (minimal, minimal + ["--n", "2048", "--de", "0.01"])):
        assert main(implicit) == 0
        want = capsys.readouterr().out
        assert main(explicit) == 0
        assert capsys.readouterr().out == want
    for argv, reference in ((["bounds"], model.default_fullline_model()), (minimal, model.default_halfline_model())):
        assert main(argv) == 0
        _, recs = records(capsys)
        assert recs[0]["n_bins"] == str(reference.n_bins)
        assert recs[0]["dim"] == str(reference.dim)
        assert recs[0]["de"] == format(float(reference.grid.de), ".12g")
        assert recs[0]["tau"] == format(float(reference.lattice.tau), ".12g")


def test_bounds_random_family(capsys):
    assert main(["bounds", "--model", "halfline", "--states", "random:1..3"]) == 0
    _, recs = records(capsys)
    seeds = {r["seed"] for r in recs if r.get("state") == "random"}
    assert seeds == {"1", "2", "3"}
    assert recs[-1]["failures"] == "0"


def test_random_state_range_is_lazy():
    tracemalloc.start()
    try:
        items = cli._parse_states("random:0..1000000", "fullline")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    tag, _ = next(iter(items))
    assert tag == {"state": "random", "seed": 0}


def test_overflowing_moments_are_not_a_bound_failure(capsys):
    # energies of 1e200 square to inf: the moments, not the bound, break down
    assert main(["bounds", "--de", "1e200", "--n", "4"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].startswith("error=bound-not-applicable detail=")
    assert "nan" not in out
    assert err == ""


def test_report_keeps_no_lines_without_out():
    # stdout goes to a sink that keeps nothing, so the peak is the report's
    # own; test_report_file_matches_stdout covers the --out copy
    rep = cli._Report("bounds")
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            for seed in range(100_000):
                rep.emit({"state": "random", "seed": seed, "pass": True})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.close() == 0
    assert peak < 1 << 20


def test_bounds_wrong_model_for_check_exits_one(capsys):
    assert main(["bounds", "--check", "positive-energy"]) == 1
    _, recs = records(capsys)
    failure = find(recs, error="bound-not-applicable")
    assert "shift the spectrum" in failure["detail"] + capsys.readouterr().out


def test_bounds_minimal_needs_halfline(capsys):
    assert main(["bounds", "--states", "minimal"]) == 2
    _, recs = records(capsys)
    assert recs[-1]["error"] == "config"


BOUNDS_REFUSALS = [
    (["--states", "minimal"], "--states minimal needs --model halfline"),
    (["--states", "nope"], "unknown --states value 'nope'"),
    *(
        (["--states", spec], f"bad --states value {spec!r}; use random:SEED or random:FIRST..LAST")
        for spec in ("random:5..3", "random:3..", "random:", "random:1..x")
    ),
    # the states are parsed before the model is built, so this grid's own
    # refusal (fewer than two energies above the cutoff) is never reached
    (["--model", "halfline", "--n", "2", "--states", "nope"], "unknown --states value 'nope'"),
]


@pytest.mark.parametrize("argv, detail", BOUNDS_REFUSALS, ids=["-".join(argv) for argv, _ in BOUNDS_REFUSALS])
def test_bounds_refusals_print_one_config_record(argv, detail, capsys):
    assert main(["bounds", *argv]) == 2
    assert capsys.readouterr().out == f"error=config detail={detail}\n"


def test_usage_errors_exit_two(capsys):
    assert main(["bounds", "--n", "-4"]) == 2
    assert main(["bounds", "--states", "gaussian,bogus"]) == 2
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["airy-certify", "--h", "abc"], "not a number: 'abc'"),
        (["airy-certify", "--h", "-1"], "must be positive and finite: -1"),
        (["bounds", "--seed", "x"], "not an integer: 'x'"),
    ],
    ids=["h-not-a-number", "h-negative", "seed-not-an-integer"],
)
def test_bad_option_values_exit_two_with_nothing_on_stdout(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("airy-certify", "dilate", "bounds", "emit-fixtures"):
        assert name in out


@pytest.mark.parametrize("module", ["timepovm", "timepovm.cli"])
@pytest.mark.parametrize(
    "argv, code, last",
    [(["airy-certify", "--h", "0.1"], 0, "summary=airy-certify"), (["bounds", "--states", "nope"], 2, "error=config")],
)
def test_python_dash_m_runs_the_cli(module, argv, code, last):
    src = str(Path(model.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == code
    assert run.stdout.splitlines()[-1].startswith(last)
    assert "Traceback" not in run.stderr


def cli_env(name, value):
    """The environment of a fresh CLI process that imports this package,
    with the variable name set to value, or unset when value is None."""
    src = str(Path(model.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop(name, None)
    if value is not None:
        env[name] = value
    return env


@pytest.mark.parametrize(
    "argv, imported",
    [(["--help"], "False"), (["bounds", "--n", "16"], "False"), (["airy-certify", "--h", "0.1"], "True")],
)
def test_only_airy_certify_imports_multiprocessing(argv, imported):
    # the benchmark times --help starts as set-up; they and the other
    # commands must not pay for the descent workers' import
    code = "import sys; from timepovm.cli import main; main(sys.argv[1:]); print('multiprocessing' in sys.modules)"
    argv = [sys.executable, "-c", code, *argv]
    run = subprocess.run(argv, capture_output=True, text=True, env=cli_env(None, None), timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == imported


def test_fixture_files_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the minimal-state table's norms, kinetic terms and moments reduce
    # 19 999-entry vectors, which a BLAS reduction rounds by the thread count
    one, default = tmp_path / "one", tmp_path / "default"
    for out, setting in ((one, "1"), (default, None)):
        argv = [sys.executable, "-m", "timepovm", "emit-fixtures", "--n", "8", "--out", str(out)]
        run = subprocess.run(argv, capture_output=True, env=cli_env("OPENBLAS_NUM_THREADS", setting), timeout=120)
        assert run.returncode == 0, run.stderr
    names = sorted(p.name for p in default.iterdir())
    assert names == ["halfline-povm.json", "minimal-state.txt", "sharp-povm.json", "vector-povm.json"]
    for name in names:
        assert (one / name).read_bytes() == (default / name).read_bytes(), name


# with the AVX-512 features off numpy runs its AVX2 kernels, as on a CPU
# without AVX-512; with these off too it runs its SSE kernels.  At the
# default 19 999 rows a BLAS dot product splits its vectors over its
# threads, so a sum taken through BLAS would round by the thread count
AVX2 = "X86_V4 AVX512_ICL AVX512_SPR"


def one_cpu():
    # run in the child before the CLI starts: it and every worker it forks
    # share the lowest CPU the tests may use
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# setting -> (environment variable, its value, what the child runs before
# the CLI starts); None leaves the variable as it is or runs nothing
HOST_SETTINGS = {
    "avx2": ("NPY_DISABLE_CPU_FEATURES", AVX2, None),
    "sse": ("NPY_DISABLE_CPU_FEATURES", AVX2 + " X86_V3 AVX2 FMA3 AVX F16C", None),
    "one-thread": ("OPENBLAS_NUM_THREADS", "1", None),
    "one-cpu": (None, None, one_cpu),
}

# Every CLI byte contract, once: the golden file tests/golden/NAME.txt that
# the command prints, run in the n = 64 fixture directory (a relative path
# keeps dilate's povm= field independent of where the tests run), and the
# host settings under which a fresh process must print the same bytes.
# The printed time tails, energy moments and check residuals sit at the
# rounding floor, so a new FFT summation order or factorization path moves
# them and the golden must be regenerated.  numpy's real exp and power,
# complex multiply and complex abs round by SIMD level; dilate still moves
# at the SSE level, so it runs at AVX2 only.  On a CPU that lacks the
# features, disabling them only warns, so the runs compare the same kernels.
# airy-certify's descents run in two forked workers beside the spectral
# work; on one CPU all three processes take turns on one core.
CONTRACTS = {
    "airy-certify-default": (["airy-certify"], ["one-thread", "one-cpu"]),
    "airy-certify-h2e-3-L17": (["airy-certify", "--h", "2e-3", "--domain-l", "17"], ["one-cpu"]),
    # other seeds start the descents elsewhere
    "airy-certify-h2e-3-L17-seed5": (
        ["airy-certify", "--h", "2e-3", "--domain-l", "17", "--seed", "5"],
        ["one-cpu"],
    ),
    "airy-certify-h5e-3-L17-seed3": (
        ["airy-certify", "--h", "5e-3", "--domain-l", "17", "--seed", "3"],
        ["one-cpu"],
    ),
    "bounds-default": (["bounds"], ["sse"]),
    "bounds-halfline-gaussian": (["bounds", "--model", "halfline"], ["sse"]),
    "bounds-halfline-minimal": (["bounds", "--model", "halfline", "--states", "minimal"], ["sse"]),
    "bounds-halfline-random-0-20-all": (
        ["bounds", "--model", "halfline", "--states", "random:0..20", "--check", "all"],
        ["avx2", "sse", "one-thread"],
    ),
    "bounds-halfline-n1000-random-0-30-all": (
        ["bounds", "--model", "halfline", "--n", "1000", "--states", "random:0..30", "--check", "all"],
        ["sse"],
    ),
    # another seed draws another additivity state and other occurrence states
    "dilate-halfline-n64": (["dilate", "halfline-povm.json"], ["avx2"]),
    "dilate-halfline-n64-seed3": (["dilate", "halfline-povm.json", "--seed", "3"], ["avx2"]),
    "dilate-sharp-n64": (["dilate", "sharp-povm.json"], ["avx2"]),
    "dilate-sharp-n64-seed3": (["dilate", "sharp-povm.json", "--seed", "3"], ["avx2"]),
    "dilate-vector-n64": (["dilate", "vector-povm.json"], ["avx2", "one-thread"]),
    "dilate-vector-n64-seed3": (["dilate", "vector-povm.json", "--seed", "3"], ["avx2"]),
}
GOLDEN = Path(__file__).parent / "golden"


def test_every_golden_is_a_contract():
    # airy-zeros.txt pins a table of the special module, not a CLI run
    assert sorted(p.stem for p in GOLDEN.glob("*.txt") if p.name != "airy-zeros.txt") == sorted(CONTRACTS)


# test_acceptance's criterion 01 diffs airy-certify-default in process
@pytest.mark.parametrize("name", [name for name in CONTRACTS if name != "airy-certify-default"])
def test_stdout_matches_its_golden(name, fixtures64, capsys, monkeypatch):
    monkeypatch.chdir(fixtures64)
    assert main(CONTRACTS[name][0]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name, setting", [(name, s) for name, (_, settings) in CONTRACTS.items() for s in settings])
def test_stdout_does_not_depend_on_the_host(name, setting, fixtures64):
    variable, value, before = HOST_SETTINGS[setting]
    run = subprocess.run(
        [sys.executable, "-m", "timepovm", *CONTRACTS[name][0]],
        capture_output=True,
        text=True,
        env=cli_env(variable, value),
        preexec_fn=before,
        cwd=fixtures64,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / f"{name}.txt").read_text()


def test_a_closed_stdout_ends_in_one_exit_and_nothing_on_stderr():
    # the reader takes one line and closes the pipe, as `| head -1` does;
    # 2001 records overflow the pipe's buffer, so the run meets the closed pipe
    argv = [sys.executable, "-m", "timepovm", "bounds", "--states", "random:0..2000"]
    env = cli_env("PYTHONUNBUFFERED", None)
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert first.startswith(b"model=fullline ")
    assert err == b""
    assert code == cli._CLOSED_STDOUT == 141


def test_a_closed_stdout_leaves_no_descent_worker_behind(tmp_path):
    # unbuffered, the first record meets the pipe closed while both descent
    # workers run.  The run's own session holds every process it forks, and
    # stderr goes to a file, so that reading it cannot wait for a worker
    # left behind that holds it open
    argv = [sys.executable, "-m", "timepovm", "airy-certify", "--h", "2e-3", "--domain-l", "17"]
    err = tmp_path / "stderr"
    with open(err, "wb") as sink:
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=sink, env=cli_env("PYTHONUNBUFFERED", "1"), start_new_session=True
        )
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert code == cli._CLOSED_STDOUT
    assert err.read_bytes() == b""
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_report_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(["bounds", "--out", str(target)]) == 0
    out = capsys.readouterr().out
    assert target.read_text() == out


def tampered_fixture(tmp_path):
    # an emit-fixtures file whose effect 0 has one entry moved off the family
    out = tmp_path / "fx"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["emit-fixtures", "--n", "8", "--h", "5e-3", "--out", str(out)]) == 0
    doc = json.loads((out / "sharp-povm.json").read_text())
    doc["effects"][0]["re"][0][0] += 0.2
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc) + "\n")
    return str(bad)


@pytest.mark.parametrize(
    "argv, error, code",
    [
        (lambda tmp: ["dilate", tampered_fixture(tmp)], "axiom-violated", 1),
        (lambda tmp: ["bounds", "--de", "1e200", "--n", "4"], "bound-not-applicable", 1),
        (lambda tmp: ["airy-certify", "--domain-l", "3"], "domain", 2),
        (lambda tmp: ["bounds", "--model", "halfline", "--de", "0.033", "--states", "minimal"], "config", 2),
    ],
    ids=["axiom-violated", "bound-not-applicable", "domain", "minimal-past-the-airy-window"],
)
def test_a_refused_run_leaves_an_existing_out_file_as_it_was(argv, error, code, tmp_path, capsys):
    # only a run that ends with its summary writes the copy; an error record
    # is the last line on stdout and the file keeps the previous run's report
    target = tmp_path / "report.txt"
    before = b"summary=dilate checks=6 failures=0\n"
    target.write_bytes(before)
    assert main(argv(tmp_path) + ["--out", str(target)]) == code
    out, recs = records(capsys)
    assert recs[-1]["error"] == error
    assert "summary=" not in out
    assert target.read_bytes() == before
    assert not list(tmp_path.rglob("*.tmp"))


def failed_write_record(capsys, argv, asked):
    # one error=io record, exit 2, naming the file asked for and no temp file
    assert main(argv) == 2
    out, recs = records(capsys)
    assert [ln for ln in out.splitlines() if ln.startswith("error=")] == [out.splitlines()[-1]]
    assert recs[-1]["error"] == "io", out
    assert recs[-1]["detail"].endswith(f": {str(asked)!r}"), out
    assert ".tmp" not in out
    return recs


def test_a_report_that_cannot_replace_a_directory_names_it(tmp_path, capsys):
    target = tmp_path / "DIR"
    target.mkdir()
    recs = failed_write_record(capsys, ["bounds", "--n", "64", "--out", str(target)], target)
    # the report was printed before the write failed
    assert recs[-2] == {"summary": "bounds", "checks": "2", "failures": "0"}
    assert list(tmp_path.iterdir()) == [target] and not any(target.iterdir())


def test_a_report_in_a_missing_directory_names_it(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    failed_write_record(capsys, ["bounds", "--n", "64", "--out", str(target)], target)


def test_a_fixture_that_cannot_replace_a_directory_names_it(tmp_path, capsys):
    blocked = tmp_path / "sharp-povm.json"
    blocked.mkdir()
    argv = ["emit-fixtures", "--n", "8", "--h", "0.05", "--domain-l", "10", "--out", str(tmp_path)]
    recs = failed_write_record(capsys, argv, blocked)
    assert len(recs) == 1
    assert list(tmp_path.iterdir()) == [blocked] and not any(blocked.iterdir())


def indefinite_file(tmp_path, size):
    # a zero-diagonal perturbation transported covariantly from bin to bin
    # sums to zero over a period, so only positivity breaks
    povm = build_sharp_time_povm(centered_grid(8))
    phases = np.exp(1j * povm.grid.energies * povm.lattice.tau)
    bump = np.zeros((8, 8), dtype=complex)
    bump[0, 1] = bump[1, 0] = size
    dense = np.stack(
        [povm.effect(k) + (phases**k)[:, None] * bump * (phases**k).conj()[None, :] for k in range(8)]
    )
    path = tmp_path / "indefinite.json"
    save_povm(CovariantPOVM(povm.grid, povm.lattice, dense=dense), path)
    return path


def test_dilate_indefinite_file_reports_positivity(tmp_path, capsys):
    assert main(["dilate", str(indefinite_file(tmp_path, 0.3))]) == 1
    _, recs = records(capsys)
    assert find(recs, error="axiom-violated")["axiom"] == "positivity"


def test_dilate_refuses_a_negative_effect_inside_a_loose_tolerance(tmp_path, capsys):
    # a bump of 3e-7 passes validation at tolerance 1e-6, but effect 0 is
    # negative beyond rounding and has no kernel to dilate
    assert main(["dilate", str(indefinite_file(tmp_path, 3e-7)), "--tolerance-scale", "1e4"]) == 1
    _, recs = records(capsys)
    assert find(recs, validation="axioms")["pass"] == "true"
    assert recs[-1] == {"error": "axiom-violated", "axiom": "positivity"}


@pytest.mark.parametrize("bump, code", [(1e-11, 0), (1e-6, 1)])
def test_dilate_measures_the_anti_hermitian_part_of_effect_0(bump, code, tmp_path, capsys):
    # inside the 1e-10 tolerance the Hermitian part of effect 0 is dilated;
    # beyond it effect 0 is not positive, and the validation line says so
    path = tmp_path / "sharp8.json"
    save_povm(build_sharp_time_povm(centered_grid(8)), path)
    doc = json.loads(path.read_text())
    doc["effects"][0]["im"][0][1] += bump
    path.write_text(json.dumps(doc) + "\n")
    assert main(["dilate", str(path)]) == code
    _, recs = records(capsys)
    verdict = find(recs, validation="axioms")
    if code == 0:
        assert verdict["pass"] == "true"
        assert recs[-1] == {"summary": "dilate", "checks": "6", "failures": "0"}
    else:
        assert float(verdict["min_effect_eigenvalue"]) == pytest.approx(-bump / 2, rel=1e-6)
        assert recs[-1]["error"] == "axiom-violated"


def small_eigenvalue_file(tmp_path, kind, eps, n=64):
    # a complete dense family whose E_0 has a second eigenvalue near eps:
    # "e3" is g g^dagger + eps e_3 e_3^dagger, complete because |g_3|^2 is
    # 1/n - eps; "mixture" is (1 - eps) g g^dagger + eps h h^dagger of two
    # vector generators
    grid = centered_grid(n)
    g, h = (
        vector_generated_povm(grid, np.exp(2j * np.pi * np.random.default_rng(seed).random(n)) / np.sqrt(n))
        for seed in (5, 6)
    )
    if kind == "e3":
        kernel = np.concatenate([g.generator, np.sqrt(eps) * np.eye(n)[3:4]])
        kernel[0, 3] *= np.sqrt(1.0 - n * eps)
    else:
        kernel = np.concatenate([np.sqrt(1.0 - eps) * g.generator, np.sqrt(eps) * h.generator])
    family = CovariantPOVM(grid, g.lattice, generator=kernel)
    path = tmp_path / f"{kind}-{eps}.json"
    save_povm(CovariantPOVM(grid, g.lattice, dense=np.stack([family.effect(k) for k in range(n)])), path)
    return path


def test_dilate_keeps_a_small_eigenvalue_of_a_hermitian_effect_0(tmp_path, capsys):
    # the eigenvalue near eps = 5e-11, inside the 1e-10 tolerance, is part
    # of the family, and without it the compression gap at (3, 3) is eps
    # per bin of the set
    main(["dilate", str(small_eigenvalue_file(tmp_path, "e3", 5e-11))])
    _, recs = records(capsys)
    assert find(recs, validation="axioms")["pass"] == "true"
    assert find(recs, dilation="built")["rank"] == str(2 * 64)
    assert float(find(recs, check="compression")["residual"]) < 1e-13
    assert find(recs, check="imprimitivity")["pass"] == "true"
    assert find(recs, check="shift-power")["pass"] == "true"


@pytest.mark.parametrize("kind, eps", [("e3", 1e-9), ("mixture", 1e-9), ("mixture", 5e-11)])
def test_dilate_passes_every_check_beside_a_small_kept_eigenvalue(kind, eps, tmp_path, capsys):
    # the shift is built from rows of unit norm; dividing by the small
    # eigenvalue instead magnified phase rounding past 1e-10 in
    # shift-power, and at 5e-11 in imprimitivity too
    assert main(["dilate", str(small_eigenvalue_file(tmp_path, kind, eps))]) == 0
    _, recs = records(capsys)
    assert find(recs, dilation="built")["rank"] == str(2 * 64)
    assert recs[-1] == {"summary": "dilate", "checks": "6", "failures": "0"}
    assert max(float(r["residual"]) for r in recs if "check" in r) < 1e-13


def test_dilate_holds_at_a_tolerance_above_every_eigenvalue(tmp_path, capsys):
    # a tolerance of 1 admits any Hermitian E_0 with eigenvalues up to 1;
    # none of them is noise, so the kernel keeps them
    path = tmp_path / "sharp8.json"
    save_povm(build_sharp_time_povm(centered_grid(8)), path)
    assert main(["dilate", str(path), "--tolerance-scale", "1e10"]) == 0
    _, recs = records(capsys)
    assert recs[-1] == {"summary": "dilate", "checks": "6", "failures": "0"}


def test_numerical_breakdown_is_one_record_exit_one(tmp_path, capsys, monkeypatch):
    def breakdown(*args, **kwargs):
        raise RuntimeError("jacobi iteration did not converge within the sweep limit")

    path = tmp_path / "sharp8.json"
    save_povm(build_sharp_time_povm(centered_grid(8)), path)
    monkeypatch.setattr("timepovm.cli.dila.build_dilation", breakdown)
    assert main(["dilate", str(path)]) == 1
    _, recs = records(capsys)
    assert recs[-1] == {"error": "numerical", "detail": "jacobi iteration did not converge within the sweep limit"}


@pytest.mark.parametrize("field", ["n_bins", "effects"])
def test_dilate_refuses_deep_nesting_as_input(field, tmp_path, capsys):
    # json recurses once per nesting level; its RecursionError is a
    # RuntimeError, which must not pass for a numerical breakdown
    path = tmp_path / "deep.json"
    path.write_text('{"%s": %s}' % (field, "[" * 100_000 + "]" * 100_000))
    assert main(["dilate", str(path)]) == 2
    _, recs = records(capsys)
    assert recs[-1] == {"error": "input", "detail": f"{path}: values nested too deeply to parse"}


def test_eigensolver_breakdown_is_still_numerical(tmp_path, capsys, monkeypatch):
    def breakdown(*args, **kwargs):
        raise RuntimeError("jacobi iteration did not converge within the sweep limit")

    path = tmp_path / "sharp8.json"
    save_povm(build_sharp_time_povm(centered_grid(8)), path)
    monkeypatch.setattr(dilation, "hermitian_eigh", breakdown)
    assert main(["dilate", str(path)]) == 1
    _, recs = records(capsys)
    assert recs[-1] == {"error": "numerical", "detail": "jacobi iteration did not converge within the sweep limit"}


def test_written_files_honour_the_umask(tmp_path, capsys):
    old = os.umask(0o022)
    try:
        fixture = tmp_path / "fixture.json"
        save_povm(build_sharp_time_povm(centered_grid(8)), fixture)
        report = tmp_path / "report.txt"
        assert main(["dilate", str(fixture), "--out", str(report)]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    assert stat.S_IMODE(fixture.stat().st_mode) == 0o644
    assert stat.S_IMODE(report.stat().st_mode) == 0o644


def test_certify_needs_few_sturm_passes(capsys, monkeypatch):
    # the k=3 spectrum serves the k=1 requests and Rayleigh quotients finish
    # the brackets; bisecting every bracket to 1e-12 takes 34 passes here
    calls = []
    count = linalg.sturm_count

    def counted(t, x):
        calls.append(np.size(x))
        return count(t, x)

    monkeypatch.setattr(linalg, "sturm_count", counted)
    airy_operator_spectrum.cache_clear()
    try:
        assert main(["airy-certify", "--h", "2e-3", "--domain-l", "17"]) == 0
    finally:
        airy_operator_spectrum.cache_clear()
    _, recs = records(capsys)
    assert recs[-1] == {"summary": "airy-certify", "checks": "9", "failures": "0"}
    assert len(calls) <= 12


def test_bounds_builds_no_fourier_map_and_one_distribution_per_state(capsys, monkeypatch):
    # the factored model stores one kernel row and serves all three checks
    # of a state from one FFT; before, the whole n x n map and 3 dense
    # products per state
    built = []
    rows_of = model.fourier_map

    def one_row_only(grid, rows=None):
        if rows is None:
            raise AssertionError("the n x n Fourier map was materialized")
        out = rows_of(grid, rows)
        built.append(out.shape)
        return out

    calls = []
    probs = CovariantPOVM.occurrence_probabilities

    def counted(self, state):
        calls.append(state)
        return probs(self, state)

    monkeypatch.setattr(model, "fourier_map", one_row_only)
    monkeypatch.setattr(CovariantPOVM, "occurrence_probabilities", counted)
    assert main(["bounds", "--model", "halfline", "--states", "random:0..20", "--check", "all"]) == 0
    _, recs = records(capsys)
    assert recs[-1] == {"summary": "bounds", "checks": "63", "failures": "0"}
    assert built == [(1, 2048)]
    assert len(calls) == 21


def test_dilate_validates_once(tmp_path, capsys, monkeypatch):
    # the public builder makes the dilation from the verdict the command
    # already printed
    calls, builds = [], []
    validate, build = model.validate_povm, dilation.build_dilation

    def counted(povm, *args, **kwargs):
        calls.append(povm.n_bins)
        return validate(povm, *args, **kwargs)

    def counted_build(povm, *args, **kwargs):
        builds.append(povm.n_bins)
        return build(povm, *args, **kwargs)

    for module in (cli, dilation):
        monkeypatch.setattr(module, "validate_povm", counted)
    monkeypatch.setattr(dilation, "build_dilation", counted_build)
    path = tmp_path / "sharp.json"
    save_povm(build_sharp_time_povm(centered_grid(16)), path)
    assert main(["dilate", str(path)]) == 0
    _, recs = records(capsys)
    assert recs[-1] == {"summary": "dilate", "checks": "6", "failures": "0"}
    assert calls == [16]
    assert builds == [16]
    # library callers still get a validated dilation
    assert dilation.build_dilation(build_sharp_time_povm(centered_grid(16))).rank == 16
    assert calls == [16, 16]


def test_negative_seeds_are_refused_before_any_work(tmp_path, capsys):
    path = tmp_path / "sharp.json"
    save_povm(build_sharp_time_povm(centered_grid(8)), path)
    for argv in (
        ["airy-certify", "--seed", "-1"],
        ["dilate", str(path), "--seed", "-5"],
        ["bounds", "--states", "random:-2..1"],
        ["bounds", "--states", "random:-3"],
    ):
        assert main(argv) == 2, argv
        out = capsys.readouterr().out
        # at most the one error record: no header, no data
        assert all(line.startswith("error=config ") for line in out.splitlines()), argv


@pytest.mark.parametrize("n", [8, 64])
def test_dilate_needs_few_eigensolves(n, tmp_path, capsys, monkeypatch):
    # one spectrum of effect 0 in the validation, whose eigenvectors give
    # K_0; the dilation solves only the r x r Gram matrix of K_0, r = 1 here.
    # One per effect in each of the three stages takes 3n
    calls = []
    eigh = linalg.hermitian_eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    for module in (linalg, model, dilation):
        monkeypatch.setattr(module, "hermitian_eigh", counted)
    out = tmp_path / "fx"
    assert main(["emit-fixtures", "--n", str(n), "--h", "5e-3", "--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("sharp-povm.json", "halfline-povm.json", "vector-povm.json"):
        calls.clear()
        assert main(["dilate", str(out / name)]) == 0
        _, recs = records(capsys)
        assert recs[-1] == {"summary": "dilate", "checks": "6", "failures": "0"}
        dim = int(recs[0]["dim"])
        assert calls.count((dim, dim)) <= 1, name
        assert all(shape in ((dim, dim), (1, 1)) for shape in calls), name


OVERSIZED = [
    ["bounds", "--n", str(cli._MAX_BOUNDS_BINS + 1)],
    ["bounds", "--model", "halfline", "--n", str(cli._MAX_BOUNDS_BINS + 1)],
    ["emit-fixtures", "--n", str(cli._MAX_FIXTURE_BINS + 1)],
    ["emit-fixtures", "--h", "1e-5"],
    ["airy-certify", "--h", "1e-5"],
    ["airy-certify", "--h", "1e-300", "--domain-l", "1e300"],
]


class Reached(Exception):
    pass


def stop_builders(monkeypatch):
    def reached(*args, **kwargs):
        raise Reached

    for name in (
        "default_fullline_model",
        "default_halfline_model",
        "vector_generated_povm",
        "minimal_state",
        "airy_operator_spectrum",
    ):
        monkeypatch.setattr(cli, name, reached)
    for name, row in cli._MODELS.items():
        monkeypatch.setitem(cli._MODELS, name, (reached, *row[1:]))


@pytest.mark.parametrize("argv", OVERSIZED, ids=lambda a: "-".join(a))
def test_oversized_requests_are_refused_before_building(argv, tmp_path, capsys, monkeypatch):
    stop_builders(monkeypatch)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    _, recs = records(capsys)
    assert len(recs) == 1
    assert recs[0]["error"] == "config"
    assert "exceeds the limit" in recs[0]["detail"]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, error",
    [(["--n", "2"], "config"), (["--domain-l", "5"], "domain")],
    ids=["one-energy-above-cutoff", "short-domain"],
)
def test_a_refused_fixture_request_leaves_no_directory(argv, error, tmp_path, capsys):
    out = tmp_path / "a" / "b" / "c"
    assert main(["emit-fixtures", *argv, "--out", str(out)]) == 2
    _, recs = records(capsys)
    assert [r["error"] for r in recs] == [error]
    assert not (tmp_path / "a").exists()


def test_a_huge_refused_request_prints_a_short_number(capsys):
    # 2e301 rows is past 1e15, so it prints in e-notation; a size below
    # that prints as the integer it always did
    assert main(["airy-certify", "--h", "1e-300"]) == 2
    want = "error=config detail=request of 2.000e+301 grid rows (--domain-l / --h) exceeds the limit of 200000\n"
    assert capsys.readouterr().out == want
    assert main(["bounds", "--n", "5000"]) == 2
    assert capsys.readouterr().out == "error=config detail=request of 5000 energy bins (--n) exceeds the limit of 4096\n"


def test_size_limits_admit_the_largest_allowed_requests(tmp_path, monkeypatch):
    stop_builders(monkeypatch)
    out = str(tmp_path / "out")
    # at each limit the guard lets the request through to the (stopped) builder
    with pytest.raises(Reached):
        main(["bounds", "--n", str(cli._MAX_BOUNDS_BINS)])
    with pytest.raises(Reached):
        main(["emit-fixtures", "--n", str(cli._MAX_FIXTURE_BINS), "--out", out])
    with pytest.raises(Reached):
        main(["airy-certify", "--h", "1e-4"])
    # the guard arithmetic: what the limits admit stays within a few hundred MB
    assert 16 * cli._MAX_BOUNDS_BINS**2 <= 2**28
    assert 2 * cli._MAX_FIXTURE_BINS**3 * 20 <= 100 * 2**20
    assert round(20.0 / 1e-4) - 1 <= cli._MAX_GRID_ROWS
    # and the defaults sit well inside them
    assert round(20.0 / 1e-3) - 1 <= cli._MAX_GRID_ROWS // 10
    assert 2048 <= cli._MAX_BOUNDS_BINS and 64 <= cli._MAX_FIXTURE_BINS
