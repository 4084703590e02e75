"""Command-line interface: reports, exit codes, and file handling."""

import contextlib
import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from timepovm import cli, dilation, linalg, model
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


def test_certify_stdout_is_unchanged_to_the_last_digit(capsys):
    # the full-row-loop implementation's stdout: no printed digit may move
    golden = (Path(__file__).parent / "golden" / "airy-certify-h2e-3-L17.txt").read_text()
    assert main(["airy-certify", "--h", "2e-3", "--domain-l", "17"]) == 0
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("airy-certify-h2e-3-L17-seed5.txt", ["--h", "2e-3", "--domain-l", "17", "--seed", "5"]),
        ("airy-certify-h5e-3-L17-seed3.txt", ["--h", "5e-3", "--domain-l", "17", "--seed", "3"]),
    ],
)
def test_certify_descents_away_from_seed_zero_are_unchanged(golden, argv, capsys):
    # other seeds start the descents elsewhere: values and iteration counts
    # of both functionals stay pinned to the last printed digit
    want = (Path(__file__).parent / "golden" / golden).read_text()
    assert main(["airy-certify", *argv]) == 0
    assert capsys.readouterr().out == want


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
    assert main(["airy-certify", "--domain-l", "3"]) == 2
    _, recs = records(capsys)
    assert recs[-1]["error"] == "domain"
    assert float(recs[-1]["required_length"]) > 3.0


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


@pytest.mark.parametrize("family", ["sharp", "halfline", "vector"])
def test_dilate_stdout_is_unchanged(family, fixtures64, capsys, monkeypatch):
    # every field but the check residuals is pinned to the last digit; the
    # residuals sit at the rounding floor, so a new factorization path moves
    # them and these files must be regenerated.  A relative path keeps the
    # povm= field independent of where the test runs.
    want = (Path(__file__).parent / "golden" / f"dilate-{family}-n64.txt").read_text()
    monkeypatch.chdir(fixtures64)
    assert main(["dilate", f"{family}-povm.json"]) == 0
    assert capsys.readouterr().out == want


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


def test_dilate_malformed_input_exits_two(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["dilate", str(empty)]) == 2
    _, recs = records(capsys)
    assert recs[-1]["error"] == "input"
    assert main(["dilate", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


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


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("bounds-default.txt", []),
        ("bounds-halfline-minimal.txt", ["--model", "halfline", "--states", "minimal"]),
        ("bounds-halfline-random-0-20-all.txt", ["--model", "halfline", "--states", "random:0..20", "--check", "all"]),
    ],
)
def test_bounds_stdout_is_unchanged_to_the_last_digit(golden, argv, capsys):
    # all three bounds, both saturations and the fuzz family; the fuzz
    # states' time_tail digits sit at the FFT's rounding floor, so a new
    # summation order in the FFT moves them and this file must be regenerated
    want = (Path(__file__).parent / "golden" / golden).read_text()
    assert main(["bounds", *argv]) == 0
    assert capsys.readouterr().out == want


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


def test_usage_errors_exit_two(capsys):
    assert main(["bounds", "--n", "-4"]) == 2
    assert main(["bounds", "--states", "gaussian,bogus"]) == 2
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    capsys.readouterr()


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


def test_report_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(["bounds", "--out", str(target)]) == 0
    out = capsys.readouterr().out
    assert target.read_text() == out


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


def test_dilate_keeps_a_small_eigenvalue_of_a_hermitian_effect_0(tmp_path, capsys):
    # E_0 = g g^dagger + eps e_3 e_3^dagger, complete because |g_3|^2 is
    # 1/n - eps: its eigenvalue near eps = 5e-11, inside the 1e-10
    # tolerance, is part of the family, and without it the compression gap
    # at (3, 3) is eps per bin of the set
    n, eps = 64, 5e-11
    grid = centered_grid(n)
    vector = vector_generated_povm(grid, np.exp(2j * np.pi * np.random.default_rng(5).random(n)) / 8.0)
    kernel = np.concatenate([vector.generator, np.sqrt(eps) * np.eye(n)[3:4]])
    kernel[0, 3] *= np.sqrt(1.0 - n * eps)
    family = CovariantPOVM(grid, vector.lattice, generator=kernel)
    path = tmp_path / "small-eigenvalue.json"
    save_povm(CovariantPOVM(grid, vector.lattice, dense=np.stack([family.effect(k) for k in range(n)])), path)
    main(["dilate", str(path)])
    _, recs = records(capsys)
    assert find(recs, validation="axioms")["pass"] == "true"
    assert find(recs, dilation="built")["rank"] == str(2 * n)
    assert float(find(recs, check="compression")["residual"]) < 1e-13
    # not asserted: imprimitivity and shift-power, whose residuals for this
    # family (3e-10, 5e-10) grow as the kept eigenvalue shrinks (ROADMAP)


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
