"""Benchmark of the ``timepovm`` command line, run the way users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is loaded from
``src/``.  Every CLI invocation is a fresh process, and only one runs at a
time: a closed loop with a single client.  A *pass* is one run through the
workload's command list.  Passes repeat for about ``--seconds``: another
pass starts only while it is expected to end nearer that mark than stopping
now, and there are at least two, so every command is repeated and its stdout
compared.

Set-up (input generation plus one unscored warm-up invocation that loads
the whole package) is repeated SETUPS times and reported as a median.

``--trace 0`` prints the end-to-end metrics: median pass wall time, median
per-pass peak child RSS (``os.wait4``), and set-up time.  ``--trace 1``
alternates untraced and traced passes; the traced ones run each command
under ``launch.py``, which wraps the public layer functions from outside
the package, and the per-layer metrics are medians over traced passes.

The last stdout line is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
run environment and a readable summary, and the full result is also
written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from tracer import summarize  # noqa: E402

SETUPS = 3
MIN_PASSES = 2
BOUNDS_STATES = 200
# a run may take 180 s: children still running at DEADLINE are killed (and
# count as failed), and no pass starts in the last minute before it
DEADLINE = time.perf_counter() + 170.0
LAST_PASS_START = DEADLINE - 60.0

CONSOLE = "import sys; from timepovm.cli import entrypoint; sys.argv[0] = 'timepovm'; entrypoint()"
SUMMARY = re.compile(rb"^summary=(\S+) checks=(\d+) failures=(\d+)$")
ITERATIONS = re.compile(rb"\biterations=(\d+)")

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; ``<span>.calls|s|self_s`` come from span
# summaries, the names in NON_SPAN from counters, stdout and file sizes
PER_LAYER = {
    "linalg.sturm_count.calls": "count",
    "linalg.sturm_count.self_s": "s",
    "linalg.tridiag_lowest_eigs.calls": "count",
    "linalg.tridiag_lowest_eigs.s": "s",
    "variational.airy_operator_spectrum.misses": "count",
    "linalg.tridiag_solve.calls": "count",
    "linalg.tridiag_solve.self_s": "s",
    "linalg.tridiag_eigenvector.calls": "count",
    "linalg.tridiag_eigenvector.s": "s",
    "linalg.TridiagFactor.solve.calls": "count",
    "linalg.TridiagFactor.solve.self_s": "s",
    "variational.descent.iterations": "count",
    "variational.minimize_product.s": "s",
    "variational.minimize_combined.s": "s",
    "variational.minimal_state.s": "s",
    "variational.verify_min_identity_chain.self_s": "s",
    "linalg.hermitian_eigh.calls": "count",
    "linalg.hermitian_eigh.self_s": "s",
    "model.validate_povm.calls": "count",
    "model.validate_povm.s": "s",
    "model.CovariantPOVM.effect.calls": "count",
    "dilation.build_dilation.s": "s",
    "dilation.build_dilation.self_s": "s",
    "dilation.checks.self_s": "s",
    "formats.load_povm.self_s": "s",
    "formats.load_povm.bytes": "B",
    "formats.save_povm.self_s": "s",
    "formats.save_povm.bytes": "B",
    "model.CovariantPOVM.occurrence_probabilities.calls": "count",
    "model.CovariantPOVM.occurrence_probabilities.self_s": "s",
    "model.fourier_map.self_s": "s",
    "model.random_smooth_state.self_s": "s",
    "uncertainty.check_bound.calls": "count",
    "uncertainty.check_bound.self_s": "s",
    "special.airy_ai.calls": "count",
    "special.airy_ai.self_s": "s",
    "special.airy_zero.s": "s",
    "cli.import_s": "s",
    "cli.command.self_s": "s",
    "trace.overhead_s": "s",
}

# metrics summed over several spans
AGGREGATES = {
    "dilation.checks": (
        "dilation.check_compression",
        "dilation.check_imprimitivity",
        "dilation.check_restriction",
        "dilation.check_occurrence_consistency",
        "dilation.shift_power_deviation",
    ),
    "uncertainty.check_bound": (
        "uncertainty.check_time_energy_bound",
        "uncertainty.check_positive_energy_bound",
        "uncertainty.check_combined_bound",
    ),
}
# metrics that are not ``<span>.<field>`` of the pass's command spans
SETUP_METRICS = ("formats.save_povm.self_s", "formats.save_povm.bytes")
NON_SPAN = {
    "variational.airy_operator_spectrum.misses",
    "variational.descent.iterations",
    "formats.load_povm.bytes",
    "cli.import_s",
    "trace.overhead_s",
    *SETUP_METRICS,
}
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    summary: str
    checks: int
    load_file: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    needs_inputs: bool

    def commands(self, seed: int, workdir: Path) -> list[Command]:
        s = str(seed)
        if self.name == "certify-fine":
            return [Command(("airy-certify", "--seed", s), "airy-certify", 9)]
        if self.name == "dilate-n64":
            return [
                Command(("dilate", str(path), "--seed", s), "dilate", 6, str(path))
                for path in (workdir.relative_to(ROOT) / f"{kind}-povm.json" for kind in ("sharp", "halfline", "vector"))
            ]
        states = f"random:{seed}..{seed + BOUNDS_STATES}"
        count = BOUNDS_STATES + 1
        return [
            Command(("bounds", "--model", "halfline", "--states", states, "--check", "all"), "bounds", 3 * count),
            Command(("bounds", "--model", "fullline", "--states", states), "bounds", count),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify-fine", "airy-certify", False),
        Workload("dilate-n64", "dilate", True),
        Workload("bounds-fuzz", "bounds", False),
    )
}


@dataclass
class Invocation:
    wall_s: float
    code: int
    stdout: bytes
    stderr: bytes
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], workdir: Path) -> Invocation:
    """Run one child to completion; wall time, exit code, output, peak RSS."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        timer = threading.Timer(max(DEADLINE - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Invocation(wall, code, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss / 1024.0)


def run_cli(args, workdir: Path, spans_path: Path | None) -> Invocation:
    if spans_path is None:
        argv = [sys.executable, "-c", CONSOLE, *args]
    else:
        argv = [sys.executable, str(HERE / "launch.py"), str(spans_path), *args]
    return spawn(argv, workdir)


def failure(inv: Invocation, cmd: Command | None, seen: dict) -> str | None:
    """Why an invocation counts as failed, or None when it passed every gate."""
    if inv.code != 0:
        return f"exit code {inv.code}"
    if b"Traceback (most recent call last)" in inv.stderr:
        return "traceback on stderr"
    if cmd is None:
        return None
    lines = inv.stdout.rstrip(b"\n").split(b"\n")
    match = SUMMARY.match(lines[-1])
    if match is None:
        return "no summary line"
    summary, checks, failures = match.group(1).decode(), int(match.group(2)), int(match.group(3))
    if summary != cmd.summary or failures != 0 or checks != cmd.checks:
        return f"summary={summary} checks={checks} failures={failures}, expected checks={cmd.checks}"
    first = seen.setdefault(cmd.args, inv.stdout)
    if first != inv.stdout:
        return "stdout differs from an earlier repeat"
    return None


def span_metric(summary: dict, metric: str) -> float:
    base, field = metric.rsplit(".", 1)
    return float(sum(summary.get(name, {}).get(field, 0) for name in AGGREGATES.get(base, (base,))))


def layer_metrics(trace: dict, inv: Invocation, cmd: Command) -> dict:
    """Per-layer metrics of one traced invocation."""
    summary = summarize(trace["spans"])
    out = {m: span_metric(summary, m) for m in PER_LAYER if m not in NON_SPAN}
    out["variational.airy_operator_spectrum.misses"] = float(
        trace["counters"].get("variational.airy_operator_spectrum.misses", 0)
    )
    out["variational.descent.iterations"] = float(sum(int(x) for x in ITERATIONS.findall(inv.stdout)))
    loads = summary.get("formats.load_povm", {}).get("calls", 0)
    out["formats.load_povm.bytes"] = float(loads * os.path.getsize(ROOT / cmd.load_file)) if cmd.load_file else 0.0
    out["cli.import_s"] = summary.get("cli.import", {}).get("s", 0.0)
    return out


def environment(seed: int, cold: bool) -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "seed": seed,
        "commit": commit,
        "start": "cold" if cold else "warm",
        "loop": "closed, 1 client",
    }


def end_to_end_metrics(passes: list[dict], setup_s: list[float]) -> dict:
    plain = [p for p in passes if not p["traced"]]
    values = {
        "pass_s": statistics.median(p["wall_s"] for p in plain),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(passes: list[dict], setup_layers: list[dict]) -> dict:
    """Medians over traced passes; save metrics over set-ups; the overhead is
    the traced minus the untraced median pass time."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in SETUP_METRICS:
            values = [s[name] for s in setup_layers] or [0.0]
        elif name == "trace.overhead_s":
            values = [statistics.median(p["wall_s"] for p in traced) - statistics.median(p["wall_s"] for p in plain)]
        else:
            values = [p["layers"].get(name, 0.0) for p in traced]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "timepovm" / "cli.py").is_file():
        print(f"no timepovm package under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    traced_run = bool(args.trace)
    # the CLI and numpy take non-negative seeds only
    seed = args.seed % 2**32
    # the first run in a checkout starts with cold page and bytecode caches
    cold = not any(OUT.glob("result-*.json"))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    attempted = failed = 0
    reasons: list[str] = []

    def gate(inv: Invocation, cmd: Command | None, seen: dict, label: str) -> bool:
        nonlocal attempted, failed
        attempted += 1
        why = failure(inv, cmd, seen)
        if why is not None:
            failed += 1
            reasons.append(f"{label}: {why}")
        return why is None

    try:
        setup_s, setup_layers = [], []
        for i in range(SETUPS):
            start = time.perf_counter()
            if workload.needs_inputs:
                spans = workdir / "setup-spans.json" if traced_run else None
                argv = [sys.executable, str(HERE / "make_inputs.py"), str(seed), str(workdir)]
                inv = spawn(argv + ([str(spans)] if spans else []), workdir)
                if gate(inv, None, {}, f"setup {i}: make_inputs") and spans:
                    summary = summarize(json.loads(spans.read_text())["spans"])
                    setup_layers.append(
                        {
                            "formats.save_povm.self_s": span_metric(summary, "formats.save_povm.self_s"),
                            "formats.save_povm.bytes": float(
                                sum(p.stat().st_size for p in workdir.glob("*-povm.json"))
                            ),
                        }
                    )
            inv = run_cli((workload.subcommand, "--help"), workdir, None)
            gate(inv, None, {}, f"setup {i}: warm-up")
            setup_s.append(time.perf_counter() - start)

        commands = workload.commands(seed, workdir)
        seen: dict = {}
        passes = []
        command_counts: dict[str, dict] = {}
        measure_start = time.perf_counter()
        while True:
            traced = traced_run and len(passes) % 2 == 1
            layers: dict[str, float] = {}
            rss = 0.0
            start = time.perf_counter()
            for cmd in commands:
                spans = workdir / "spans.json" if traced else None
                inv = run_cli(cmd.args, workdir, spans)
                ok = gate(inv, cmd, seen, " ".join(cmd.args))
                rss = max(rss, inv.rss_mb)
                if traced and ok:
                    measured = layer_metrics(json.loads(spans.read_text()), inv, cmd)
                    command_counts.setdefault(" ".join(cmd.args), measured)
                    for key, value in measured.items():
                        layers[key] = layers.get(key, 0.0) + value
            passes.append({"traced": traced, "wall_s": time.perf_counter() - start, "peak_rss_mb": rss, "layers": layers})
            now = time.perf_counter()
            # stop where the next pass would end further past --seconds than
            # stopping now falls short of it
            if len(passes) >= MIN_PASSES and now - measure_start + passes[-1]["wall_s"] / 2 >= args.seconds:
                break
            if now > LAST_PASS_START:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [p["wall_s"] for p in passes if not p["traced"]]
    if traced_run:
        metrics = per_layer_metrics(passes, setup_layers)
    else:
        metrics = end_to_end_metrics(passes, setup_s)

    env = environment(args.seed, cold)
    q1, med, q3 = quartiles(walls)
    readable = (
        f"workload={workload.name} seed={args.seed} trace={args.trace} passes={len(passes)} "
        f"untraced_passes={len(walls)} pass_s={med:.4f} pass_s_q1={q1:.4f} pass_s_q3={q3:.4f} "
        f"setup_s={statistics.median(setup_s):.4f} fail_ratio={failed / attempted:.4f} ({failed}/{attempted} invocations)"
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "env": env,
        "workload": workload.name,
        "commands": [list(c.args) for c in commands],
        "setup_s_samples": setup_s,
        "passes": passes,
        "fail_ratio": failed / attempted,
        "failures": reasons,
        "result": result,
    }
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("env " + json.dumps(env, sort_keys=True))
    print(readable)
    for command, measured in command_counts.items():
        calls = " ".join(f"{k}={v:g}" for k, v in measured.items() if PER_LAYER[k] == "count" and v)
        print(f"traced command={command!r} {calls}")
    for why in reasons:
        print("failed " + why)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
