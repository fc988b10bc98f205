"""End-to-end benchmark for contestlab.

    python3 benchmark/run.py --workload design|converge|query --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/
without being installed. Every request goes through `contestlab.cli.main`
in this process, one at a time (closed loop, one client). A run serves
whole rounds of the workload's fixed request list, starting another round
only while it is expected to finish within --seconds (at least one round).
Outputs are checked against independent references after the timed rounds.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced rounds and reports per-layer metrics from the traced ones, plus the
tracing overhead; it never reports end-to-end metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Per-run details and spans go to benchmark/out/.
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before numpy is imported: on two cores a
# second BLAS thread makes process CPU time exceed wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_PROBES = 2  # extra fresh-process set-ups; setup_s is the median with this run's own

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("req_s.p50", "s"),
    ("peak_rss_mb", "MB"),
)

SPAN_METRICS = (
    "design.optimize_budget.self_s",
    "effort.expected_effort.calls",
    "effort.expected_effort.self_s",
    "equilibrium.solve.calls",
    "equilibrium.solve.self_s",
    "competition.competition_effect_numeric.self_s",
    "continuum.continuum_strategy.calls",
    "continuum.continuum_strategy.self_s",
    "continuum.convergence_report.self_s",
    "equilibrium.exante_cdf.self_s",
    "kernels.prize_expectation_inverse.self_s",
    "costs.inverse.calls",
    "costs.inverse.self_s",
    "kernels.binom_tail.calls",
    "kernels.binom_tail.self_s",
    "effort.alpha_coefficients.self_s",
    "kernels.prize_expectation.self_s",
    "verify.monte_carlo_effort.self_s",
    "verify.best_response_gap.self_s",
    "cli.load_config.self_s",
    "cli.emit_report.self_s",
    "costs.validate_environment.self_s",
)


def _fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def _write_configs(requests, workdir: Path, prefix: str) -> list[str]:
    paths = []
    for i, req in enumerate(requests):
        path = workdir / f"{prefix}{i:03d}{req.suffix}"
        path.write_text(req.text if req.text is not None else json.dumps(req.config))
        paths.append(str(path))
    return paths


def serve(cli, path: str):
    """One request through the CLI: (exit code or escaped exception name, report, wall s, CPU s)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cpu, start = time.process_time(), time.perf_counter()
        try:
            code = cli.main([path, "--out", "-"])
        except Exception as exc:  # an escaped exception is this request's outcome
            code = type(exc).__name__
        elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu
    return code, out.getvalue(), elapsed, cpu


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate the workload's configs, serve one warm-up request."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import contestlab.cli as cli
    import workloads

    requests = workloads.GENERATORS[workload](seed)
    paths = _write_configs(requests, workdir, "req")
    [warm_path] = _write_configs([workloads.warmup(workload)], workdir, "warmup")
    code = serve(cli, warm_path)[0]
    if code != 0:
        _fail(f"warm-up request ended with {code!r}")
    return cli, requests, paths, time.perf_counter() - start


def run_round(cli, paths, tracer=None) -> dict:
    latencies, cpus, outcomes = [], [], []
    wall0 = time.perf_counter()
    for i, path in enumerate(paths):
        if tracer is not None:
            tracer.request = i
        code, report, elapsed, cpu = serve(cli, path)
        latencies.append(elapsed)
        cpus.append(cpu)
        outcomes.append((code, report))
    return {
        "wall_s": time.perf_counter() - wall0,
        "latencies": latencies,
        "cpus": cpus,
        "outcomes": outcomes,
        "traced": tracer is not None,
    }


def list_time(rounds, key: str) -> float:
    """Time to serve the request list once: per-request medians over rounds, summed.

    A burst of load from other tenants hits a few requests of one round; the
    per-request median drops it where the median of whole rounds would not.
    """
    return sum(statistics.median(column) for column in zip(*(r[key] for r in rounds)))


def reference_loop() -> float:
    """Fixed Python and numpy work that does not touch contestlab; a machine-speed figure."""
    import numpy as np

    a = np.random.default_rng(0).random((120, 120))
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    for _ in range(200):
        a = np.tanh(a @ a / 120.0)
    return time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        _fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _measure(cli, paths, seconds: float, trace: bool):
    """Serve rounds until the next one would overrun; traced runs alternate untraced/traced."""
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    rounds, spans = [], []
    began = time.perf_counter()
    while True:
        if trace:
            plain = run_round(cli, paths)
            tracer.install()
            first = tracer.mark()
            try:
                traced = run_round(cli, paths, tracer)
            finally:
                tracer.uninstall()
            spans.append(tracer.summary(first, tracer.mark()))
            rounds += [plain, traced]
            step = plain["wall_s"] + traced["wall_s"]
        else:
            rounds.append(run_round(cli, paths))
            step = rounds[-1]["wall_s"]
        if time.perf_counter() - began + step > seconds:
            return rounds, spans, tracer


def _evaluations(requests, rnd) -> int:
    total = 0
    for req, (code, report) in zip(requests, rnd["outcomes"]):
        if req.command == "optimize" and code == 0:
            total += json.loads(report)["results"]["evaluations"]
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="contestlab end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=("design", "converge", "query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "contestlab" / "__init__.py").is_file():
        _fail(f"no contestlab sources at {SRC}; run from a source checkout")

    tag = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli, requests, paths, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        ref_before = reference_loop()
        rounds, spans, tracer = _measure(cli, paths, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ref_after = reference_loop()
        setups = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import reference

    checker = reference.Checker()
    attempted = failed = 0
    correct = True
    problems = {}
    for rnd in rounds:
        for req, outcome in zip(requests, rnd["outcomes"]):
            attempted += 1
            errs = checker.check(req, outcome)
            if errs:
                failed += 1
                correct = correct and req.known_fault is not None
                problems.setdefault(req.name, {"known_fault": req.known_fault, "problems": errs[:5]})

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        values = {"design.evaluations": statistics.median(_evaluations(requests, r) for r in traced)}
        for name in SPAN_METRICS:
            span, field = name.rsplit(".", 1)
            values[name] = statistics.median(s[span][field] for s in spans)
        values["trace.overhead_s"] = list_time(traced, "latencies") - list_time(plain, "latencies")
        metrics = {
            name: {"value": value, "unit": "count" if name.endswith((".calls", ".evaluations")) else "s"}
            for name, value in values.items()
        }
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": list_time(plain, "latencies"),
            "cpu_s": list_time(plain, "cpus"),
            "req_s.p50": statistics.median(statistics.median(c) for c in zip(*(r["latencies"] for r in plain))),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "reference_loop_s": {"before": ref_before, "after": ref_after},
        "setup_s_samples": setups,
        "rounds": [
            {
                "traced": r["traced"],
                "wall_s": r["wall_s"],
                "cpu_s": sum(r["cpus"]),
                "latency_s": {req.name: x for req, x in zip(requests, r["latencies"])},
            }
            for r in rounds
        ],
        "problems": problems,
        "metrics": metrics,
    }
    if args.trace:
        detail["spans_per_traced_round"] = spans
        tracer.dump(str(OUT / f"{tag}-spans.npz"))
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")

    for name, item in problems.items():
        print(f"benchmark: {name} failed: {item['problems'][0]}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(plain)} untraced + {len(rounds) - len(plain)} traced rounds, "
        f"reference loop {ref_before:.4f} s before / {ref_after:.4f} s after"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
