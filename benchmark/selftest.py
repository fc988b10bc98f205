"""Self-test of the workload generators and the checker, at tiny sizes.

    python3 benchmark/selftest.py

Runs every workload's generator with tiny sizes, serves each request through
`contestlab.cli.main`, and checks it. Then, for every successful request, it
perturbs one reported number by one part in 10^6 and requires the checker to
flag it. The `verify` checks are bands (best-response gap at most 1e-6 of the
top prize, Monte Carlo mean within its half-width), so for `verify` the
perturbed number is a reported sweep point; the bands are shown to flag a gap
of 2e-6 of the top prize and a mean moved by two half-widths. Exits 1 on any
unexpected result. Takes seconds.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import OUT, SRC, _write_configs, serve

sys.path.insert(0, str(SRC))

import contestlab.cli as cli  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

PART = 1e-6


def _scale_first(results: dict, command: str) -> bool:
    """Multiply one reported number by 1 + 1e-6; False when nothing nonzero fits."""
    if command == "solve":
        results["boundaries"][-1] *= 1 + PART
    elif command == "effort":
        results["expected_effort"] *= 1 + PART
    elif command == "alpha":
        results["alpha"][-1] *= 1 + PART
    elif command == "compare":
        results["linear_effect"] *= 1 + PART
    elif command == "optimize":
        results["value"] *= 1 + PART
    elif command == "converge":
        results["max_effort"] *= 1 + PART
    elif command == "verify":
        row = max(results["gaps"], key=lambda g: g["argmax_effort"])
        if row["argmax_effort"] == 0.0:
            return False
        row["argmax_effort"] *= 1 + PART
    return True


def _flagged(checker, req, code, results) -> bool:
    report = json.dumps({"results": results})
    return bool(checker.check(req, (code, report)))


def main() -> int:
    started = time.perf_counter()
    checker = reference.Checker()
    bad = []
    counts = {"requests": 0, "known_fault": 0, "perturbed": 0, "bands": 0}
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT))
    try:
        for workload in workloads.WORKLOADS:
            requests = workloads.GENERATORS[workload](seed=1, tiny=True)
            paths = _write_configs(requests, workdir, f"{workload}-")
            for req, path in zip(requests, paths):
                counts["requests"] += 1
                code, report = serve(cli, path)[:2]
                problems = checker.check(req, (code, report))
                if req.known_fault:
                    counts["known_fault"] += 1
                    if not problems:
                        print(f"note: {req.name} passes; its known fault looks fixed")
                    continue
                if problems:
                    bad.append(f"{workload}/{req.name}: {problems[0]}")
                    continue
                if code != 0:
                    continue
                results = json.loads(report)["results"]
                perturbed = copy.deepcopy(results)
                if _scale_first(perturbed, req.command):
                    counts["perturbed"] += 1
                    if not _flagged(checker, req, code, perturbed):
                        bad.append(f"{workload}/{req.name}: a 1e-6 perturbation passed the checker")
                if req.command == "verify":
                    counts["bands"] += 1
                    top = req.config["contest"]["prizes"][-1]
                    wide_gap = copy.deepcopy(results)
                    wide_gap["gaps"][0]["gap"] = 2 * reference.GAP_TOL * top
                    shifted = copy.deepcopy(results)
                    shifted["monte_carlo"]["mean"] += 2 * shifted["monte_carlo"]["half_width"]
                    for label, variant in (("gap", wide_gap), ("Monte Carlo mean", shifted)):
                        if not _flagged(checker, req, code, variant):
                            bad.append(f"{workload}/{req.name}: an out-of-band {label} passed the checker")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in bad:
        print(f"FAIL {line}")
    print(
        f"selftest: {counts['requests']} requests ({counts['known_fault']} with a known fault), "
        f"{counts['perturbed']} perturbations and {counts['bands']} band checks flagged, "
        f"{len(bad)} unexpected, {time.perf_counter() - started:.1f} s"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
