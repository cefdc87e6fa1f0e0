"""Benchmark of the AW-MoE ranking service: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search-zipf --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` repeats the
run with spans around every layer boundary and reports the per-layer
metrics, including each end-to-end metric's tracing overhead (traced minus
untraced).  Both modes run the workload's correctness checks and audit
every request by identity.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it holds the machine fingerprint and the run's details
(sample counts, ladder rungs, check results, per-layer self times), which
are also written to ``perfbench/out/``.  Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(ROOT / "src"))


def _import_stack():
    """Import the program under test, or exit non-zero without a result."""
    try:
        import numpy  # noqa: F401

        import repro.serving  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the ranking service from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        sys.exit(2)


def fingerprint() -> dict:
    """The machine and build a result was measured on."""
    import numpy as np

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: config.get(key) for key in ("name", "version", "openblas configuration")}
    except Exception:
        pass
    # Threads as observed: the BLAS pool starts on the first GEMM.
    a = np.ones((256, 256))
    a @ a
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    from fixtures import source_digest

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "process_threads_after_gemm": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "src_sha256": source_digest(),
    }


def _git_commit():
    """HEAD's commit when the checkout is a git work tree, else ``None``."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-fixture", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_stack()
    sys.path.insert(0, str(BENCH_DIR))
    import fixtures

    if args.build_fixture:
        fixtures.build_into_cache(args.build_fixture)
        return 0

    import speed
    import workloads

    declared = _declared()
    if args.workload not in declared["workloads"] or args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {declared['workloads']}")
    wl = workloads.WORKLOADS[args.workload]
    machine = fingerprint()
    fx = fixtures.load(wl.fixture)
    result = workloads.run(args.workload, fx, args.seed, args.seconds, bool(args.trace))
    workloads.cleanup_work_dir()

    first = result["first"]
    checks = result["checks"]
    audits = {"main": first["audit"].summary()}
    if "fleet_audit" in first:
        audits["fleet_leg"] = first["fleet_audit"].summary()
    if args.trace:
        audits["traced"] = result["second"]["audit"].summary()
        if "fleet" in result["second"]:
            audits["traced_fleet_leg"] = result["second"]["fleet"]["audit"].summary()
    for audit in audits.values():
        audit["error_frac"] = audit["failed"] / max(1, audit["attempted"])
    correct = all(check["ok"] for check in checks.values()) and all(
        audit["missing"] == 0 and audit["duplicates"] == 0 for audit in audits.values()
    )
    attempted = sum(audit["attempted"] for audit in audits.values())
    failed = sum(audit["failed"] for audit in audits.values())
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "definition": {
            "rate_qps": wl.rate_qps,
            "ladder_fractions_of_measured_qps": list(workloads.LADDER_FRACTIONS),
            "closed_loop_chunk_s": workloads.CHUNK_S,
            "speed_reference_nominal_s": list(speed.NOMINAL_S),
            "latency_limit_ms": wl.latency_limit_ms,
            "shards": workloads.NUM_SHARDS,
            "max_batch": wl.max_batch,
            "setup_reps": wl.reps,
            "flush_deadline_ms": workloads.FLUSH_DEADLINE_MS,
            "cache_capacity": workloads.CACHE_CAPACITY,
            "zipf": wl.zipf,
        },
        "fingerprint": machine,
        "audits": audits,
        "checks": checks,
        "end_to_end": first["e2e"],
        "run": first["details"],
        "cpu": first["cpu"],
    }

    if args.trace:
        second = result["second"]
        layers = workloads.layer_metrics(result)
        for name, value in first["e2e"].items():
            layers[f"overhead.{name}"] = second["e2e"][name] - value
        spans = result["spans"]
        OUT_DIR.mkdir(exist_ok=True)
        span_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
        spans.write_jsonl(span_path)
        details["traced_end_to_end"] = second["e2e"]
        details["per_layer_all"] = layers
        details["self_time"] = workloads.self_time_table(spans)
        details["spans_file"] = str(span_path.relative_to(ROOT))
        details["notes"] = (
            "features.bytes_per_query is the summed nbytes of the assembled arrays; "
            "per-call times are means over the traced pass; idle_layer_metrics "
            "belong to layers this workload leaves idle and read 0"
        )
        idle, missing = workloads.missing_layer_metrics(wl, declared["per_layer"], layers)
        details["idle_layer_metrics"] = idle
        details["missing_layer_metrics"] = missing
        correct = correct and not missing
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in declared["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": float(first["e2e"][name]), "unit": unit}
            for name, unit in declared["end_to_end"].items()
        }

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(details, indent=1, default=str))
    print(json.dumps(details, default=str))
    print(json.dumps(
        {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
         "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
