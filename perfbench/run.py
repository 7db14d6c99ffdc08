"""Host-time benchmark of the simulator: one workload, one seed, one run.

    python3 perfbench/run.py --workload matmul_tiled --seed 1 --seconds 26 --trace 0

The run drives the package's public Python API from one process and one
load-generating thread, in a closed loop: the next op starts when the previous
one has returned. It sets up the workload, checks a noise-free op bit-exactly
against an int64 oracle, computes the reference ops, then runs ops for
``--seconds`` seconds and checks each against its reference. Set-up time is
probed in fresh processes before, halfway through and after the untraced loop,
while no op runs.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
runs the first half of the time untraced and the second half traced, and
reports the per-layer metrics; spans go to ``perfbench/out``. A summary for
people precedes the last line of output, which is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads and inherited by the set-up probes:
# the load thread plus, on matmul_threaded, the two pool threads already fill a
# 2-core machine, and spinning BLAS threads on top of them measure the scheduler.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4  # per group; three groups, before, inside and after the timed loop
WORKLOAD_NAMES = ("matmul_tiled", "matmul_threaded", "har_step_chip", "har_step_software")


def unit_of(name: str) -> str:
    if name == "macs_per_s":
        return "MAC/s"
    if name.endswith("_frac"):
        return "fraction"
    if name == "executor.sim_utilization":
        return "ratio"
    if name.endswith("_lsb"):
        return "LSB"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    return "count"


def import_package():
    """Import anamac from this checkout's sources and nowhere else."""
    if not (SRC / "anamac" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import anamac

    if Path(anamac.__file__).resolve().parent != SRC / "anamac":
        sys.exit(f"perfbench: imported anamac from {anamac.__file__}, not from {SRC}")
    return anamac


def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def probe_setup(workload: str, seed: int) -> list:
    """Seconds of set-up in ``SETUP_PROBES`` fresh processes, one at a time; see probe.py."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def same_bytes(got, want) -> bool:
    return len(got) == len(want) and all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in ((np.asarray(a), np.asarray(b)) for a, b in zip(got, want))
    )


def sim_stats(tracer, op, simulated) -> dict:
    stats = tracer.op_stats(op)
    if not simulated:
        stats.pop("sim_makespan_s", None)
    return stats


def references(workload):
    """Outputs and simulated statistics of one cycle of ops, computed untimed."""
    from tracer import Tracer

    with Tracer(workload.traced_layers()) as tracer:
        outputs = []
        for k in range(workload.cycle):
            tracer.begin_op(k)
            outputs.append(workload.outputs(workload.reference(k)))
            tracer.end_op()
    return outputs, [sim_stats(tracer, k, workload.simulated) for k in range(workload.cycle)]


def measure(workload, refs, seconds, first_op=0, tracer=None, ref_stats=None):
    """Closed loop for ``seconds``. Returns (latencies of correct ops, failed, next op).

    An op fails when it raises, when its output differs from its reference by
    one byte, or, traced, when its simulated statistics differ.
    """
    latencies, failed, op = [], 0, first_op
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        k = op % workload.cycle
        workload.prepare(op)
        if tracer is not None:
            tracer.begin_op(op)
        start = time.perf_counter()
        try:
            result = workload.run(op)
            ok = True
        except Exception:  # a failed op is counted and the loop goes on
            traceback.print_exc()
            ok = False
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        if ok:
            ok = same_bytes(workload.outputs(result), refs[k])
            if ok and tracer is not None:
                ok = sim_stats(tracer, op, workload.simulated) == ref_stats[k]
        if ok:
            latencies.append(elapsed)
        else:
            failed += 1
        op += 1
    return latencies, failed, op


def end_to_end(workload, latencies, setup_s) -> dict:
    ms = 1e3 * np.asarray(latencies)
    p10, p50, p90 = np.percentile(ms, [10, 50, 90])
    return {
        "setup_s": setup_s,
        "op_ms.p10": float(p10),
        "op_ms.p50": float(p50),
        "op_ms.p90": float(p90),
        "macs_per_s": workload.logical_macs * len(latencies) / float(np.sum(latencies)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    anamac = import_package()
    from tracer import Tracer
    from workloads import WORKLOADS

    # Set-up is probed in three groups some seconds apart, while no op runs,
    # so that the median does not rest on one moment of a shared host.
    setups = probe_setup(args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed)
    workload.make_inputs()
    workload.setup()
    noise_free_ok, rmse = workload.check()
    refs, ref_stats = references(workload)

    timed = args.seconds / 2 if args.trace else args.seconds
    latencies, failed, next_op = measure(workload, refs, timed / 2)
    setups += probe_setup(args.workload, args.seed)
    more, more_failed, next_op = measure(workload, refs, timed - timed / 2, next_op)
    latencies += more
    failed += more_failed
    setups += probe_setup(args.workload, args.seed)
    attempted = next_op
    if not latencies:
        sys.exit(f"perfbench: none of {attempted} untraced ops was correct")
    metrics = end_to_end(workload, latencies, statistics.median(setups))
    layers = {}
    if args.trace:
        tracer = Tracer(workload.traced_layers())
        with tracer:
            traced, traced_failed, next_op = measure(
                workload, refs, args.seconds - timed, next_op, tracer, ref_stats
            )
        failed += traced_failed
        attempted = next_op
        if not traced:
            sys.exit("perfbench: no traced op was correct")
        layers = tracer.layer_metrics()
        layers["trace.overhead_frac"] = float(np.median(traced) / np.median(latencies) - 1.0)

    extra = {
        "ops_failed_frac": failed / attempted,
        "output_rmse_lsb": rmse,
        "sim_makespan_ms": 1e3 * ref_stats[0].get("sim_makespan_s", 0.0),
    }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    everything = {**metrics, **extra, **layers}
    reported = {m["name"]: everything[m["name"]] for m in declared}
    correct = noise_free_ok and failed == 0

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "anamac": anamac.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "op_samples": len(latencies),
        "ops_attempted": attempted,
        "noise_free_bit_exact": noise_free_ok,
        "simulated_stats": ref_stats[0],
    }
    print(" ".join(f"{k}={v}" for k, v in meta.items() if k != "simulated_stats"))
    for name, value in everything.items():
        print(f"  {name:26s} {value:>16.6g} {unit_of(name)}")
    OUT.mkdir(exist_ok=True)
    if args.trace:
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(
            {**meta, "setup_probes_s": setups, "end_to_end": metrics, "extra": extra, "per_layer": layers},
            f,
            indent=2,
        )

    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in reported.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
