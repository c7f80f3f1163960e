"""hamfactor benchmark: closed-loop CLI workloads with oracle-checked reports.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve1d --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

One client in one process calls ``hamfactor.cli.main(argv)`` in-process and
issues the next call only after the previous one returns (a closed loop
with a single client).  The loop runs whole decks of seeded inputs (see
``workloads.py``) until the timed calls add up to ``--seconds``.  Call
times are scaled to a reference host speed measured between the calls
(``hostspeed.py``); raw times go to the results file too.  Every report is
checked by an oracle outside the timed window, and one call is repeated to
require a byte-identical report.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
each deck untraced and traced (same inputs), and reports per-layer spans
recorded by ``tracing.py`` from outside the package, plus the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; a fuller record with the
environment goes to ``perfbench/results/``.  ``baseline.json`` holds the
numbers measured when the benchmark was defined and the map from each
traced layer to the end-to-end metric it should move.

``verify`` runs here but is not listed in ``BENCHMARK.json``: hamfactor's
own ``factorization_1d`` check fails at rounding level on a few verify
seeds (``baseline.json`` has the reproducer), and its oracle still demands
that every check passes, so it fails about one run in three.

BLAS runs nproc - 1 threads, so the client thread and BLAS together stay
within the machine's cores.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Same as workloads.WORKLOADS, which imports NumPy and so cannot load
#: before the BLAS thread count is pinned.
WORKLOADS = ("verify", "solve1d", "solve1d_large", "tables")
#: Set-up runs per measurement: this process plus fresh subprocesses.
SETUP_SAMPLES = 5
#: The tail is the slowest call that still has this many calls beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "call_s_p50": "s",
    "call_s_tail": "s",
    "calls_per_s": "1/s",
    "cpu_s_per_call": "s",
    "peak_rss_mb": "MB",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Must run before NumPy is imported."""
    threads = max(1, nproc() - 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


class Session:
    """Imported CLI, seeded decks and the call loop of one workload."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        start = perf_counter()
        sys.path.insert(0, str(SRC))
        import hamfactor.cli
        import workloads

        if not Path(hamfactor.cli.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported hamfactor from {hamfactor.cli.__file__}, not from {SRC}")
        self.cli = hamfactor.cli
        self.decks = workloads.make_pool(workload, seed, workdir)
        self.host_mix = workloads.HOST_MIX[workload]
        # The smallest call of the first deck warms up untimed; its report
        # anchors the determinism check.  A fixed rung keeps set-up seed-independent.
        self.warmup = min(self.decks[0], key=lambda call: call.rank)
        self.reference = self.invoke(self.warmup)
        self.setup_s = perf_counter() - start
        self.attempted, self.failed, self.problems = 0, 0, []
        self.count(self.check(self.warmup, self.reference))

    def count(self, problems: list[str]) -> bool:
        """Record one attempted call and whether it failed."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems
        return bool(problems)

    def invoke(self, call) -> tuple[int | None, str, float, float]:
        """(exit code or None if it raised, report, wall s, process CPU s)."""
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            wall, cpu = perf_counter(), process_time()
            try:
                code = self.cli.main(list(call.argv))
            except Exception:  # a crash is a failed call, not a benchmark error
                traceback.print_exc(file=sys.stderr)
                code = None
            wall, cpu = perf_counter() - wall, process_time() - cpu
        return code, buffer.getvalue(), wall, cpu

    def check(self, call, result) -> list[str]:
        code, text = result[0], result[1]
        if code is None:
            return [f"{' '.join(call.argv)}: raised"]
        try:
            problems = call.oracle(code, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable report: {exc!r}"]
        return [f"{' '.join(call.argv)}: {p}" for p in problems]

    def run_call(self, call) -> tuple[int | None, str, float, float]:
        """Invoke, then check outside the timing."""
        result = self.invoke(call)
        self.count(self.check(call, result))
        return result

    def repeat_warmup(self) -> None:
        """Byte-determinism: the warm-up call again must give the same report."""
        again = self.invoke(self.warmup)
        problems = self.check(self.warmup, again)
        if again[1] != self.reference[1]:
            problems.append(f"{' '.join(self.warmup.argv)}: report differs from the warm-up run")
        self.count(problems)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the slowest call with TAIL_BEYOND calls beyond it.

    With too few calls for that, the slowest call (percentile 100).
    """
    ordered = sorted(samples)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:
        return ordered[-1], 100.0
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def measure(session: Session, seconds: float) -> dict:
    """Timed loop over whole decks until the scaled call times reach ``seconds``.

    The host-speed kernels run between calls, outside their timing; each
    call is divided by the mean host slowness measured just before and just
    after it.  Raw times are kept alongside.
    """
    import hostspeed

    raw, walls, cpus = [], [], []
    deck = 0
    slow = hostspeed.slowness(session.host_mix)
    while sum(walls) < seconds:
        for call in session.decks[deck % len(session.decks)]:
            _, _, wall, cpu = session.run_call(call)
            before, slow = slow, hostspeed.slowness(session.host_mix)
            scale = 2.0 / (before + slow)
            raw.append(wall)
            walls.append(wall * scale)
            cpus.append(cpu * scale)
        deck += 1
    tail_s, tail_pct = tail(walls)
    return {
        "walls": walls,
        "call_s_p50": statistics.median(walls),
        "call_s_tail": tail_s,
        "tail_percentile": tail_pct,
        "calls_per_s": len(walls) / sum(walls),
        "cpu_s_per_call": sum(cpus) / len(cpus),
        "decks": deck,
        "raw_call_s_p50": statistics.median(raw),
        "raw_calls_per_s": len(raw) / sum(raw),
    }


def scaled_setup(session: Session) -> tuple[float, float]:
    """(raw, scaled) set-up time; the host speed is taken right after set-up."""
    import hostspeed
    import workloads

    slow = sorted(hostspeed.slowness(workloads.SETUP_MIX) for _ in range(3))[1]
    return session.setup_s, session.setup_s / slow


def setup_probe(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """(raw, scaled) set-up time of a fresh interpreter, read from a child's last line."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    raw, scaled = out.stdout.split()
    return float(raw), float(scaled)


def environment(args, blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "client_threads": 1,
        "nproc": nproc(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(args, blas_threads: int) -> dict:
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        session = Session(args.workload, args.seed, workdir / "main")
        if args.trace:
            metrics, details = trace_run(session, args.seconds, args.workload)
        else:
            setups = [scaled_setup(session)]
            timed = measure(session, args.seconds)
            session.repeat_warmup()
            setups += [setup_probe(args.workload, args.seed, workdir / f"probe{i}") for i in range(1, SETUP_SAMPLES)]
            metrics = {
                "setup_s": statistics.median(scaled for _, scaled in setups),
                "call_s_p50": timed["call_s_p50"],
                "call_s_tail": timed["call_s_tail"],
                "calls_per_s": timed["calls_per_s"],
                "cpu_s_per_call": timed["cpu_s_per_call"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            details = {
                "samples": len(timed["walls"]),
                "decks": timed["decks"],
                "tail_percentile": timed["tail_percentile"],
                "setup_samples": setups,
                "raw_call_s_p50": timed["raw_call_s_p50"],
                "raw_calls_per_s": timed["raw_calls_per_s"],
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details["error_rate"] = session.failed / session.attempted
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
        "details": details,
        "problems": session.problems[:20],
        "environment": environment(args, blas_threads),
    }


def trace_run(session: Session, seconds: float, workload: str) -> tuple[dict, dict]:
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, levels, deck = [], [], 0, 0
    while sum(plain) + sum(traced) < seconds:
        current = session.decks[deck % len(session.decks)]
        # Alternate which side runs first, so warm-up and drift cancel in the overhead.
        if deck % 2:
            with tracer.installed():
                results = [session.run_call(call) for call in current]
            reference = [session.run_call(call) for call in current]
        else:
            reference = [session.run_call(call) for call in current]
            with tracer.installed():
                results = [session.run_call(call) for call in current]
        for call, before, after in zip(current, reference, results):
            plain.append(before[2])
            traced.append(after[2])
            levels += call.levels
            if before[1] != after[1]:
                session.count([f"{' '.join(call.argv)}: report differs when traced"])
        deck += 1
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics, gap = tracer.metrics(levels, overhead)
    if gap > 1e-9:
        session.count([f"trace: self times miss the cli.main total by a share of {gap:.3e}"])
    tracer.write_spans(HERE / "results" / f"{workload}.spans.npz")
    return metrics, {"traced_calls": len(traced), "decks": deck, "self_time_gap": gap, "levels": levels}


def render(result: dict, units: dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
        }
    )


def run_all(args) -> int:
    """Each workload in its own process; prints a table and a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(argv, capture_output=True, text=True, timeout=300)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"error: workload {workload} exited {out.returncode}", file=sys.stderr)
            return 1
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "hamfactor" / "cli.py").is_file():
        print(f"error: no hamfactor sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    if args.setup_probe:
        print(*scaled_setup(Session(args.workload, args.seed, args.workdir)))
        return 0
    if args.workload == "all":
        return run_all(args)

    result = run_workload(args, blas_threads)
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    record = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    if args.trace:
        from tracing import per_layer_metric_units

        units = per_layer_metric_units()
    else:
        units = END_TO_END_UNITS
    for problem in result["problems"]:
        print(f"FAIL {problem}")
    details = result["details"]
    env = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  attempted {result['attempted']}  failed {result['failed']}")
    print(f"  python {env['python']}  numpy {env['numpy']}  {env['blas']} x{env['blas_threads']} threads  nproc {env['nproc']}")
    if not args.trace:
        print(f"  error_rate      {details['error_rate']:.6g}  (calls failed / calls attempted)")
    for name, value in result["metrics"].items():
        note = ""
        if name == "call_s_tail":
            note = f"  (p{details['tail_percentile']:.1f} of {details['samples']} calls)"
        elif name == "call_s_p50":
            note = f"  (of {details['samples']} calls)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_SAMPLES})"
        print(f"  {name:<15} {value:.6g} {units[name]}{note}")
    print(render(result, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
