"""Benchmark of the evoalg library and command line; see README.md beside it.

    python3 bench/run.py --workload heredity|queries|gibbs --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``src/evoalg`` from
there.  One client runs passes over the workload's fixed operation list
in a closed loop; ``--seconds`` sets how many (see ``pass_count``).  The
first pass warms up and is not timed.  Every operation sits between two
host-speed probes, and its time is reported in reference seconds (see
``speed.py``).  Every output is checked against ``reference/`` and
against the first pass.  The last line of standard output is one JSON
object with the fields correct, attempted, failed and metrics: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import digest
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Seconds one pass, its probes and its checks took on the machine that
# defined the benchmark.  A run makes --seconds / CYCLE_SECONDS timed
# passes, at least MIN_PASSES, so the sample count behind every median
# and percentile depends on --seconds alone, not on how fast the machine
# runs that day.
CYCLE_SECONDS = {"heredity": 1.0, "queries": 0.4, "gibbs": 1.3}
MIN_PASSES = 2
WARMUP_PASSES = 1
SETUP_REPEATS = 7
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
SHOW_FAILURES = 5
# CPUs this process may use, counted before it pins itself to one
CPUS = len(os.sched_getaffinity(0))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("heredity", "queries", "gibbs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def src_sha256() -> str:
    """Hash of the package sources, to show which tree produced a result."""
    h = hashlib.sha256()
    for path in sorted((SRC / "evoalg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def setup(workload: str, seed: int, work: Path):
    """Generate the inputs and load the reference; return ``(variant, ops, expected)``."""
    import workloads

    variant, ops = workloads.prepare(workload, seed, work / "inputs")
    reference = json.loads((BENCH / "reference" / f"{workload}.json").read_text())
    expected = reference["variants"][str(variant)]
    if [e["name"] for e in expected] != [op.name for op in ops]:
        raise RuntimeError(f"reference/{workload}.json does not list this workload's operations")
    return variant, ops, expected


def time_setups(args) -> tuple:
    """``(wall, reference)`` seconds from process start until set-up is done.

    Each repeat is a fresh process, between two probes of this one.
    """
    wall, reference = [], []
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        before = speed.probe()
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up process exited with {child.returncode}")
        wall.append(elapsed)
        reference.append(elapsed * speed.scale(before, speed.probe()))
    return wall, reference


class Pass:
    """Latencies and check results of one pass; its time is the latency sum.

    ``wall`` holds each operation's wall seconds and ``scales`` the factor
    from its probes; ``latencies`` are their products, in reference seconds.
    """

    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.wall = []
        self.scales = []
        self.failures = []
        self.report_bytes = 0

    @property
    def latencies(self) -> list:
        return [w * s for w, s in zip(self.wall, self.scales)]

    @property
    def seconds(self) -> float:
        return sum(self.latencies)

    @property
    def wall_seconds(self) -> float:
        return sum(self.wall)


def run_pass(index, ops, expected, first, out_root, tracer=None) -> Pass:
    """Run every operation once, then check its outputs."""
    result = Pass(index, tracer is not None)
    if tracer is not None:
        tracer.begin_pass(index)
        tracer.install()
    outcomes = []
    before = speed.probe()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.at_op(i)
        began = time.perf_counter()
        try:
            value, error = op.call(out_root / f"op{i}"), None
        except SystemExit as exc:
            value, error = exc.code, None
        except Exception as exc:  # an operation that raises counts as failed
            value, error = None, f"{type(exc).__name__}: {exc}"
        result.wall.append(time.perf_counter() - began)
        after = speed.probe()
        result.scales.append(speed.scale(before, after))
        before = after
        outcomes.append((value, error))
    if tracer is not None:
        tracer.uninstall()
    for i, (op, (value, error), ref) in enumerate(zip(ops, outcomes, expected)):
        out = out_root / f"op{i}"
        if out.is_dir():
            result.report_bytes += sum(p.stat().st_size for p in out.iterdir())
        reason = error or check(op, value, out, ref, first, i)
        if reason:
            result.failures.append(f"pass {index} op {op.name!r}: {reason}")
    shutil.rmtree(out_root, ignore_errors=True)
    return result


def check(op, value, out, ref, first, i):
    """``None`` when an operation's outputs match, else the reason."""
    exit_code = value if isinstance(value, int) else 0
    if exit_code != ref["exit"]:
        return f"exit code {exit_code}, expected {ref['exit']}"
    outputs = op.outputs(value, out)
    if sorted(outputs) != sorted(ref["outputs"]):
        return f"outputs {sorted(outputs)}, expected {sorted(ref['outputs'])}"
    shas = {label: output.sha256 for label, output in outputs.items()}
    if i not in first:
        first[i] = shas
    for label, output in outputs.items():
        reason = digest.compare(ref["outputs"][label], output)
        if reason:
            return f"{label}: {reason}"
        if shas[label] != first[i][label]:
            return f"{label}: bytes differ from the first pass"
    return None


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / CYCLE_SECONDS[workload]))


def tail(latencies):
    """``(percentile, value, samples beyond)``: the highest percentile with ten beyond.

    Nearest-rank percentiles; with fewer than twenty samples none has ten
    beyond it and the maximum is reported.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def environment() -> str:
    import numpy

    return (f"nproc={CPUS} python={platform.python_version()} "
            f"numpy={numpy.__version__}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "evoalg" / "__init__.py").is_file():
        print(f"bench: {SRC / 'evoalg'} not found; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and its set-up children: the probes then
    # measure the core the timed work runs on, not its neighbour.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            setup(args.workload, args.seed, work)
            print("ready", flush=True)
            return 0
        return _measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, work: Path) -> int:
    setup_times = ([], []) if args.trace else time_setups(args)
    tracer = None
    setup_counts, problems = {}, []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    before = speed.probe()
    variant, ops, expected = setup(args.workload, args.seed, work)
    setup_scale = speed.scale(before, speed.probe())
    if tracer is not None:
        tracer.uninstall()
        setup_counts, problems = tracing.algebra_stats(tracer.algebras)

    passes, first, per_layer = [], {}, []
    for index in range(WARMUP_PASSES + pass_count(args.workload, args.seconds)):
        traced = tracer is not None and index % 2 == 1
        done = run_pass(index, ops, expected, first, work / f"pass{index}",
                        tracer if traced else None)
        passes.append(done)
        if traced:
            per_layer.append(_layer_metrics(tracer, done, setup_counts, setup_scale, problems))

    failures = [f for p in passes for f in p.failures] + problems
    attempted = sum(len(p.wall) for p in passes)
    failed = sum(len(p.failures) for p in passes) + len(problems)
    for line in failures[:SHOW_FAILURES]:
        print(f"bench: FAILED {line}", file=sys.stderr)

    timed = passes[WARMUP_PASSES:]
    print(f"workload={args.workload} seed={args.seed} variant={variant} trace={args.trace} "
          f"passes={len(timed)} timed, {WARMUP_PASSES} warm-up; operations={attempted}")
    print(f"environment: {environment()} src={src_sha256()[:12]}")
    print(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} operations)")
    if tracer is None:
        metrics = _end_to_end(timed, [op.name for op in ops], *setup_times)
    else:
        metrics, inconsistent = _summarize_layers(timed, per_layer)
        failures += inconsistent
        _write_trace(args, tracer, per_layer)
    for name, metric in metrics.items():
        value = metric["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name} {shown} {metric['unit']}")
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _end_to_end(passes, names, setup_wall, setup_times) -> dict:
    latencies = [t for p in passes for t in p.latencies]
    by_op = ", ".join(
        f"{name} {statistics.median(p.latencies[i] for p in passes) * 1e3:.4g}"
        for i, name in enumerate(names)
    )
    print(f"median ms by operation: {by_op}")
    wall = [t for p in passes for t in p.wall]
    p, value, beyond = tail(latencies)
    print(f"setup_s: median of {len(setup_times)} fresh processes; pass_s: median of "
          f"{len(passes)} passes; op_ms_tail: p{p:g} of {len(latencies)} samples, "
          f"{beyond} beyond it")
    print(f"wall time, not rescaled: setup_s {statistics.median(setup_wall):.6g} "
          f"pass_s {statistics.median(p.wall_seconds for p in passes):.6g} "
          f"op_ms_p50 {statistics.median(wall) * 1e3:.6g} "
          f"op_ms_tail {tail(wall)[1] * 1e3:.6g}; median probe "
          f"{statistics.median(speed.REFERENCE_PROBE_S / s for p in passes for s in p.scales) * 1e3:.4g} ms, "
          f"reference {speed.REFERENCE_PROBE_S * 1e3:g} ms")
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "pass_s": {"value": statistics.median(p.seconds for p in passes), "unit": "s"},
        "op_ms_p50": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "op_ms_tail": {"value": value * 1e3, "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MiB",
        },
    }


def _layer_metrics(tracer, done: Pass, setup_counts: dict, setup_scale: float,
                   problems: list) -> dict:
    """Self times in reference seconds and exact counts of one traced pass."""
    import tracing

    values = tracer.self_times(done.index, done.scales, setup_scale)
    counts = tracer.pass_counts()
    pass_counts, pass_problems = tracing.algebra_stats(tracer.algebras)
    tracer.algebras.clear()
    problems.extend(f"pass {done.index}: {p}" for p in pass_problems)
    for name, value in pass_counts.items():
        base = setup_counts.get(name, 0)
        counts[name] = max(base, value) if name == "algebra.max_children" else base + value
    counts["cli.report_bytes"] = done.report_bytes
    values.update(counts)
    return values


def _summarize_layers(passes, per_layer) -> tuple:
    import tracing

    inconsistent = [
        f"{name} differs between traced passes"
        for name in tracing.COUNT_METRICS
        if len({layer[name] for layer in per_layer}) > 1
    ]
    metrics = {
        name: {"value": statistics.median(layer[name] for layer in per_layer), "unit": "s"}
        for name in tracing.TIME_METRICS
    }
    for name in tracing.COUNT_METRICS:
        metrics[name] = {"value": per_layer[0][name], "unit": tracing.COUNT_UNITS[name]}
    for name, traced in (("bench.traced_pass_s", True), ("bench.untraced_pass_s", False)):
        seconds = statistics.median(p.seconds for p in passes if p.traced == traced)
        metrics[name] = {"value": seconds, "unit": "s"}
    return metrics, inconsistent


def _write_trace(args, tracer, per_layer):
    """Spans and per-pass layer figures of a traced run, written once at the end."""
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    fields = ("name", "start", "end", "busy", "parent", "pass", "op")
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "spans": [dict(zip(fields, span)) for span in tracer.spans],
        "passes": per_layer,
    }
    path.write_text(json.dumps(payload))
    print(f"trace written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
