"""Write reference/<workload>.json: the expected outputs of every input variant.

    python3 bench/make_reference.py [workload ...]

Runs one pass of each variant with the sources in ``src/`` and stores each
operation's exit code and output summaries (see ``digest.py``).  Generate
the references once, at a commit whose outputs are known to be right; the
benchmark then holds later commits to them.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


def reference(workload: str) -> dict:
    variants = {}
    for variant in range(workloads.VARIANTS):
        work = run.WORK / f"reference-{workload}-{variant}"
        try:
            _, ops = workloads.prepare(workload, variant, work / "inputs")
            entries = []
            for i, op in enumerate(ops):
                out = work / "out" / f"op{i}"
                value = op.call(out)
                outputs = op.outputs(value, out)
                entries.append({
                    "name": op.name,
                    "exit": value if isinstance(value, int) else 0,
                    "outputs": {label: o.summarize() for label, o in outputs.items()},
                })
        finally:
            shutil.rmtree(work, ignore_errors=True)
        variants[str(variant)] = entries
        print(f"{workload} variant {variant}: {len(entries)} operations", file=sys.stderr)
    return {"src_sha256": run.src_sha256(), "variants": variants}


def main(argv) -> int:
    for workload in argv or sorted(workloads.WORKLOADS):
        path = run.BENCH / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(reference(workload), separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
