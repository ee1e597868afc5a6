"""Benchmark for storen: one workload per run, metrics as JSON.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload audit-rs --seed 1 --seconds 20 --trace 0

``--seconds`` sizes the measured work (``bench/README.md`` says how for
each workload).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` wraps the calls between layers, writes the spans under
``.bench_out/`` and reports the per-layer metrics.  The metric names and units come from
``BENCHMARK.json``.  Human-readable lines come first; the last line of
standard output is one JSON object.  The exit code is 0 when every
correctness check passed, 1 when one failed, 2 when the checkout has no
sources to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def machine():
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model}


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "storen" / "__init__.py").is_file():
        print(f"error: no storen sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import storen

    if Path(storen.__file__).resolve().parent != SRC / "storen":
        print(f"error: imported storen from {storen.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import layers
    from children import Children
    from tracer import Tracer
    from workloads import WORKLOADS, Run, log

    signal.signal(signal.SIGTERM, _interrupt)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    children = Children(str(SRC), cwd=str(ROOT))
    tracer = Tracer() if args.trace else None
    run = Run(args.seed, args.seconds, tracer, children, tmp)
    info = machine()
    log("machine: " + json.dumps(info))
    try:
        end_to_end = WORKLOADS[args.workload](run)
    finally:
        children.stop_all()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)

    if tracer is None:
        wanted, values = spec["end_to_end"], end_to_end
    else:
        wanted = spec["per_layer"]
        values = layers.layer_metrics(tracer, run.probe, run.layer_extra)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "machine": info, "end_to_end": end_to_end,
                           "per_layer": values})
        log(f"spans: {len(tracer.start)} written to {path.relative_to(ROOT)}")
        if tracer.absent:
            log("absent (reported as 0): " + ", ".join(tracer.absent))

    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        log(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    fail_ratio = run.failed / run.attempted if run.attempted else 1.0
    log(f"{args.workload} fail_ratio = {fail_ratio:.6g} "
        f"({run.failed} of {run.attempted} operations)")
    correct = run.attempted > 0 and run.failed == 0 and run.checks_failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        print("interrupted; every child stopped", file=sys.stderr)
        sys.exit(130)
