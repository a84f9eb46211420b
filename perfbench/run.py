"""Benchmark for the assgp engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload build-full --seed 1 --seconds 20 --trace 0

It prints a report, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the workload with nothing installed and reports the
end-to-end metrics, which every workload defines (README.md maps them to
each workload's named metrics):

* ``setup_s``: what a command pays before its first operation, the median
  of 9 fresh interpreters importing ``assgp.cli``; query-mix adds the median
  of 5 state loads (``deserialize`` + ``verify_certificates``).
* ``command_s``: the workload's command: one build (the mean over schedule
  rotations of the median build), one ``member`` query on a known member,
  one 4000-trial ``verify``.
* ``op_p50_ms``, ``op_tail_ms``: latency of one operation (a build step, a
  ``member`` query on a random word, a 500-trial ``verify`` command).  The
  tail is the highest percentile with at least ten samples beyond it in the
  smallest run the workload allows; the report names it and the count.
* ``peak_rss_mb``: peak resident memory of the workload's process.

Times are in reference seconds (see ``workloads.Speed``); the report prints
the raw wall-clock figures beside them, and also the workload's named
metrics (``build_s``, ``last_quarter_step_ms``, ``state_bytes``, ``member_p50_ms``,
``member_tail_ms``, ``member_yes_share``, ``check_axioms_s``,
``assgp_query_s``, ``verify_s``, ``failed_share``).

``--trace 1`` first runs the workload's smallest run (as with ``--seconds
0``) untraced in a child process, then the same run in this process with
spans around every layer's entry points, measures the word kernel on the
workload's corpus and reports the per-layer metrics, with the tracing
overhead as traced minus untraced ``command_s``, ``op_p50_ms`` and
``op_tail_ms``.  The two runs differ only in the installed wrappers; they are
one run each, so host noise can outweigh a small overhead.  Spans are written to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("build-full", "build-assgp", "query-mix", "verify-suites")
END_TO_END = (
    ("setup_s", "s"),
    ("command_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def report(args, res, workloads, raw, ref, rss_mb: float) -> None:
    """Print the report: reference-second figures, raw wall time in brackets."""
    tail = workloads.tail_pct(res.min_ops)
    gate = res.gate
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
        f" | python {platform.python_version()} on {platform.node()}, nproc {os.cpu_count()}"
    )
    probes = gate.speed.probes
    print(
        f"  host speed: median probe {statistics.median(probes) * 1e3:.4f} ms over"
        f" {len(probes)} samples; times in reference seconds, raw wall in brackets"
    )
    notes = {
        "setup_s": "median start-up" + (" + state load" if args.workload == "query-mix" else ""),
        "command_s": res.command_note,
        "op_p50_ms": f"median of {res.op_count} ops",
        "op_tail_ms": f"p{tail:g} of {res.op_count} ops",
    }
    rows = [(name, raw.end_to_end[name], ref.end_to_end[name], unit, notes[name])
            for name, unit in END_TO_END if name != "peak_rss_mb"]
    rows.append(("peak_rss_mb", None, rss_mb, "MB", "this process"))
    rows.append(("-- named metrics", None, None, "", ""))
    rows += [(f[0], r[1], f[1], f[2], f[3]) for r, f in zip(raw.named, ref.named)]
    rows.append(("failed_share", None, gate.failed / max(1, gate.attempted), "ratio",
                 f"{gate.failed} of {gate.attempted} ops"))
    for name, raw_value, value, unit, note in rows:
        if value is None:
            print(f"  {name}")
        elif unit in ("s", "ms"):
            print(f"  {name:<22} {value:>12.6g} [{raw_value:>10.6g}] {unit:<6} {note}")
        else:
            print(f"  {name:<22} {value:>12.6g} {'':12} {unit:<6} {note}")
    if gate.errors:
        print(f"  exceptions: {dict(gate.errors)}")
    for what in gate.wrong[:10]:
        print(f"  WRONG: {what}")


def measure(args, res, workloads) -> dict[str, float]:
    """Report a run and return its end-to-end values in reference seconds."""
    raw = res.figures(workloads.wall)
    ref = res.figures(res.gate.speed.duration)
    rss_mb = workloads.peak_rss_mb()
    report(args, res, workloads, raw, ref, rss_mb)
    return {**ref.end_to_end, "peak_rss_mb": rss_mb}


def traced(args, workloads, size) -> tuple[dict, dict]:
    import tracing
    import wordbench

    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT,
    )
    sys.stdout.write(child.stdout)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"perfbench: untraced run exited with {child.returncode}")
    untraced = json.loads(child.stdout.strip().splitlines()[-1])

    tracer = tracing.Tracer()
    res = workloads.WORKLOADS[args.workload](ROOT, args.seed, 0, size, tracer)
    tracer.write(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    values = measure(args, res, workloads)

    metrics = tracer.layer_metrics(workloads.tail_pct(res.min_ops))
    metrics.update(wordbench.word_metrics(res.corpus, res.alphabets))
    base = untraced["metrics"]
    for name in ("command_s", "op_p50_ms", "op_tail_ms"):
        metrics[f"trace.overhead.{name}"] = values[name] - base[name]["value"]
    print(f"  spans: {len(tracer.spans)}")
    summary = {
        "correct": res.gate.correct and untraced["correct"],
        "attempted": res.gate.attempted + untraced["attempted"],
        "failed": res.gate.failed + untraced["failed"],
    }
    units = dict(tracing.LAYER_METRICS)
    return summary, {name: {"value": metrics[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="assgp benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "assgp" / "__init__.py").is_file():
        print(f"perfbench: no assgp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    size = workloads.FULL_SIZE[args.workload]
    if args.trace:
        summary, metrics = traced(args, workloads, size)
    else:
        res = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.seconds, size)
        values = measure(args, res, workloads)
        summary = {"correct": res.gate.correct, "attempted": res.gate.attempted, "failed": res.gate.failed}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({**summary, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
