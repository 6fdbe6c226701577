"""COOL flow benchmark: end-to-end metrics, or per-layer metrics traced.

Run from the repository root::

    python3 coolbench/run.py --workload suite_cold --seed 1 --seconds 10 --trace 0
    python3 coolbench/run.py --workload suite_cold --seed 1 --seconds 10 --trace 1

``--trace 0`` times whole passes with no tracer and no probes and
prints the end-to-end metrics.  ``--trace 1`` times untraced passes,
then one pass with layer probes and a ``repro.obs`` tracer, writes the
trace to ``.bench_run/`` (render it with ``python -m repro.obs report``)
and prints the per-layer metrics.  Every design's output is checked;
any mismatch or nondeterminism makes ``correct`` false and the exit
code 1.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
STARTED = time.perf_counter()
#: A run must end within this many seconds.
RUN_LIMIT_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite_cold", "area_repair", "store_warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # internal: one traced pass under another PYTHONHASHSEED, over the
    # parent's filled store where the workload has one
    parser.add_argument("--determinism-child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--store-root", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def code_hash() -> str:
    """Content hash of the program and the benchmark sources."""
    digest = hashlib.sha256()
    for base in (ROOT / "src" / "repro", ROOT / "coolbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


IMPORT_PROBE = f"""
import sys, time
sys.path[:0] = [{str(ROOT / 'coolbench')!r}, {str(ROOT / 'src')!r}]
from cool_meter import SpeedMeter
with SpeedMeter() as meter:
    begun = time.perf_counter()
    import cool_workloads
    ended = time.perf_counter()
print(meter.seconds(begun, ended))
"""


def import_seconds() -> float:
    """Nominal seconds a fresh interpreter spends importing the program."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(proc.stdout)


def timed_setup(workload, seed: int) -> tuple[object, list[tuple]]:
    """Set up ``setup_repeats`` times; returns the last state and the
    ``perf_counter`` interval of every set-up."""
    intervals = []
    state = None
    for _ in range(workload.setup_repeats):
        if state is not None:
            workload.cleanup(state)
        begun = time.perf_counter()
        state = workload.setup(seed, RUN_DIR)
        intervals.append((begun, time.perf_counter()))
    return state, intervals


def reset_peak_rss() -> None:
    """Restart the process's peak-memory mark from its current size, so
    the peak read after the passes leaves set-up out."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak resident memory since :func:`reset_peak_rss`, in MB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def one_pass(workload, state, tracer=None):
    """A pass with fresh process memos; probed and traced iff ``tracer``."""
    from cool_layers import assert_clean, probed
    from cool_workloads import clear_process_memos
    if tracer is None:
        assert_clean()
    clear_process_memos()
    gc.collect()
    with probed(tracer):
        return workload.run_pass(state)


def spans_of(tracer) -> list[dict]:
    from repro.obs import span_to_dict
    return [span_to_dict(span) for span in tracer.spans()]


def traced_signature(result, spans) -> dict[str, int]:
    """The pass signature plus the counts only the probes see."""
    hls = sum(1 for s in spans if s["kind"] == "layer" and s["name"] == "hls")
    return {**result.signature(), "hls.calls": hls}


# ----------------------------------------------------------------------
# determinism across runs and hash seeds
# ----------------------------------------------------------------------
def record_signature(key: str, signature: dict) -> str | None:
    """Store the signature of (workload, seed, code) on first sight;
    later runs must reproduce it.  Returns a problem or ``None``."""
    path = RUN_DIR / "determinism.json"
    try:
        known = json.loads(path.read_text())
    except (FileNotFoundError, ValueError):
        known = {}
    if key in known:
        if known[key] != signature:
            return (f"signature differs from an earlier run: "
                    f"{known[key]} != {signature}")
        return None
    known[key] = signature
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True, indent=1))
    os.replace(tmp, path)
    return None


def hashseed_child(args, state, signature: dict) -> str | None:
    """Repeat the traced pass in a child with another PYTHONHASHSEED.

    A store-backed workload hands the child its filled store: the child
    then checks that the stored results are found and read back the
    same under another hash seed, without a second cold fill (the fill's
    stage compute is the ``suite_cold`` child's check).
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
    budget = RUN_LIMIT_S - (time.perf_counter() - STARTED)
    command = [sys.executable, str(Path(__file__)), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds", "0",
               "--trace", "1", "--determinism-child"]
    root = getattr(state, "root", None)
    if root is not None:
        command += ["--store-root", str(root)]
    try:
        proc = subprocess.run(command, env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, budget))
    except subprocess.TimeoutExpired:
        return "hash-seed child ran out of time"
    if proc.returncode != 0:
        return f"hash-seed child failed: {proc.stderr.strip()[-400:]}"
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    if child != signature:
        return (f"PYTHONHASHSEED={env['PYTHONHASHSEED']} gives "
                f"{child} != {signature}")
    return None


# ----------------------------------------------------------------------
def measure(args, workload, state, setup_intervals, setup_spans, meter,
            tally, problems) -> tuple[dict, list]:
    """Run the passes of one invocation; returns (metrics, passes)."""
    import cool_report
    from repro.obs import Tracer

    passes = []
    reset_peak_rss()
    begun = time.perf_counter()
    minimum = max(2 if args.trace else 1, workload.min_passes)
    while (len(passes) < minimum
           or time.perf_counter() - begun < args.seconds):
        passes.append(one_pass(workload, state))
    rss_mb = peak_rss_mb()
    fill = getattr(state, "fill", None)
    for checked in ([fill] if fill is not None else []) + passes:
        for label, found in checked.checked:
            tally.record(label, found)
    first = passes[0].signature()
    for later in passes[1:]:
        if later.signature() != first:
            problems.append(f"a later pass differs from the first: "
                            f"{later.signature()} != {first}")
    problems.extend(cool_report.repeat_problems(passes, meter))
    problems.append(record_signature(
        f"{args.workload}:{args.seed}:{code_hash()}", first))

    if not args.trace:
        # set-up: importing the program in a fresh interpreter, then
        # building the workload's inputs (and store_warm's cold fill)
        setup_s = statistics.median(import_seconds() for _ in range(3)) \
            + statistics.median(meter.seconds(*i) for i in setup_intervals)
        return cool_report.end_to_end(passes, setup_s, rss_mb, meter), passes

    tracer = Tracer()
    traced = one_pass(workload, state, tracer)
    for label, found in traced.checked:
        tally.record(label, found)
    if traced.signature() != first:
        problems.append(f"the traced pass differs from the untraced ones: "
                        f"{traced.signature()} != {first}")
    spans = spans_of(tracer)
    sharded = workload.shard_pass(state)
    for label, found in sharded.checked if sharded else ():
        tally.record(label, found)
    problems.append(hashseed_child(args, state,
                                   traced_signature(traced, spans)))
    path = RUN_DIR / f"trace-{args.workload}-s{args.seed}.jsonl"
    problems.append(cool_report.write_and_render(spans, path))
    problems.append(cool_report.write_and_render(
        setup_spans, path.with_suffix(".setup.jsonl")))
    print(f"trace written to {path.relative_to(ROOT)}")
    return cool_report.per_layer(spans, setup_spans, traced, passes,
                                 sharded, meter), passes


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"coolbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    RUN_DIR.mkdir(exist_ok=True)

    import cool_report
    from cool_layers import probed
    from cool_meter import SpeedMeter
    from cool_stats import Tally
    from cool_workloads import WORKLOADS
    from repro.obs import Tracer

    workload = WORKLOADS[args.workload]
    if args.determinism_child:
        if args.store_root:  # the parent's store: the parent removes it
            state = workload.attach(args.seed, Path(args.store_root))
        else:
            state, _intervals = timed_setup(workload, args.seed)
        try:
            tracer = Tracer()
            result = one_pass(workload, state, tracer)
        finally:
            if not args.store_root:
                workload.cleanup(state)
        print(json.dumps(traced_signature(result, spans_of(tracer)),
                         sort_keys=True))
        return 0

    tally = Tally()
    problems: list[str | None] = []
    with SpeedMeter() as meter:
        # a traced run traces its set-up too: store_warm writes there
        setup_tracer = Tracer() if args.trace else None
        with probed(setup_tracer):
            state, setup_intervals = timed_setup(workload, args.seed)
        try:
            metrics, passes = measure(
                args, workload, state, setup_intervals,
                spans_of(setup_tracer) if setup_tracer else [], meter,
                tally, problems)
        finally:
            workload.cleanup(state)
    problems = [p for p in problems if p]

    correct = tally.failed == 0 and not problems
    cool_report.print_human(args, metrics, tally, problems, passes, meter)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
