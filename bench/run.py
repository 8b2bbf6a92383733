"""The secant_trees benchmark: one workload per process, exact checks, metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload certify|tabulate|objects|all \\
        --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

The program is imported from ``src/`` of the checkout; there is nothing to
build.  With ``--trace 0`` the run measures the end-to-end metrics:

* ``setup_s``     -- median over fresh interpreters of import plus input
                     generation (each timed from spawn to exit);
* ``wall_s``      -- median wall time of one pass; passes repeat until
                     ``--seconds`` have been measured, at least one (the
                     highest percentile with ten passes beyond it and the
                     pass count are printed beside it);
* ``items_per_s`` -- exact results per second of wall time, median over
                     passes (trees for certify and objects, integers for
                     tabulate);
* ``peak_rss_mb`` -- peak resident memory of the workload's processes.

The three timings are reported at a reference machine speed.  On a shared
virtual machine the speed of the interpreter drifts by tens of percent over
minutes, and that drift, not the program, dominated the spread between runs.
So a short fixed pure-Python loop, independent of secant_trees, is timed
from a background thread every REF_PERIOD seconds while the set-up runs and
the passes run.  Each set-up run and each pass is divided by the slowdown
while it ran: loop time / REF_LOOP_S, with the loop timed in thread CPU time
and averaged over the central samples taken during it.  Samples taken during
a pass tracked its time far better than samples taken just before and after
it.  The measured values and the slowdowns are printed beside the result.
Traced runs report measured times, except for the tracing overhead, whose
untraced and traced passes alternate and are each corrected by their own
slowdown.

Failed operations over attempted ones (``failed_ops``) are printed too, and
any failure makes the exit code 1.  With ``--trace 1`` the run instead times
untraced and traced passes (their ratio is the tracing overhead), then runs
the layer probes of :mod:`probes` and prints the per-layer metrics; the
spans go to ``.bench_out/``.  ``--seconds`` does not apply to a traced run.
The last line of standard output is always one JSON object; the metric names
and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

from probes import PROBES
from reference import Reference
from spans import NullTracer, Tracer
from workloads import PASSES, REFERENCE_N, WORKLOADS, Checker, make_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 11
# The reference loop and its time at the reference speed (measured on a 2-vCPU
# VM with Python 3.11.7).  Timings are reported at that speed: see the
# module docstring.
REF_LOOP = 25_000
REF_LOOP_S = 0.001
REF_PERIOD = 0.03
MIN_SAMPLES = 5
TRACED_PASSES = {"certify": 1, "tabulate": 3, "objects": 2}
LAYERS = ("trees", "distributions", "recurrence", "series", "bijections", "cli")


def load_program():
    """Import secant_trees from this checkout's ``src``, and nothing else."""
    if not (SRC / "secant_trees" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC.relative_to(ROOT)}/secant_trees")
    sys.path.insert(0, str(SRC))
    import secant_trees
    from secant_trees import cli

    if SRC not in Path(secant_trees.__file__).resolve().parents:
        sys.exit(f"bench: secant_trees was imported from outside {SRC}")
    modules = {layer: getattr(secant_trees, layer) for layer in LAYERS}
    raw = types.SimpleNamespace(**{k: getattr(secant_trees, k) for k in secant_trees.__all__})
    raw.run_checks, raw.render_matrix_text, raw.ALL_CHECKS = (
        cli.run_checks,
        cli.render_matrix_text,
        cli.ALL_CHECKS,
    )
    return modules, raw


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when its root is a git work tree; None otherwise,
    also when it merely sits inside another repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True,
        )
    except OSError:
        return None
    out = proc.stdout.split()
    if proc.returncode != 0 or len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return None
    return out[1]


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024


def tail(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it (the
    (n-10)-th smallest of n), or the maximum when n < 11."""
    n = len(values)
    ordered = sorted(values)
    if n < 11:
        return "max", ordered[-1]
    return f"p{100 * (n - 10) // n}", ordered[n - 11]


def check_counts(workload: str, env: dict, counts: list[dict], ck) -> None:
    """Work counts must repeat exactly: between the passes of this run, and
    against the last run of the same source in this checkout."""
    for i, c in enumerate(counts[1:], start=1):
        ck.op(f"work counts of pass {i} vs pass 0", [(counts[0], c)], 0)
    path = OUT / f"counts-{workload}.json"
    try:
        last = json.loads(path.read_text())
    except (OSError, ValueError):
        last = None
    if last and last.get("src_sha256") == env["src_sha256"]:
        ck.op("work counts vs the previous run", [(last["counts"], counts[0])], 0)
    tmp = path.with_suffix(".tmp")
    record = {"src_sha256": env["src_sha256"], "counts": counts[0]}
    tmp.write_text(json.dumps(record, sort_keys=True))
    os.replace(tmp, path)


def reference_loop() -> float:
    """CPU time of a fixed pure-Python integer loop in the calling thread: the
    interpreter's speed now.  Thread CPU time leaves out the time the thread
    waits for the interpreter lock while another thread holds it."""
    t0 = time.thread_time()
    x = 0
    for i in range(REF_LOOP):
        x += i
    return time.thread_time() - t0


def central_mean(values: list[float]) -> float:
    """Mean of the values between the 10th and the 90th percentile.  The loop
    times cluster around two levels; a median jumps between them when the
    share of each crosses one half, a central mean moves with the share."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut : len(ordered) - cut])


class SpeedSampler:
    """Times the reference loop every REF_PERIOD seconds from a background
    thread while the ``with`` block runs.  Each sample is kept with the
    moment it ended.  The thread holds the interpreter lock for about
    REF_LOOP_S per sample, which costs the timed work about 3%."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        loop_s = reference_loop()
        self.samples.append((time.perf_counter(), loop_s))

    def _run(self) -> None:
        while not self._stop.wait(REF_PERIOD):
            self._sample()

    def loop_s(self, window: tuple[float, float] | None = None) -> float:
        """Central mean loop time over the samples that ended in *window*, or
        over the MIN_SAMPLES nearest to it when it holds fewer."""
        if window is None:
            return central_mean([s for _, s in self.samples])
        lo, hi = window
        inside = [s for t, s in self.samples if lo <= t <= hi]
        if len(inside) < MIN_SAMPLES:
            near = sorted(self.samples, key=lambda ts: max(lo - ts[0], ts[0] - hi))
            inside = [s for _, s in near[:MIN_SAMPLES]]
        return central_mean(inside)

    def slowdown(self, window: tuple[float, float]) -> float:
        return self.loop_s(window) / REF_LOOP_S

    def __enter__(self) -> "SpeedSampler":
        for _ in range(MIN_SAMPLES):
            self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def measure_setup(workload: str, seed: int, speed: SpeedSampler):
    """Wall time of fresh interpreters that import and generate the inputs,
    and the slowdown while each ran."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-only"]
    cmd += ["--workload", workload, "--seed", str(seed)]
    times, slowdowns = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        slowdowns.append(speed.slowdown((t0, t1)))
    return times, slowdowns


def run_passes(workload, api, tr, inputs, ref, ck, speed, seconds=0.0, passes=0, first=0):
    """Timed passes: *passes* of them, or else until *seconds* are measured.

    Returns the wall time, the checked items, the work counts and the
    slowdown of each pass.  Pass run ids are numbered from *first*.
    """
    walls, items, counts, slowdowns = [], [], [], []
    while not walls or (len(walls) < passes if passes else sum(walls) < seconds):
        tr.run = f"pass.{first + len(walls)}"
        before = ck.items
        t0 = time.perf_counter()
        with tr.span(f"workload.{workload}"):
            counts.append(PASSES[workload](api, tr, inputs, ref, ck))
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        slowdowns.append(speed.slowdown((t0, t1)))
        items.append(ck.items - before)
    return walls, items, counts, slowdowns


def run_workload(args) -> int:
    modules, raw = load_program()
    ref = Reference(REFERENCE_N)
    inputs = make_inputs(args.workload, args.seed, ref)
    if args.setup_only:
        return 0

    units = declared_metrics()[args.trace]
    env = environment()
    OUT.mkdir(exist_ok=True)
    ck = Checker()
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.workload == "certify":
        print("# certify takes no input: the seed has no effect")

    metrics: dict[str, float] = {}
    if args.trace == 0:
        with SpeedSampler() as speed:
            setup, setup_slowdowns = measure_setup(args.workload, args.seed, speed)
            walls, items, counts, slowdowns = run_passes(
                args.workload, raw, NullTracer(), inputs, ref, ck, speed, args.seconds
            )
        check_counts(args.workload, env, counts, ck)
        raw_setup, raw_wall = statistics.median(setup), statistics.median(walls)
        raw_rate = statistics.median(i / w for i, w in zip(items, walls))
        ref_walls = [w / f for w, f in zip(walls, slowdowns)]
        metrics = {
            "setup_s": statistics.median(t / f for t, f in zip(setup, setup_slowdowns)),
            "wall_s": statistics.median(ref_walls),
            "items_per_s": statistics.median(i / w for i, w in zip(items, ref_walls)),
            "peak_rss_mb": peak_rss_mb(),
        }
        label, tail_s = tail(ref_walls)
        print(f"# reference loop {speed.loop_s() * 1e3:.3f} ms (central mean of "
              f"{len(speed.samples)}); slowdown in set-up {min(setup_slowdowns):.3f}x to "
              f"{max(setup_slowdowns):.3f}x, in passes {min(slowdowns):.3f}x to "
              f"{max(slowdowns):.3f}x the reference time")
        print(f"# wall_s {label} {tail_s:.4f} s over {len(walls)} passes")
        print(f"# measured: setup_s {raw_setup:.4f} s, wall_s {raw_wall:.4f} s, "
              f"items_per_s {raw_rate:.6g} 1/s")
        print(f"# work counts per pass {json.dumps(counts[0], sort_keys=True)}")
    else:
        # Untraced and traced passes alternate, and each pass is divided by
        # the slowdown measured while it ran, so that drift in machine speed
        # between them does not count as tracing overhead.
        n = TRACED_PASSES[args.workload]
        tr = Tracer()
        api = tr.traced_api(raw, modules)
        untraced, traced, counts = [], [], []
        with SpeedSampler() as speed:
            for i in range(n):
                walls, _, _, slowdowns = run_passes(
                    args.workload, raw, NullTracer(), inputs, ref, ck, speed, passes=1
                )
                untraced.append(walls[0] / slowdowns[0])
                with tr.instrument(modules):
                    walls, _, c, slowdowns = run_passes(
                        args.workload, api, tr, inputs, ref, ck, speed, passes=1, first=i
                    )
                traced.append(walls[0] / slowdowns[0])
                counts += c
        for probe in PROBES:
            metrics.update(probe(api, raw, tr, ref, ck))
        check_counts(args.workload, env, counts, ck)
        base = statistics.median(untraced)
        metrics["trace.overhead_pct"] = 100 * (statistics.median(traced) - base) / base
        print(f"# passes at reference speed: untraced {', '.join(f'{w:.4f}' for w in untraced)}"
              f" s; traced {', '.join(f'{w:.4f}' for w in traced)} s")
        self_ns = tr.self_ns_by_layer("pass.")
        by_time = sorted(self_ns.items(), key=lambda x: -x[1])
        print("# self time per pass by layer: " + ", ".join(
            f"{layer} {ns / n / 1e9:.4f} s" for layer, ns in by_time
        ))
        spans = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tr.dump(spans, {"workload": args.workload, "seed": args.seed, "env": env})
        print(f"# {len(tr.spans)} spans written to {spans.relative_to(ROOT)}")

    if set(metrics) != set(units):
        sys.exit(f"bench: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    failed_ops = ck.failed / ck.attempted
    print(f"failed_ops {ck.failed}/{ck.attempted} = {failed_ops:.6g}")
    for failure in ck.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": ck.failed == 0,
        "attempted": ck.attempted,
        "failed": ck.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "env": env, "seed": args.seed}, indent=1))
    print(json.dumps(result))
    return 0 if ck.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; a table and one combined line."""
    rows, combined, code = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
            rows.append((workload, name, m["value"], m["unit"]))
        rows.append((workload, "failed_ops", result["failed"] / result["attempted"], "ratio"))
    for row in rows:
        print("%-9s %-40s %14.6g %s" % row)
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true",
                        help="check that corrupted results are counted as failures")
    args = parser.parse_args(argv)
    if args.self_test:
        _, raw = load_program()
        from selftest import self_test

        return self_test(raw)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
