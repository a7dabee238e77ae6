"""greedylab benchmark: drives the public CLI in-process on seeded inputs.

One run:

    python3 bench/run.py --workload demfun-table --seed 1 --seconds 20 --trace 0

imports ``greedylab`` from ``src/`` of the checkout this file sits in, runs
the workload's fixed number of rounds of ops (one op = one
``greedylab.cli.main(argv)`` call) ``PASSES`` times over, checks every output
after each pass, and prints the metrics by name and unit.  Every execution
is one latency sample, and every time is scaled to nominal host speed (see
``REF_SECONDS``).  ``--seconds`` is recorded with the result but does not set
the sample count: a fixed round count keeps each reported percentile the
same on every commit.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run makes one round untraced and then the same
round traced, so the tracing overhead is measured on identical work, and
writes its spans to ``.bench-out/`` at the checkout root.

Repeats and all workloads at once (each run in its own child process, one
after another):

    python3 bench/run.py --workload all --seed 1 --seconds 20
    python3 bench/run.py --workload verify --seed 1 --seconds 20 --repeat 10

print the median and quartiles of every metric over the runs and flag each
end-to-end metric whose spread (quartile distance over median) exceeds its
bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 8
# Every op runs PASSES times; each execution is one latency sample.
PASSES = 3
# A shared host's speed swings by a third or more for a minute at a time,
# which is longer than a run.  So the runner also times a fixed reference
# computation, which does not touch greedylab, after every REF_INTERVAL
# seconds of op time and after every set-up, and divides every reported
# time by the run's slowness: the reference's median time over
# REF_SECONDS.  Times then read as on a host where the reference takes
# REF_SECONDS.  The unscaled values are in the info line.
REF_SECONDS = 0.020
REF_INTERVAL = 0.25
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many samples beyond it


def _fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def reference() -> int:
    """Fixed pure-Python work (a running-maximum table over lists of ints)."""
    n = 3000
    prev = [0] * n
    for j in range(1, 70):
        cur = [0] * n
        best = 0
        for m in range(n):
            v = prev[m] + (m * j) % 17
            if v > best:
                best = v
            cur[m] = best
        prev = cur
    return prev[-1]


def _fresh_import():
    """Import greedylab.cli from scratch, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "greedylab" or n.startswith("greedylab.")]:
        del sys.modules[name]
    return importlib.import_module("greedylab.cli")


class Runner:
    def __init__(self, workload_cls, seed: int, workdir: str):
        self.workload_cls = workload_cls
        self.seed = seed
        self.workdir = workdir
        self.setup_times: list[float] = []
        self.ref_times: list[float] = []
        self.ref_due = 0.0  # op time since the last reference sample
        self.cli = None
        self.cache = None
        self.workload = None
        self.first_round = None
        self.warmup_ops = None

    def setup(self, repeats: int) -> None:
        """Import and write the first inputs ``repeats`` times; keep the last."""
        for _ in range(repeats):
            subdir = os.path.join(self.workdir, f"setup{len(self.setup_times)}")
            os.mkdir(subdir)
            gc.collect()
            t0 = time.perf_counter()
            cli = _fresh_import()
            workload = self.workload_cls(self.seed, subdir)
            warmup = workload.warmup()
            first = workload.round(0)
            self.setup_times.append(time.perf_counter() - t0)
            self.sample_reference()
        self.cli, self.workload = cli, workload
        self.warmup_ops, self.first_round = warmup, first
        module = sys.modules["greedylab"]
        if not os.path.abspath(module.__file__).startswith(os.path.join(SRC, "")):
            raise ImportError(f"greedylab was imported from {module.__file__}, not {SRC}")
        self.cache = sys.modules["greedylab.greedy"].sigma_power_table

    def sample_reference(self) -> None:
        t0 = time.perf_counter()
        reference()
        self.ref_times.append(time.perf_counter() - t0)

    def slowness(self) -> float:
        """The host's slowness over the run so far; 1 is nominal."""
        return statistics.median(self.ref_times) / REF_SECONDS

    def run_op(self, op, op_id: int, tracer=None) -> None:
        cache_clear = getattr(self.cache, "cache_clear", None)
        if cache_clear is not None:
            cache_clear()  # every CLI invocation starts with an empty cache
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op_id = op_id
        main = self.cli.main  # looked up per op: the tracer may have rebound it
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                op.rc = main(op.argv)
            except SystemExit as exc:
                op.rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed op, not an aborted run
                op.rc = None
                op.error = f"raised {type(exc).__name__}: {exc}"
            op.times.append(time.perf_counter() - t0)
        op.stdout = out.getvalue()
        self.ref_due += op.times[-1]
        while self.ref_due >= REF_INTERVAL:
            self.sample_reference()
            self.ref_due -= REF_INTERVAL
        if op.rc not in (0, None) and err.getvalue():
            op.fail(err.getvalue().strip()[:300])
        cache_info = getattr(self.cache, "cache_info", None)
        if tracer is not None and cache_info is not None:
            tracer.extra["greedy.sigma_power_table.cache_hits"] += cache_info().hits

    def run_pass(self, ops, first_id: int, tracer=None) -> None:
        """Run every op once, then check every output."""
        if tracer is not None:
            tracer.install()
            for op in ops:
                op.traced = True
        try:
            for i, op in enumerate(ops):
                self.run_op(op, first_id + i, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.workload.check(ops)

    def measure(self, tracer=None):
        """Run the workload's ROUNDS rounds of ops PASSES times over, every
        other pass in reverse order, so the executions of one op sit far
        apart in the run; returns the ops.  A traced run makes round 0
        once untraced and then once traced on the same inputs."""
        self.run_pass(self.warmup_ops, -len(self.warmup_ops))
        ops = list(self.first_round)
        if tracer is not None:
            self.run_pass(ops, 0)
            replay = self.workload.round(0)
            self.run_pass(replay, len(ops), tracer)
            return ops + replay
        for r in range(1, self.workload.ROUNDS):
            ops += self.workload.round(r)
        for p in range(PASSES):
            self.run_pass(ops if p % 2 == 0 else ops[::-1], 0)
        return ops


def _summary(lat: list[float]) -> tuple[dict, float]:
    """ops_per_s, op_p50_s and op_tail_s of sorted latencies, and the tail's percentile."""
    n = len(lat)
    if n > 2 * TAIL_BEYOND:
        tail, pct = lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:  # too few samples for a percentile above the median: the slowest one
        tail, pct = lat[-1], 100.0
    return {"ops_per_s": n / sum(lat), "op_p50_s": statistics.median(lat), "op_tail_s": tail}, pct


def end_to_end(ops, runner) -> tuple[dict, dict]:
    """The end-to-end metrics, every time scaled to nominal host speed."""
    slowness = runner.slowness()
    raw = sorted(t for op in ops for t in op.times)
    values, pct = _summary([t / slowness for t in raw])
    values["setup_s"] = statistics.median(runner.setup_times) / slowness
    units = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s"}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "unit": "MB"}
    unscaled, _ = _summary(raw)
    unscaled["setup_s"] = statistics.median(runner.setup_times)
    return metrics, {"samples": len(raw), "tail_percentile": round(pct, 2),
                     "slowness": slowness, "reference_samples": len(runner.ref_times),
                     "unscaled": unscaled}


def run_single(args, workload_cls) -> int:
    if not os.path.isfile(os.path.join(SRC, "greedylab", "__init__.py")):
        return _fail(f"no greedylab package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import tracer as tracing

    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        runner = Runner(workload_cls, args.seed, workdir)
        try:
            runner.setup(SETUP_REPEATS - SETUP_REPEATS // 2)
        except ImportError as exc:
            return _fail(f"cannot import greedylab: {exc}")
        tracer = tracing.Tracer() if args.trace else None
        ops = runner.measure(tracer)
        all_ops = runner.warmup_ops + ops
        # The other set-ups come after the ops, so that setup_s samples the
        # machine's speed at both ends of the run, not in one short window.
        runner.setup(SETUP_REPEATS // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [op for op in all_ops if not op.ok]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "commit": _commit(),
        "affinity": sorted(os.sched_getaffinity(0)), "warmup_ops": len(runner.warmup_ops),
        "failed_ops_frac": len(failed) / len(all_ops),
    }
    untraced = [op for op in ops if not op.traced]
    if args.trace:
        traced = [op for op in ops if op.traced]
        overhead = (sum(t for op in traced for t in op.times)
                    / sum(t for op in untraced for t in op.times) - 1.0)
        metrics = tracer.metrics(len(traced), overhead)
        total = sum(t for op in traced for t in op.times)
        info["traced_ops"] = len(traced)
        info["dominant"] = [{"function": name, "self_share": round(s / total, 4)}
                            for name, s in tracer.dominant()]
        info["inclusive_share"] = {name: round(st.busy_s / total, 4)
                                   for name, st in sorted(tracer.stats.items(),
                                                          key=lambda t: -t[1].busy_s)
                                   if st.calls and name != "cli.main"}
        spans_path = os.path.join(ROOT, ".bench-out", f"spans-{args.workload}.jsonl")
        tracer.write_spans(spans_path)
        info["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        metrics, extra = end_to_end(untraced, runner)
        info.update(extra)

    print(f"workload {args.workload}  seed {args.seed}  python {info['python']}  "
          f"commit {info['commit'][:12]}  affinity {info['affinity']}")
    for name, m in metrics.items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{info['tail_percentile']} of {info['samples']} executions)"
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'failed_ops_frac':44s} {info['failed_ops_frac']:.6g}  "
          f"({len(failed)} of {len(all_ops)} ops incl. warm-up)")
    if not args.trace:
        print(f"  host slowness {info['slowness']:.3f} (median of "
              f"{info['reference_samples']} reference samples); unscaled: " + ", ".join(
                  f"{name} {value:.6g}" for name, value in info["unscaled"].items()))
    if args.trace:
        print("  dominant layers (self time share): " + ", ".join(
            f"{d['function']} {d['self_share']:.1%}" for d in info["dominant"]))
    for op in failed[:5]:
        argv = " ".join(os.path.basename(a) for a in op.argv)
        print(f"  FAILED {argv}: {op.error or f'exit code {op.rc}'}")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(all_ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# Repeats: one child process per run, one at a time.


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_repeats(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    summary, ok = {}, True
    for workload in names:
        runs = []
        for i in range(args.repeat):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return _fail(f"{workload} seed {args.seed + i} exited {proc.returncode}")
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            runs.append(result)
            if args.repeat > 1:
                print(f"  seed {args.seed + i:4d}  " + "  ".join(
                    f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
            if args.repeat == 1:
                print("\n".join(lines[:-2]))
        print(f"{workload}: {len(runs)} runs, seeds {args.seed}..{args.seed + args.repeat - 1}, "
              f"failed ops {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and len(runs) > 1:
                flag = "  OVER BOUND" if spread > bound else (
                    "  above bound/3" if spread > bound / 3 else "")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "unit": runs[0]["metrics"][name]["unit"]}
            if args.repeat > 1:
                print(f"  {name:44s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"spread {spread:.3f}" + (f" (bound {bound})" if bound else "") + flag)
    print(json.dumps({"correct": ok, "summary": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="recorded with the result; the round count is fixed per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+repeat-1, each in a child process")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if args.workload == "all" or args.repeat > 1:
        return run_repeats(args)
    return run_single(args, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
