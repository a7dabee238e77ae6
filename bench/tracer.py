"""Per-layer tracing from outside the package.

``Tracer.install`` rebinds every ``greedylab.*`` module (and class)
attribute that is one of the traced functions to a timing wrapper, so calls
through names imported with ``from ... import`` are caught too;
``uninstall`` puts the originals back.  Span functions record one span
(name, start, end, parent, op id, self time) per call; the hottest
functions, called up to millions of times per op, only add to aggregate
counters.  Self time is a call's duration minus the durations of the traced
calls made inside it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict

SPAN, COUNT, PROBE = "span", "count", "probe"

# (module, attribute, kind).  The layers are the package modules; the leaf
# helpers in ``exact`` and ``schedule`` are not wrapped, so their cost lands
# in their callers' self time.  A PROBE only reads its arguments: its time
# stays with the caller.
TARGETS = [
    ("cli", "main", SPAN),
    ("cli", "emit_report", SPAN),
    ("acceptance", "run_all", SPAN),
    ("approx", "optimality_experiment", SPAN),
    ("approx", "build_xs", SPAN),
    ("approx", "xs_bound_checks", SPAN),
    ("approx", "quasinorm", SPAN),
    ("approx", "quasinorm_bounds", SPAN),
    ("democracy", "demfun_table", SPAN),
    ("democracy", "demfun_dp", SPAN),
    ("democracy", "_alloc_dp", PROBE),
    ("greedy", "error_sequence", SPAN),
    ("greedy", "gamma", SPAN),
    ("greedy", "sigma_power_table", SPAN),
    ("greedy", "sigma_exact", SPAN),
    ("greedy", "sigma_oracle_grid", SPAN),
    ("errorseq", "TwoPoolErrorSequence.power", COUNT),
    ("errorseq", "TwoPoolErrorSequence.pieces", SPAN),
    ("spaces", "space_norm", SPAN),
    ("vectors", "canonicalize", COUNT),
    ("vectors", "top_magnitudes", SPAN),
    ("explicit", "gamma_raw", SPAN),
    ("explicit", "demfun_bruteforce", SPAN),
    ("explicit", "norm_float", COUNT),
]

# Modules whose GreedyLabErrors are counted as <module>.raised.
MODULES = ("cli", "acceptance", "approx", "democracy", "greedy", "errorseq",
           "spaces", "vectors", "explicit")


class Stat:
    __slots__ = ("calls", "self_s", "busy_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.busy_s = 0.0


def dp_cells(blocks, max_n: int) -> int:
    """(j, m) pairs the allocation DP visits: reachable j times feasible m."""
    total, reach = 0, 0
    for _cap, size in blocks:
        limit = min(size, max_n)
        last_j = min(max_n, reach)
        # sum over j = 0..last_j of (min(limit, max_n - j) + 1)
        total += (last_j + 1) + _sum_min(limit, max_n) - _sum_min(limit, max_n - last_j - 1)
        reach += limit
    return total


def _sum_min(limit: int, x: int) -> int:
    """Sum of min(limit, t) for t = 0..x."""
    if x < 0:
        return 0
    if x <= limit:
        return x * (x + 1) // 2
    return limit * (limit + 1) // 2 + limit * (x - limit)


def tie_resolutions(available, choose: int) -> int:
    """Ways to keep ``choose`` threshold coordinates as per-block counts."""
    ways = [1] + [0] * choose
    for _block, supply in available:
        new = [0] * (choose + 1)
        for total, w in enumerate(ways):
            if w:
                for c in range(min(supply, choose - total) + 1):
                    new[total + c] += w
        ways = new
    return ways[choose]


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.spans: list = []
        self.stack: list = []  # [span index, child seconds, name] per open span
        self.op_id = -1
        self.raised: Counter = Counter()
        self.extra: Counter = Counter()  # dp_cells, cache_hits, terms, bytes
        self.ties: list = []  # (available, choose) of every tied gamma call
        self.criteria: dict[int, list[float]] = defaultdict(list)
        self._last_exc = None
        self._hooks = self._after_hooks()
        self._wrappers: dict = {}  # one wrapper per target, reused by every install
        self._saved: list = []

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        """Rebind every binding of each target in every greedylab module."""
        package = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "greedylab" or name.startswith("greedylab."))]
        error_type = sys.modules["greedylab.errors"].GreedyLabError
        for module_name, attr, kind in TARGETS:
            module = sys.modules.get(f"greedylab.{module_name}")
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                holder = getattr(module, cls_name, None)
                original = None if holder is None else vars(holder).get(meth)
                if original is not None:
                    self._saved.append((holder, meth, original))
                    setattr(holder, meth, self._wrapper(module_name, attr, kind, original, error_type))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue  # the function is gone; its metrics read 0
            wrapper = self._wrapper(module_name, attr, kind, original, error_type)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved.clear()

    def _wrapper(self, module_name, attr, kind, fn, error_type):
        name = f"{module_name}.{attr}"
        if name in self._wrappers:
            return self._wrappers[name]
        stat = self.stats[name]
        stack, spans, perf = self.stack, self.spans, time.perf_counter
        after = self._hooks.get(name)
        tracer = self

        def note_raise(exc):
            # Count an error once, in the innermost traced call it leaves.
            if exc is not tracer._last_exc:
                tracer._last_exc = exc
                tracer.raised[module_name] += 1

        if kind == PROBE:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(args, kwargs, result)
                return result
        elif kind == COUNT:
            def wrapper(*args, **kwargs):
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                except error_type as exc:
                    note_raise(exc)
                    raise
                finally:
                    dur = perf() - t0
                    stat.calls += 1
                    stat.self_s += dur
                    stat.busy_s += dur
                    if stack:
                        stack[-1][1] += dur
        else:
            def wrapper(*args, **kwargs):
                frame = [len(spans), 0.0, name]
                parent = stack[-1][0] if stack else -1
                spans.append(None)
                stack.append(frame)
                done = False
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                    done = True
                    return result
                except error_type as exc:
                    note_raise(exc)
                    raise
                finally:
                    t1 = perf()
                    stack.pop()
                    dur = t1 - t0
                    own = dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
                    spans[frame[0]] = (name, t0, t1, parent, tracer.op_id, own)
                    stat.calls += 1
                    stat.self_s += own
                    stat.busy_s += dur
                    if done and after is not None:
                        after(args, kwargs, result)

        wrapper.__wrapped__ = fn
        self._wrappers[name] = wrapper
        return wrapper

    def _after_hooks(self):
        """Work counters read from arguments and results after the timing."""
        extra, stack = self.extra, self.stack

        def alloc_dp(args, kwargs, result):
            # Only DP runs made directly by demfun_table count as its cells.
            if stack and stack[-1][2] == "democracy.demfun_table":
                extra["democracy.demfun_table.dp_cells"] += dp_cells(args[0], args[1])

        def gamma(args, kwargs, result):
            if not result.tie.empty:
                self.ties.append((result.tie.available, result.tie.choose))

        def quasinorm(args, kwargs, result):
            seq = args[1] if len(args) > 1 else kwargs["seq"]
            extra["approx.quasinorm.terms"] += seq.support_size

        def emit_report(args, kwargs, result):
            path = args[2] if len(args) > 2 else kwargs.get("path")
            if path is not None:
                extra["cli.emit_report.bytes"] += os.path.getsize(path)

        def run_all(args, kwargs, results):
            for r in results:
                self.criteria[r.number].append(r.seconds)

        return {
            "democracy._alloc_dp": alloc_dp,
            "greedy.gamma": gamma,
            "approx.quasinorm": quasinorm,
            "cli.emit_report": emit_report,
            "acceptance.run_all": run_all,
        }

    # -- results -------------------------------------------------------------

    def metrics(self, ops: int, overhead_frac: float) -> dict:
        """Every per-layer metric, per traced op."""
        per = 1.0 / max(ops, 1)
        s = self.stats
        extra = Counter(self.extra)
        extra["greedy.gamma.tie_resolutions"] = sum(tie_resolutions(a, c) for a, c in self.ties)
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for fn, stats in PER_LAYER_FUNCTIONS:
            for stat in stats:
                name = f"{fn}.{stat}"
                if stat == "calls":
                    put(name, s[fn].calls * per, "count/op")
                elif stat == "self_s":
                    put(name, s[fn].self_s * per, "s/op")
                elif stat == "busy_s":
                    put(name, s[fn].busy_s * per, "s/op")
                else:
                    put(name, extra[name] * per, "B/op" if stat == "bytes" else "count/op")
        for n in range(1, 12):
            runs = self.criteria.get(n, [])
            put(f"acceptance.criterion_{n}.s", sum(runs) / len(runs) if runs else 0.0, "s")
        for module in MODULES:
            put(f"{module}.raised", self.raised[module] * per, "count/op")
        put("trace.overhead_frac", overhead_frac, "ratio")
        return out

    def dominant(self, top: int = 3) -> list[tuple[str, float]]:
        """Traced functions with the largest total self time."""
        ranked = sorted(((n, st.self_s) for n, st in self.stats.items() if st.calls),
                        key=lambda t: -t[1])
        return ranked[:top]

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    name, t0, t1, parent, op_id, own = span
                    fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent,
                                         "op": op_id, "self_s": own}) + "\n")
            totals = {n: {"calls": st.calls, "self_s": st.self_s, "busy_s": st.busy_s}
                      for n, st in sorted(self.stats.items()) if st.calls}
            fh.write(json.dumps({"aggregate": totals}) + "\n")


# Per-layer metrics taken from the wrappers' statistics, in report order.
PER_LAYER_FUNCTIONS = [
    ("democracy.demfun_table", ("calls", "self_s", "dp_cells")),
    ("democracy.demfun_dp", ("calls", "self_s")),
    ("greedy.gamma", ("calls", "self_s", "tie_resolutions")),
    ("greedy.error_sequence", ("busy_s",)),
    ("greedy.sigma_power_table", ("calls", "self_s", "cache_hits")),
    ("vectors.canonicalize", ("calls", "self_s")),
    ("vectors.top_magnitudes", ("calls", "self_s")),
    ("spaces.space_norm", ("calls", "self_s")),
    ("errorseq.TwoPoolErrorSequence.power", ("calls", "self_s")),
    ("errorseq.TwoPoolErrorSequence.pieces", ("calls",)),
    ("approx.xs_bound_checks", ("self_s",)),
    ("approx.build_xs", ("self_s",)),
    ("approx.quasinorm", ("calls", "self_s", "terms")),
    ("approx.quasinorm_bounds", ("calls", "self_s")),
    ("greedy.sigma_oracle_grid", ("self_s",)),
    ("explicit.gamma_raw", ("self_s",)),
    ("explicit.demfun_bruteforce", ("self_s",)),
    ("explicit.norm_float", ("calls",)),
    ("cli.main", ("busy_s",)),
    ("cli.emit_report", ("self_s", "bytes")),
]
