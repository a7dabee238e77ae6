"""The four benchmark workloads: seeded inputs, CLI argv per op, output checks.

An op is one ``greedylab.cli.main(argv)`` call.  Ops come in rounds: a round
is one op per stratum of the workload's input space, so every run measures
the same mix of input sizes whatever the seed, and the seed only moves each
input inside its stratum and shuffles the order.  Every op of every round
gets inputs no other op in the run has; the runner executes each op
several times, every time with an empty ``sigma_power_table`` cache.

Checks run after the timed region.  They read the artifacts the CLI wrote
and compare them with values derived here or by an independent route of
the package; a failed check marks its op as failed.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional


@dataclass
class Op:
    argv: list
    out: Optional[str] = None  # artifact path; None when the op writes to stdout
    info: dict = field(default_factory=dict)
    times: list = field(default_factory=list)  # latency of every execution
    rc: Optional[int] = None
    stdout: str = ""
    error: Optional[str] = None  # exception or failed check
    traced: bool = False

    @property
    def ok(self) -> bool:
        return self.rc == 0 and self.error is None

    def fail(self, message: str) -> None:
        if self.error is None:
            self.error = message


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _read_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _prefix_products(a: list[int]) -> list[int]:
    out, acc = [], 1
    for x in a:
        acc *= x
        out.append(acc)
    return out


class Workload:
    name = ""
    # Rounds an untraced run makes: fixed, so that every commit reports the
    # same percentiles over the same inputs.
    ROUNDS = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def rng(self, tag) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{tag}")

    def path(self, tag: str, suffix: str) -> str:
        return os.path.join(self.workdir, f"{tag}{suffix}")

    def warmup(self) -> list[Op]:
        raise NotImplementedError

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> None:
        """Check the ops of one round (or the warm-up) and mark failures."""
        for op in ops:
            if op.rc != 0:
                op.fail(f"exit code {op.rc}")
                continue
            if op.error is None:
                try:
                    self.check_op(op)
                except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
                    op.fail(f"unreadable output: {type(exc).__name__}: {exc}")

    def check_op(self, op: Op) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class DemfunTable(Workload):
    """``demfun`` on 5-block arithmetic schedules, max_N in 600..1200."""

    name = "demfun-table"
    ROUNDS = 2
    COMBOS = [(start, step) for start in (4, 5, 6) for step in (1, 2)]
    LOW, STRATUM = 600, 100  # six strata of max_N cover 600..1200

    def _op(self, tag: str, start: int, step: int, max_n: int) -> Op:
        a = [start + j * step for j in range(6)]
        space = _write_json(self.path(tag, ".space.json"), {"a": a})
        out = self.path(tag, ".csv")
        argv = ["--out", out, "demfun", "--space", space, "--max-N", str(max_n)]
        return Op(argv, out, {"a": a, "max_n": max_n, "tag": tag})

    def warmup(self) -> list[Op]:
        return [self._op("warm", 4, 1, 300 + self.rng("warm").randint(0, 50))]

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        ops = []
        for c, (start, step) in enumerate(self.COMBOS):
            # Rotating the strata over the combos keeps each round's total
            # work the same while the combos meet different sizes per round.
            stratum = (c + r) % len(self.COMBOS)
            max_n = self.LOW + self.STRATUM * stratum + self.STRATUM // 2 + rng.randint(-10, 10)
            ops.append(self._op(f"r{r}c{c}", start, step, max_n))
        rng.shuffle(ops)
        return ops

    def check_op(self, op: Op) -> None:
        from greedylab.democracy import demfun_dp
        from greedylab.spaces import space_from_json

        a, max_n = op.info["a"], op.info["max_n"]
        caps = _prefix_products(a)[:-1]  # block i has cap n_{i+1}
        rows = _read_csv(op.out)
        if len(rows) != max_n + 1:
            return op.fail(f"{len(rows)} rows for max_N={max_n}")
        for n, row in enumerate(rows):
            if int(row["N"]) != n:
                return op.fail(f"row {n} labelled N={row['N']}")
            if int(row["hr_sq"]) != min(n, sum(caps)):
                return op.fail(f"h_r({n})^2 = {row['hr_sq']} != min(N, sum caps)")
        spec = space_from_json({"a": a})
        rng = self.rng(op.info["tag"])
        for n in sorted({max_n, *rng.sample(range(1, max_n), 4)}):
            want = demfun_dp(spec, n, method="extreme", which="hl").hl_power
            if int(rows[n]["hl_sq"]) != want:
                return op.fail(f"h_l({n})^2 = {rows[n]['hl_sq']}, extreme search says {want}")


# ---------------------------------------------------------------------------


class ErrorTables(Workload):
    """``errors`` (full sigma/gamma tables) over arithmetic_schedule(4)."""

    name = "error-tables"
    A = [4, 5, 6, 7, 8]  # arithmetic_schedule(4)
    ROUNDS = 3
    SUPPORTS = (160, 240, 320, 400)  # stratum centres inside 150..410

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.caps = _prefix_products(self.A)[:-1]
        self.sizes = _prefix_products(self.A)[1:]

    def _tied(self, rng: random.Random, target: int) -> list:
        # Up to 10 magnitude levels with 22-28 coordinates per block,
        # spread alternately over blocks 1-3 and 2-3 (block 1 holds 120):
        # at most ~700 tie resolutions per step.  The largest magnitude
        # always takes the first layout, the next the second, and so on:
        # this fixed layout keeps the tie work of a stratum nearly the same
        # from seed to seed.
        groups, room, total = [], {1: self.sizes[1], 2: self.sizes[2], 3: self.sizes[3]}, 0
        for level, mag in enumerate(sorted(rng.sample(range(1, 60), 10), reverse=True)):
            for b in ((1, 2, 3) if level % 2 == 0 else (2, 3)):
                count = min(rng.randint(22, 28), target - total, room[b])
                if count > 0:
                    groups.append([b, str(mag), str(count)])
                    room[b] -= count
                    total += count
        return groups

    def _tie_free(self, rng: random.Random, target: int) -> list:
        # 34 groups with pairwise distinct magnitudes: a tie never spans
        # two blocks, so every step has a single resolution.  Blocks 0 and
        # 1 (sizes 20 and 120) get small groups, blocks 2 and 3 the rest.
        mags = iter(rng.sample(range(1, 400), 34))
        groups = [[0, str(next(mags)), str(rng.randint(1, 4))] for _ in range(4)]
        groups += [[1, str(next(mags)), str(rng.randint(3, 9))] for _ in range(10)]
        left = target - sum(int(g[2]) for g in groups)
        for i in range(20):
            count = left // (20 - i) + (rng.randint(-2, 2) if i < 19 else 0)
            groups.append([2 + i % 2, str(next(mags)), str(count)])
            left -= count
        return groups

    def _op(self, tag: str, groups: list, kind: str) -> Op:
        space = _write_json(self.path(tag, ".space.json"), {"a": self.A})
        vector = _write_json(self.path(tag, ".vector.json"), {"groups": groups})
        out = self.path(tag, ".csv")
        argv = ["--out", out, "errors", "--space", space, "--vector", vector]
        return Op(argv, out, {"groups": groups, "kind": kind})

    def warmup(self) -> list[Op]:
        rng = self.rng("warm")
        return [self._op("warm-t", self._tied(rng, 100), "tied"),
                self._op("warm-f", self._tie_free(rng, 150), "tie-free")]

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        ops = []
        for i, centre in enumerate(self.SUPPORTS):
            target = centre + rng.randint(-10, 10)
            ops.append(self._op(f"r{r}t{i}", self._tied(rng, target), "tied"))
            ops.append(self._op(f"r{r}f{i}", self._tie_free(rng, target), "tie-free"))
        rng.shuffle(ops)
        return ops

    def norm_power(self, groups: list) -> int:
        """||x||^2 from the groups directly: top-cap squares per block."""
        total = 0
        for b in {int(g[0]) for g in groups}:
            mags = sorted(((Fraction(m), int(c)) for bb, m, c in groups if int(bb) == b),
                          reverse=True)
            left = self.caps[b]
            for m, c in mags:
                take = min(c, left)
                total += m * m * take
                left -= take
        return total

    def check_op(self, op: Op) -> None:
        rows = _read_csv(op.out)
        support = sum(int(g[2]) for g in op.info["groups"])
        if len(rows) != support + 1:
            return op.fail(f"{len(rows)} rows for support {support}")
        sig = [Fraction(r["sigma_sq"]) for r in rows]
        gam = [Fraction(r["gamma_sq"]) for r in rows]
        norm = self.norm_power(op.info["groups"])
        if not sig[0] == gam[0] == norm:
            return op.fail(f"sigma_0 {sig[0]}, gamma_0 {gam[0]} != ||x||^2 {norm}")
        if sig[-1] != 0 or gam[-1] != 0:
            return op.fail("last entry is not 0")
        for k in range(1, len(sig)):
            if sig[k] > sig[k - 1]:
                return op.fail(f"sigma increases at k={k}")
            if sig[k] > gam[k]:
                return op.fail(f"sigma_{k} > gamma_{k}")


# ---------------------------------------------------------------------------


class XsExperiment(Workload):
    """``xs-experiment`` on squares_schedule(K): exact and bounds, s=2..4."""

    name = "xs-experiment"
    ROUNDS = 1
    # A round has three draws. Every round uses each K once, each pair of
    # alphas once and each pair of qs once; the seed decides only how they
    # are combined and ordered, so every seed measures the same mix of sizes.
    KS = (5, 6, 7)
    ALPHA_PAIRS = list(itertools.combinations(("0.5", "1", "2"), 2))
    Q_PAIRS = list(itertools.combinations(("1", "2", "inf"), 2))
    # The s=5 bounds op (6-8 s) is left out: it costs as much as the other
    # 18 ops of a round together, three times over with the repeats.
    EXACT_S = (2, 3, 4)
    BOUNDS_S = (2, 3, 4)

    def _ops(self, tag: str, k: int, alphas, qs, modes) -> list[Op]:
        schedule = _write_json(self.path(tag, ".schedule.json"),
                               {"a": [(j + 2) ** 2 for j in range(k + 1)]})
        ops = []
        for mode, s_values in modes:
            for s in s_values:
                out = self.path(f"{tag}-{mode}-s{s}", ".json")
                argv = ["--out", out, "xs-experiment", "--schedule", schedule,
                        "--s", str(s), "--alpha", ",".join(alphas), "--q", ",".join(qs),
                        "--mode", mode]
                ops.append(Op(argv, out, {"mode": mode, "s": s, "draw": tag}))
        return ops

    def warmup(self) -> list[Op]:
        rng = self.rng("warm")
        return self._ops("warm", rng.choice(self.KS), rng.choice(self.ALPHA_PAIRS),
                         rng.choice(self.Q_PAIRS), [("exact", (2,)), ("bounds", (2,))])

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        draws = zip(rng.sample(self.KS, 3), rng.sample(self.ALPHA_PAIRS, 3),
                    rng.sample(self.Q_PAIRS, 3))
        ops = []
        for d, (k, alphas, qs) in enumerate(draws):
            ops += self._ops(f"r{r}d{d}", k, alphas, qs,
                             [("exact", self.EXACT_S), ("bounds", self.BOUNDS_S)])
        rng.shuffle(ops)
        return ops

    def check(self, ops: list[Op]) -> None:
        super().check(ops)
        # Cross-op checks within one draw: same schedule and (alpha, q) list.
        runs = {}
        for op in ops:
            if op.ok:
                for run in op.info["runs"]:
                    key = (op.info["draw"], op.info["mode"], run["s"], run["alpha"], run["q"])
                    runs[key] = (op, run)
        for (draw, mode, s, alpha, q), (op, run) in runs.items():
            if mode != "exact":
                continue
            bounded = runs.get((draw, "bounds", s, alpha, q))
            if bounded is not None:
                bop, brun = bounded
                for key in ("A", "G", "ratio"):
                    lo, hi = brun[f"{key}_bounds"]
                    if not lo <= run[key] <= hi:
                        msg = f"s={s} alpha={alpha} q={q}: exact {key} {run[key]} outside [{lo}, {hi}]"
                        op.fail(msg)
                        bop.fail(msg)
            nxt = runs.get((draw, "exact", s + 1, alpha, q))
            if nxt is not None and not run["ratio"] > nxt[1]["ratio"]:
                msg = f"alpha={alpha} q={q}: raw ratio does not decrease from s={s} to s={s + 1}"
                op.fail(msg)
                nxt[0].fail(msg)

    def check_op(self, op: Op) -> None:
        with open(op.out, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        op.info["runs"] = report["runs"]
        if len(report["runs"]) != 4:
            return op.fail(f"{len(report['runs'])} runs, expected 4")
        for run in report["runs"]:
            if run["s"] != op.info["s"]:
                return op.fail(f"run for s={run['s']} in an s={op.info['s']} op")
            if not run["checks"] or not all(run["checks"].values()):
                bad = [k for k, v in run["checks"].items() if not v]
                return op.fail(f"s={run['s']}: failed checks {bad}")
            if op.info["mode"] == "exact":
                if not all(isinstance(run[k], float) and math.isfinite(run[k])
                           for k in ("A", "G", "ratio")):
                    return op.fail(f"s={run['s']}: exact run without finite values")
            else:
                for key in ("A_bounds", "G_bounds", "ratio_bounds"):
                    lo, hi = run[key]
                    if not 0 < lo <= hi:
                        return op.fail(f"s={run['s']}: {key} [{lo}, {hi}] is not a bracket")


# ---------------------------------------------------------------------------


class Verify(Workload):
    """``verify``: the whole acceptance suite; its inputs are fixed by the suite.

    One op runs all 11 criteria, as a user or CI does.  One op per
    criterion would make op_p50_s and op_tail_s the latency of one or two
    short criteria, whose times move with every slow phase of the host.
    ``verify --only 1`` is the warm-up.
    """

    name = "verify"
    ROUNDS = 1
    CRITERIA = tuple(range(1, 12))

    def warmup(self) -> list[Op]:
        return [Op(["verify", "--only", "1"], None, {"criteria": (1,)})]

    def round(self, r: int) -> list[Op]:
        return [Op(["verify"], None, {"criteria": self.CRITERIA})]

    def check_op(self, op: Op) -> None:
        lines = op.stdout.splitlines()
        want = op.info["criteria"]
        if len(lines) != len(want) or not all(
                line.startswith(f"[PASS] criterion {n}:") for n, line in zip(want, lines)):
            op.fail(f"not one PASS line per criterion {want}: {op.stdout!r}")


WORKLOADS = {w.name: w for w in (DemfunTable, ErrorTables, XsExperiment, Verify)}
