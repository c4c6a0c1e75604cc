"""The benchmark's four seeded workloads: task lists, task bodies and oracles.

Every workload turns ``--seed`` into a task list during set-up and hands the
library only the generated inputs.  A task returns an ``Outcome``: the
answers it computed, each beside the value an independent oracle expects.
The library is always reached through module attributes looked up at call
time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import csv
import itertools
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

import l2growth as L
from l2growth import cli, document, verify

ROUNDS = 128  # task-list length in rounds; far more than a run gets through
GOLDEN = (math.sqrt(5) - 1) / 2  # step of a low-discrepancy sequence


@dataclass
class Check:
    name: str
    got: object
    want: object
    ok: bool


@dataclass
class Outcome:
    checks: List[Check] = field(default_factory=list)

    def eq(self, name: str, got, want) -> None:
        self.checks.append(Check(name, got, want, got == want))

    def within(self, name: str, got, lo: float, hi: float) -> None:
        ok = got is not None and lo <= got <= hi
        self.checks.append(Check(name, got, f"[{lo}, {hi}]", ok))

    def holds(self, name: str, got, want: str, ok: bool) -> None:
        self.checks.append(Check(name, got, want, bool(ok)))

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(c.ok for c in self.checks)


@dataclass
class Task:
    key: Tuple            # (complex, subgroup) identity, for repeat accounting
    params: Dict


class Workload:
    name = ""
    round_size = 1  # tasks per round, each round the same mix of sizes
    # how task time follows the reference computation's time when the host's
    # speed drifts: the power of the reference ratio the times are scaled by
    ref_exponent = 1.0

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.tasks: List[Task] = self.make_tasks()

    def make_tasks(self) -> List[Task]:
        raise NotImplementedError

    def run(self, task: Task) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up created (temporary files)."""


def _log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _divisors(n: int) -> List[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


# ---------------------------------------------------------------------------
# abelian_large
# ---------------------------------------------------------------------------

class AbelianLarge(Workload):
    """Torus and stripe covers over random full-rank 2x2 lattices.

    Every round is the same grid: the log-index range in ``STRATA`` equal
    slices, once on either complex, each slice with a fixed index (its
    middle), a fixed target elongation (the share of log(index) in the first
    diagonal entry, spread over the slices by a low-discrepancy sequence),
    and diagonal or not.  Elongation sets how large the kernels are, so a
    task's cost follows its grid point; with every round alike, the median
    and the 90th percentile do not move with the seed or with how many
    rounds a run gets through.  The seed picks each lattice on its grid
    point (a divisor split near the target and an off-diagonal entry) and
    the order of each round.  Lattices are in Hermite normal form
    ``[[a, b], [0, d]]`` (columns generate), which names each subgroup once,
    so no pair repeats; once a grid point's lattices seem used up, its
    index moves up by one.
    """

    name = "abelian_large"
    INDEX = (250, 1000)
    STRATA = 16
    ROUNDS = 16  # a run gets through 4-7; later rounds would stray from the grid
    COMPLEXES = ("torus2", "stripe_t2_q3")
    round_size = STRATA * len(COMPLEXES)

    def make_tasks(self) -> List[Task]:
        self.complexes = {
            "torus2": document.parse_complex(self.root / "complexes" / "torus2.json"),
            "stripe_t2_q3": document.parse_complex(self.root / "complexes" / "stripe_t2_q3.json"),
        }
        stripe = self.complexes["stripe_t2_q3"]
        loop = stripe.boundaries[4].entries[0][0]
        gamma = next(g for g, c in loop.terms.items() if c == 1)
        self.spec = L.StripeSpec(base=L.torus_complex(2), gamma=gamma, dim=3)
        rng, lo, hi = self.rng, math.log(self.INDEX[0]), math.log(self.INDEX[1])
        seen = set()
        tasks = []
        for _ in range(self.ROUNDS):
            for slot in rng.permutation(self.round_size):
                stratum, c = divmod(int(slot), len(self.COMPLEXES))
                name = self.COMPLEXES[c]
                diagonal = (stratum // 2 + c) % 2 == 0
                u = (stratum + 0.5) / self.STRATA
                target = int(round(math.exp(lo + u * (hi - lo))))
                shape = (0.5 + stratum * GOLDEN) % 1.0
                for n in itertools.count(target):
                    divisors = _divisors(n)
                    near = [a for a in divisors if abs(math.log(a) / math.log(n) - shape) <= 0.15]
                    for a in rng.permutation(near or divisors):
                        a = int(a)
                        d = n // a
                        b = 0 if diagonal or d == 1 else int(rng.integers(1, d))
                        if (name, a, b, d) not in seen:
                            break
                    else:
                        continue
                    break
                seen.add((name, a, b, d))
                tasks.append(Task(key=(name, f"{a} {b}; 0 {d}"),
                                  params={"complex": name, "lattice": [[a, b], [0, d]]}))
        return tasks

    def run(self, task: Task) -> Outcome:
        name = task.params["complex"]
        cx = self.complexes[name]
        sub = L.LatticeSubgroup(task.params["lattice"])
        quot = L.quotient(cx.group, sub)
        out = Outcome()
        out.eq("index", quot.order, sub.index)
        (a, b), (_, d) = task.params["lattice"]
        short = L.short_length(cx.group, sub)
        # both basis columns lie in the subgroup, so neither is shorter
        out.holds("short", short, f"<= {min(a, b + d)}", 1 <= short <= min(a, b + d))
        cover = L.CoverInstance(cx, quot)
        betti = tuple(cover.betti(q) for q in range(cx.top_dim + 1))
        if name == "torus2":
            want = (1, 2, 1)
            char_dim = 1
        else:
            # b_3 is the closed form index / order(gamma); H_4 = ker(gamma - 1)
            # is one invariant chain per <gamma>-orbit, the same count
            pred = L.stripe_prediction(self.spec, quot)
            want = (1, 2, 1, pred, pred)
            char_dim = 3
        out.eq("betti", betti, want)
        b_char, _report = L.betti_by_characters(cx, quot, char_dim, cross_check=False)
        out.eq(f"characters_b{char_dim}", b_char, betti[char_dim])
        return out


# ---------------------------------------------------------------------------
# congruence
# ---------------------------------------------------------------------------

def sl2_order(m: int) -> int:
    """|SL(2, Z/m)| = m^3 prod_{p | m} (1 - p^-2)."""
    order = m ** 3
    for p in range(2, m + 1):
        if m % p == 0 and all(p % r for r in range(2, math.isqrt(p) + 1)):
            order = order * (p * p - 1) // (p * p)
    return order


class Congruence(Workload):
    """Free matrix groups <[[1,k],[0,1]], [[1,0],[k,1]]> mod odd levels m.

    For m coprime to k the image is all of SL(2, Z/m).  A round holds
    ``QUOTA[k, m]`` tasks of each level on either complex, roughly in
    proportion to order^(-1/2), so every round has the same size mix; the
    seed orders the tasks of each round.  The quotas put the median task
    among the mod 5 tasks on the presentation complex and the 90th
    percentile among the mod 11 and 13 tasks, inside runs of tasks of about
    one size, not on a step between sizes; a round is 50 tasks, so two
    rounds give the 90th percentile its ten samples above.
    Each task builds its own group: the group caches the word lengths its
    breadth-first search has found, and a group shared across tasks would
    make a task's cost depend on which levels ran before it.
    """

    name = "congruence"
    QUOTA = {(2, 3): 7, (2, 5): 5, (2, 7): 2, (2, 9): 2, (2, 11): 1, (2, 13): 1,
             (3, 5): 3, (3, 7): 2, (3, 11): 1, (3, 13): 1}
    round_size = 2 * sum(QUOTA.values())

    def _complexes(self, k: int):
        group = L.IntegralMatrixGroup(2, [[[1, k], [0, 1]], [[1, 0], [k, 1]]])
        g1, g2 = group.generators
        e = group.identity
        el = lambda terms: L.GroupRingElement(group, terms)  # noqa: E731
        presentation = L.EquivariantChainComplex(group, [1, 2], {1: L.GroupRingMatrix(
            group, [[el({g1: 1, e: -1}), el({g2: 1, e: -1})]], shape=(1, 2))})
        gap = L.EquivariantChainComplex(group, [1, 1], {1: L.GroupRingMatrix(
            group, [[el({e: 2, g1: -1})]], shape=(1, 1))})
        return group, {"presentation": presentation, "gap": gap}

    def make_tasks(self) -> List[Task]:
        slots = [(k, m, name) for (k, m), n in self.QUOTA.items()
                 for _ in range(n) for name in ("presentation", "gap")]
        tasks = []
        for _ in range(ROUNDS):
            for pos in self.rng.permutation(len(slots)):
                k, m, name = slots[pos]
                tasks.append(Task(key=(f"{name}_k{k}", f"mod {m}"),
                                  params={"k": k, "m": m, "complex": name}))
        return tasks

    def run(self, task: Task) -> Outcome:
        k, m, name = task.params["k"], task.params["m"], task.params["complex"]
        group, complexes = self._complexes(k)
        cx = complexes[name]
        sub = L.CongruenceSubgroup(m)
        quot = L.quotient(group, sub)
        out = Outcome()
        out.eq("order", quot.order, sl2_order(m))
        short = L.short_length(group, sub)
        diameter = L.quotient_diameter(quot)
        # the Cayley graph's girth (short, the group being free) is at most 2D+1
        out.holds("short", short, f"<= 2*{diameter}+1", short <= 2 * diameter + 1)
        cover = L.CoverInstance(cx, quot)
        betti = tuple(cover.betti(q) for q in range(2))
        if name == "presentation":
            out.eq("betti", betti, (1, quot.order + 1))
        else:
            out.eq("betti", betti, (0, 0))
        for q in range(2):
            if cx.cells[q] * quot.order > cover.caps.eig:
                continue
            if name == "presentation":
                out.eq(f"eigs_at_0_q{q}", cover.count_eigs_below(q, 0.0), betti[q])
            else:
                # the symbol 5 - 2(g + g^-1) is >= 1 on every unitary representation
                out.eq(f"eigs_below_1_q{q}", cover.count_eigs_below(q, 1 - 2e-9), 0)
        return out


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

class Suites(Workload):
    """Small batches of cross-check trials, seeded per task from the workload seed.

    A task is ``STRIPE_TRIALS`` stripe trials and
    ``verify.suite_sandwich(trials=2)`` on covers of index <= ``MAX_INDEX``,
    and ``verify.suite_traces(trials=1)``, which draws its own covers (index
    <= 60 over Z, <= 180 over Z^2) and adds its fixed condition-violating
    case.  A trace trial costs about as much as a stripe or sandwich trial on
    average but has the heaviest tail (about one in 5000 takes over a
    second), so one per task keeps rare trials from setting a run's
    throughput, and most of the time goes to certified ranks.
    Larger stripe and sandwich covers make the run length hang on rare
    kernels whose certification falls back to exact Fraction elimination:
    at the stripe suite's own bound (300) about one trial in 500 runs for
    minutes (``suite_stripes(trials=1, seed=50299)``: 188 s on a 2-core x86
    machine), at 100 about one task in 1000 takes 5-45 s.
    ``verify.suite_stripes`` has no index parameter, so its trial is rebuilt
    here with the same draws (a torus or one-boundary base, a glued stripe),
    the closed form against the chain model, the bound, and the base
    dimensions ranked again on the base cover.
    """

    name = "suites"
    MAX_INDEX = 50
    STRIPE_TRIALS = 2
    SUITES = (("sandwich", 2), ("traces", 1))

    def make_tasks(self) -> List[Task]:
        seeds = np.random.SeedSequence(self.seed).generate_state(ROUNDS * 32)
        return [Task(key=("random", int(s)), params={"seed": int(s)}) for s in seeds]

    def run(self, task: Task) -> Outcome:
        seed = task.params["seed"]
        out = Outcome()
        rng = np.random.default_rng(seed)
        for _ in range(self.STRIPE_TRIALS):
            self.stripe_trial(out, rng)
        for offset, (suite, trials) in enumerate(self.SUITES, 1):
            kwargs = {"max_index": self.MAX_INDEX} if suite == "sandwich" else {}
            result = verify.SUITES[suite](trials=trials, seed=seed + offset, **kwargs)
            out.eq(suite, f"{result.passed}/{result.total}",
                   f"{result.total}/{result.total}")
        return out

    def stripe_trial(self, out: Outcome, rng) -> None:
        # the draws of verify.suite_stripes, retried until gamma is nonzero
        gamma = (0,)
        while not any(gamma):
            n = int(rng.integers(1, 3))
            group = L.FreeAbelian(n)
            if rng.random() < 0.3 and n == 2:
                base = L.torus_complex(2)
            else:
                a0, a1 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
                d1 = L.GroupRingMatrix(group, [[verify._random_entry(rng, group)
                                                for _ in range(a1)] for _ in range(a0)],
                                       shape=(a0, a1))
                base = L.EquivariantChainComplex(group, [a0, a1], {1: d1})
            gamma = verify._random_exponent(rng, n, max_norm=3)
        dim = max(2, base.top_dim + 1) + int(rng.integers(0, 2))
        spec = L.StripeSpec(base=base, gamma=gamma, dim=dim)
        quot = verify.random_quotient(rng, group, max_index=self.MAX_INDEX)
        cover = L.CoverInstance(L.glue_stripe(spec), quot)
        out.eq("stripe_b", cover.betti(dim), L.stripe_prediction(spec, quot))
        report = L.stripe_bound_check(spec, quot)
        out.holds("stripe_bound", f"{report.prediction}<={report.bound:.4g}", "holds",
                  report.holds)
        base_cover = L.CoverInstance(base, quot)
        low = range(base.top_dim)
        out.eq("stripe_low_dims", [cover.betti(j) for j in low],
               [base_cover.betti(j) for j in low])


# ---------------------------------------------------------------------------
# bounds_sweep
# ---------------------------------------------------------------------------

class BoundsSweep(Workload):
    """In-process CLI calls: bound families per regime and density estimates.

    A round holds one task of each kind in a seeded order.  Output files go
    to a scratch directory inside the checkout and are parsed back.
    Most of the time goes to density quadrature over large numpy float
    arrays, which slows about half as much as the reference computation when
    the host is busy (log-log slope 0.4-0.6 over 14 runs of 22 s on a shared
    2-vCPU x86-64 host, against about 1 for the other workloads), so its
    times are scaled by the square root of the reference ratio.
    """

    name = "bounds_sweep"
    KINDS = ("gap", "ns", "sublog", "raw", "density_torus", "density_circle",
             "density_quotients")
    round_size = len(KINDS)
    ref_exponent = 0.5
    # closed forms: the gap complex is acyclic, circle covers have b_1 = 1,
    # torus covers b_1 = 2; short is the order for cyclic covers and
    # min(m, n) for diagonal ones
    REGIMES = {
        "gap": ("gap.json", ["--regime", "gap", "--lambda0", "1"], 0),
        "ns": ("circle.json", ["--regime", "ns", "--beta", "0.5", "--c-density", "0.5"], 1),
        "sublog": ("circle.json", ["--regime", "sublog"], 1),
        "raw": ("torus2.json", ["--regime", "raw", "--z", "0.25"], 2),
    }
    # acceptance criterion 07 tolerances on the decay-rate estimate; the
    # torus fit needs about 10^6 samples to resolve F two decades below 0.01
    ALPHA = {"torus2.json": (1.6, 2.4), "circle.json": (0.8, 1.2)}
    SAMPLES = {"torus2.json": 1_200_000, "circle.json": 200_000}

    def make_tasks(self) -> List[Task]:
        (self.root / ".bench_out").mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.root / ".bench_out"))
        # every complex document is parsed once here; the CLI re-parses per call
        for name in ("gap.json", "circle.json", "torus2.json"):
            document.parse_complex(self.root / "complexes" / name)
        rng = self.rng
        tasks = []
        for _ in range(ROUNDS):
            for kind in rng.permutation(self.KINDS):
                tasks.append(self._task(str(kind), rng))
        return tasks

    def _task(self, kind: str, rng) -> Task:
        seed = int(rng.integers(0, 2 ** 31))
        if kind in ("gap", "ns", "sublog"):
            lo = 8 if kind == "ns" else 5
            orders = sorted({int(_log_uniform(rng, lo, 800)) for _ in range(4)})
            family = [([[i]], i, i) for i in orders]
        elif kind == "raw":
            pairs = sorted({(int(rng.integers(2, 25)), int(rng.integers(2, 25)))
                            for _ in range(3)})
            family = [([[m, 0], [0, n]], m * n, min(m, n)) for m, n in pairs]
        else:
            family = None
        if family is not None:
            doc, extra, betti = self.REGIMES[kind]
            specs = "|".join("; ".join(" ".join(map(str, row)) for row in mat)
                             for mat, _, _ in family)
            argv = ["bounds", doc, "--dim", "1", *extra, "--family", specs,
                    "--seed", str(seed)]
            expect = {"rows": [(idx, short) for _, idx, short in family], "betti": betti}
            return Task(key=(doc, specs), params={"kind": kind, "argv": argv, "expect": expect})
        if kind == "density_torus":
            doc = "torus2.json"
            argv = ["density", doc, "--dim", "0", "--samples", str(self.SAMPLES[doc]), "--ns"]
        elif kind == "density_circle":
            doc = "circle.json"
            argv = ["density", doc, "--dim", "0", "--samples", str(self.SAMPLES[doc]), "--ns"]
        else:
            doc = "circle.json"
            orders = sorted({int(_log_uniform(rng, 20, 1000)) for _ in range(4)})
            argv = ["density", doc, "--dim", "1", "--quotients", ",".join(map(str, orders))]
        argv += ["--seed", str(seed)] if kind != "density_quotients" else []
        return Task(key=(doc, " ".join(argv[2:])), params={"kind": kind, "argv": argv})

    def run(self, task: Task) -> Outcome:
        argv = list(task.params["argv"])
        argv[1] = str(self.root / "complexes" / argv[1])
        target = self.scratch / "out.csv"
        if target.exists():
            target.unlink()
        code = cli.main(argv + ["--out", str(target)])
        out = Outcome()
        out.eq("exit_code", code, 0)
        if code != 0:
            return out
        with open(target, newline="") as fh:
            rows = list(csv.reader(fh))
        if task.params["kind"] in self.REGIMES:
            self._check_family(out, rows, task.params["expect"])
        else:
            self._check_density(out, rows, task.params["argv"])
        return out

    @staticmethod
    def _check_family(out: Outcome, rows, expect) -> None:
        out.eq("header", rows[0], ["index", "short", "betti", "bound"])
        body = [(int(i), int(s), int(b), float(bd)) for i, s, b, bd in rows[1:]]
        out.eq("index_short", [(i, s) for i, s, _, _ in body], expect["rows"])
        out.eq("betti", [b for _, _, b, _ in body], [expect["betti"]] * len(expect["rows"]))
        out.holds("betti<=bound", [f"{b}<={bd:.6g}" for _, _, b, bd in body], "all",
                  all(b <= bd for _, _, b, bd in body))

    def _check_density(self, out: Outcome, rows, argv) -> None:
        out.eq("header", rows[0], ["lambda", "F"])
        grid = [r for r in rows[1:] if r[0] != "alpha_hat"]
        f = np.array([float(v) for _, v in grid])
        out.holds("F_monotone", f"{f.min():.4g}..{f.max():.4g}", "nondecreasing",
                  bool(np.all(np.diff(f) >= 0)))
        out.holds("F_range", f"F(K)={f[-1]:.6g}", "0 <= F <= 1, F(K) = 1",
                  f.min() >= 0 and f[-1] == 1.0)
        if "--ns" in argv:
            alpha = [r[1] for r in rows[1:] if r[0] == "alpha_hat"]
            value = float(alpha[0]) if alpha and alpha[0] != "gap" else None
            out.within("alpha_hat", value, *self.ALPHA[argv[1]])

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


WORKLOADS: Dict[str, Callable[[Path, int], Workload]] = {
    w.name: w for w in (AbelianLarge, Congruence, Suites, BoundsSweep)
}
