"""Seeded task generators and output oracles for the two workloads.

A task is a short sequence of CLI invocations (argv lists) plus the
input files they read and an oracle that checks their outputs. Every
input comes from a ``random.Random`` stream named by the workload, the
seed and the cycle number, so the same seed gives the same tasks.

Each workload is a fixed *cycle* of task slots (a kind and a depth); the
seed draws the values inside each slot and the slot order. Whole cycles
are run, so every run sees the same mix of depths and kinds and only
the drawn values differ between seeds.

The oracles never call the package: they recompute what they check
with numpy, ``fractions`` and the paper's formulas.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

LAW_TOL = 1e-9        # normalization / consistency / invariance residual
FORMULA_TOL = 1e-9    # entropy values against the paper's formulas
KKT_TOL = 1e-9        # solver certificate
COMPARE_TOL = 1e-6    # solver against the explicit zero-block table
STAT_Z = 12.0         # orbit statistics: allowed standard errors
GENERIC_TOL = 0.01    # zero-block frequencies of the generic point


class OracleError(Exception):
    """An output that is wrong."""


def require(cond, message):
    if not cond:
        raise OracleError(message)


@dataclass
class Step:
    """One CLI invocation and what it returned."""

    argv: list
    rc: int = None
    stdout: str = ""
    stderr: str = ""


@dataclass
class Task:
    """CLI steps, the input files they read (name -> text) and an oracle.

    ``check(task)`` raises :class:`OracleError` when an output is wrong;
    ``facts`` holds what the generator knows about the right answer.
    """

    kind: str
    depth: int
    steps: list
    check: Callable
    inputs: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)


def _stream(workload, seed, cycle):
    return random.Random(f"{workload}:{seed}:{cycle}")


# ---------------------------------------------------------------------------
# Zero-block specs and the paper's formulas
# ---------------------------------------------------------------------------

_DENOMINATORS = (12, 16, 20, 24, 30, 36, 48, 60)


def draw_spec(rng, exact, tail, reach_zero=False, q=None):
    """Feasible a_1..a_m as non-increasing steps a_{j-1} - a_j.

    Non-increasing steps with a total of at most 1 are exactly the
    feasible prefixes (non-increasing a with nonnegative second
    differences). Exact steps are multiples of 1/q (q drawn unless
    given). With ``reach_zero`` the last step is positive, so an affine
    tail reaches 0 and zero blocks stay short.
    """
    m = rng.randint(2, 5)
    q = q or rng.choice(_DENOMINATORS)
    while True:
        raw = sorted((rng.random() for _ in range(m)), reverse=True)
        scale = rng.uniform(0.3, 0.95) / sum(raw)
        if exact:
            steps = sorted((round(r * scale * q) for r in raw), reverse=True)
            steps = [Fraction(s, q) for s in steps]
        else:
            steps = [r * scale for r in raw]
        if steps[0] > 0 and sum(steps) < 1 and (steps[-1] > 0 or not reach_zero):
            break
    a, cur = [], Fraction(1) if exact else 1.0
    for s in steps:
        cur -= s
        a.append(cur)
    return {"a": a, "tail": tail, "exact": exact}


def extend(spec, upto):
    """a_0..a_upto under the spec's tail policy (README semantics)."""
    one = Fraction(1) if spec["exact"] else 1.0
    a = [one] + list(spec["a"])
    m = len(spec["a"])
    step = a[m - 1] - a[m]
    for j in range(1, upto - m + 1):
        a.append(a[m] if spec["tail"] == "constant" else max(one - one, a[m] - j * step))
    return a[:upto + 1]


def spec_flags(spec, workdir, name, inputs):
    """Exact specs go on the command line, float specs in a JSON file."""
    if spec["exact"]:
        return ["--a", ",".join(str(x) for x in spec["a"]), "--tail", spec["tail"]]
    inputs[name] = json.dumps({"a": spec["a"], "tail": spec["tail"]})
    return ["--spec", str(Path(workdir) / name)]


def _h(x):
    x = float(x)
    return -x * math.log(x) if x > 0.0 else 0.0


def closed_form_entropy(spec):
    """-h(1 - a_1) + sum_j h(d_j); d_j vanishes once the tail is linear."""
    m = len(spec["a"])
    a = extend(spec, m + 2)
    if spec["tail"] == "affine" and a[m - 1] != a[m] and a[m] > 0:
        a = extend(spec, m + 2 + math.ceil(a[m] / (a[m - 1] - a[m])))
    return -_h(1 - a[1]) + sum(_h(a[j] - 2 * a[j + 1] + a[j + 2])
                               for j in range(len(a) - 2))


def zero_block_ladder(spec, depth):
    """h^(2)..h^(depth) of the maximal-entropy measure from the a-values:
    h^(2) in closed form plus the telescoping increments phi(n)."""
    a = extend(spec, depth + 2)
    h = (_h(a[2]) + 2 * _h(a[1] - a[2]) - _h(a[1]) - _h(1 - a[1])
         + _h(1 - 2 * a[1] + a[2]))
    out = [h]
    for n in range(1, depth - 1):
        h += (_h(a[n + 2]) - 2 * _h(a[n + 1]) + _h(a[n])
              + 2 * (_h(a[n + 1] - a[n + 2]) - _h(a[n] - a[n + 1]))
              + _h(a[n] - 2 * a[n + 1] + a[n + 2]))
        out.append(h)
    return out


# ---------------------------------------------------------------------------
# Reading outputs
# ---------------------------------------------------------------------------

def _mass(text):
    if isinstance(text, str):
        num, _, den = text.partition("/")
        return int(num) / int(den or 1)
    return float(text)


def read_table(path, depth, mode):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    require(obj.get("depth") == depth, f"table depth {obj.get('depth')} != {depth}")
    require(obj.get("mode") == mode, f"table mode {obj.get('mode')} != {mode}")
    levels = obj["levels"]
    require(len(levels) == depth + 1, "wrong number of levels")
    for n, lv in enumerate(levels):
        require(lv["n"] == n and len(lv["probs"]) == 1 << n, f"level {n} malformed")
    return obj


def check_table_laws(obj):
    """Normalization, range, consistency and invariance with numpy."""
    levels = [np.array([_mass(p) for p in lv["probs"]]) for lv in obj["levels"]]
    require(all(np.isfinite(lv).all() for lv in levels), "non-finite mass")
    require(abs(levels[0][0] - 1) <= LAW_TOL, "not normalized")
    for n, lv in enumerate(levels):
        require(lv.min() >= -LAW_TOL and lv.max() <= 1 + LAW_TOL,
                f"mass outside [0, 1] at level {n}")
        if n:
            require(np.abs(lv.reshape(-1, 2).sum(1) - levels[n - 1]).max() <= LAW_TOL,
                    f"consistency fails at level {n}")
            require(np.abs(lv.reshape(2, -1).sum(0) - levels[n - 1]).max() <= LAW_TOL,
                    f"invariance fails at level {n}")
    return levels


def ladder_from_levels(levels):
    """h^(n) = sum_w p_we log(p_w / p_we) for n = 2..depth, in nats."""
    out = []
    for n in range(2, len(levels)):
        child = levels[n]
        parent = np.repeat(levels[n - 1], 2)
        ok = (child > 0) & (parent > 0)
        out.append(float(np.sum(child[ok] * (np.log(parent[ok]) - np.log(child[ok])))))
    return out


def word_mass(levels, word):
    return float(levels[len(word)][int(word, 2) if word else 0])


def read_orbits(path, count, length):
    with open(path, encoding="ascii") as fh:
        lines = fh.read().split("\n")
    require(lines[-1] == "", "sample file does not end with a newline")
    lines = lines[:-1]
    require(len(lines) == count, f"{len(lines)} orbit lines, expected {count}")
    for line in lines:
        require(len(line) == length and set(line) <= {"0", "1"},
                "orbit line of wrong length or alphabet")
    return lines


def zero_runs(line):
    """Lengths of the maximal runs of zeros in a 0/1 string."""
    z = np.frombuffer(line.encode("ascii"), dtype=np.uint8) == ord("0")
    edges = np.diff(np.concatenate(([0], z.view(np.int8), [0])))
    return np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)


def zero_block_count(runs, k):
    """Windows of 0^k lying inside a line with the given zero runs."""
    return int(np.maximum(runs - k + 1, 0).sum())


def _float_field(text, key):
    m = re.search(rf"(?:^|\s){re.escape(key)}=(\S+)", text)
    require(m is not None, f"no {key}= in output")
    return float(m.group(1))


def summary_fields(line):
    """objective, kkt and status of an OptimizationResult summary line."""
    m = re.fullmatch(r"objective=(\S+) kkt=(\S+) status=(\w+)", line.strip())
    require(m is not None, f"malformed summary line {line!r}")
    return float(m.group(1)), float(m.group(2)), m.group(3)


def _check_rc(task, expected=0):
    for step in task.steps:
        want = expected if step is task.steps[-1] else 0
        require(step.rc == want, f"{step.argv[0]} exited {step.rc}: {step.stderr.strip()}")


# ---------------------------------------------------------------------------
# tables-solve: the zero-block table slots
# ---------------------------------------------------------------------------

# 77 slots: every depth once, exact 12 and float 13 once more, and
# shallow tables at depths 3-7 five times more (see tables_solve_cycle).
TABLES_SLOTS = ([("exact", d) for d in range(3, 15)] + [("float", d) for d in range(4, 17)]
                + [("exact", 12), ("float", 13)]
                + 5 * [(mode, d) for mode in ("exact", "float") for d in range(3, 8)])


def table_slots(seed, cycle, workdir, stream):
    rng = _stream(f"tables-solve/tables:{stream}", seed, cycle)
    tasks = []
    for mode, depth in TABLES_SLOTS:
        exact = mode == "exact"
        # Exact arithmetic cost grows with the denominators, so each depth
        # keeps one denominator and the seed moves only the numerators.
        spec = draw_spec(rng, exact, rng.choice(["constant", "affine"]) if exact else "affine",
                         q=_DENOMINATORS[depth % len(_DENOMINATORS)])
        inputs = {}
        flags = spec_flags(spec, workdir, "spec.json", inputs)
        length, count = rng.randint(32, 128), rng.randint(1, 4)
        table, orbits = str(Path(workdir) / "table.json"), str(Path(workdir) / "orbits.txt")
        steps = [Step(["build", *flags, "--depth", str(depth), "--out", table]),
                 Step(["sample", "--table", table, "--length", str(length),
                       "--count", str(count), "--seed", str(rng.randrange(1 << 31)),
                       "--out", orbits]),
                 Step(["entropy", *flags, "--depth", str(depth)])]
        tasks.append(Task(mode, depth, steps, check_tables_deep, inputs,
                          dict(spec=spec, length=length, count=count,
                               table=table, orbits=orbits)))
    return tasks


def check_tables_deep(task):
    _check_rc(task)
    f, depth = task.facts, task.depth
    spec = f["spec"]
    obj = read_table(f["table"], depth, "exact" if spec["exact"] else "float")
    a = extend(spec, depth)
    for k in range(1, depth + 1):
        got = obj["levels"][k]["probs"][0]
        if spec["exact"]:
            require(Fraction(got) == a[k], f"p_0^{k} = {got}, expected a_{k} = {a[k]}")
        else:
            require(abs(got - a[k]) <= 1e-12, f"p_0^{k} = {got!r}, expected {a[k]!r}")
    levels = check_table_laws(obj)
    for line in read_orbits(f["orbits"], f["count"], f["length"]):
        n = min(depth, len(line))
        lv = levels[n]
        require(all(lv[int(line[j:j + n], 2)] > 0 for j in range(len(line) - n + 1)),
                "sampled orbit contains a word of zero mass")
    out = task.steps[2].stdout
    require(abs(_float_field(out, "value") - closed_form_entropy(spec)) <= FORMULA_TOL,
            "closed-form entropy differs from the formula")
    ladder = [float(x) for x in re.findall(r"^h\(\d+\)=(\S+)$", out, re.M)]
    require(len(ladder) == depth - 1, "entropy ladder has the wrong length")
    require(all(y <= x + 1e-10 for x, y in zip(ladder, ladder[1:])),
            "entropy ladder increases")
    expect = ladder_from_levels(levels)
    require(max(abs(x - y) for x, y in zip(ladder, expect)) <= FORMULA_TOL,
            "entropy ladder differs from the table's conditional entropies")
    formula = zero_block_ladder(spec, depth)
    require(max(abs(x - y) for x, y in zip(ladder, formula)) <= FORMULA_TOL,
            "entropy ladder differs from the telescoping formula")
    require(_float_field(out, "telescoping_check") <= FORMULA_TOL,
            "telescoping_check above tolerance")


# ---------------------------------------------------------------------------
# orbit-stats
# ---------------------------------------------------------------------------

ORBIT_SLOTS = ([("exact", d) for d in range(3, 9)] + [("float", d) for d in range(3, 9)]
               + [("generic", 0), ("generic", 0)])
ORBIT_BITS = 240_000      # orbit bits drawn per sampling task


def orbit_stats_cycle(seed, cycle, workdir, stream="run"):
    rng = _stream(f"orbit-stats:{stream}", seed, cycle)
    slots = ORBIT_SLOTS[:]
    rng.shuffle(slots)
    tasks = []
    samples = str(Path(workdir) / "samples.txt")
    for mode, depth in slots:
        if mode == "generic":
            length = rng.randint(100_000, 400_000)
            steps = [Step(["generic", "--length", str(length), "--out", samples]),
                     Step(["freq", "--sample", samples, "--words", "0,00,000",
                           "--targets", "1/2,1/2,1/2"])]
            task = Task(mode, depth, steps, check_generic,
                        facts=dict(length=length, samples=samples))
        else:
            spec = draw_spec(rng, mode == "exact", "affine", reach_zero=True)
            inputs = {}
            flags = spec_flags(spec, workdir, "spec.json", inputs)
            count = rng.randint(10, 24)
            length = ORBIT_BITS // count
            k = min(depth, 6)
            a = extend(spec, k)
            line = rng.randrange(count)
            n = rng.randint(10, 16)
            steps = [Step(["sample", *flags, "--depth", str(depth), "--length", str(length),
                           "--count", str(count), "--seed", str(rng.randrange(1 << 31)),
                           "--out", samples]),
                     Step(["freq", "--sample", samples, "--line", str(line),
                           "--words", ",".join("0" * j for j in range(1, k + 1)),
                           "--targets", ",".join(repr(float(x)) if not spec["exact"]
                                                 else str(x) for x in a[1:])]),
                     Step(["estimate", "--samples", samples, "--n", str(n),
                           "--delta", "0.2"])]
            task = Task(mode, depth, steps, check_orbit_sample, inputs,
                        dict(length=length, count=count, k=k, line=line, n=n,
                             targets=[float(x) for x in a[1:]], samples=samples))
        tasks.append(task)
    return tasks


def _freq_rows(text, k, horizon):
    rows = text.strip().split("\n")
    require(rows[0] == "word,horizon,average,target,deviation", "bad freq header")
    require(len(rows) == k + 1, "freq printed the wrong number of rows")
    out = []
    for j, row in enumerate(rows[1:], start=1):
        word, hz, avg, target, dev = row.split(",")
        require(word == "0" * j and int(hz) == horizon, f"bad freq row {row!r}")
        out.append((float(avg), float(target), float(dev)))
    return out


def check_orbit_sample(task):
    _check_rc(task)
    f = task.facts
    L, C = f["length"], f["count"]
    lines = read_orbits(f["samples"], C, L)
    rows = _freq_rows(task.steps[1].stdout, f["k"], L)
    runs = [zero_runs(x) for x in lines]
    for k, (avg, target, dev) in enumerate(rows, start=1):
        require(avg == zero_block_count(runs[f["line"]], k) / L,
                f"freq average of 0^{k} differs from the orbit")
        require(target == f["targets"][k - 1] and dev == abs(avg - target),
                f"freq target or deviation of 0^{k} is wrong")
        # Orbits are independent draws from a stationary measure, so the
        # per-orbit frequencies estimate their own standard error.
        freqs = np.array([zero_block_count(r, k) / L for r in runs])
        expect = target * (L - k + 1) / L
        tol = STAT_Z * freqs.std(ddof=1) / math.sqrt(C) + 2.0 / L
        require(abs(freqs.mean() - expect) <= tol,
                f"0^{k} frequency {freqs.mean():.5f} is not within {tol:.2g} of {expect:.5f}")
        require(abs(avg - target) <= STAT_Z * freqs.std(ddof=1) + 2.0 / L,
                f"freq deviation of 0^{k} exceeds the statistical tolerance")
    out = task.steps[2].stdout
    n = f["n"]
    require(f"samples={C} total_bits={C * L} n={n} delta=0.2" in out, "bad estimate header")
    bits = np.frombuffer("".join(lines).encode("ascii"), dtype=np.uint8).reshape(C, L) - 48
    codes = np.zeros((C, L - n + 1), dtype=np.int64)
    for i in range(n):
        codes = (codes << 1) | bits[:, i:i + L - n + 1]
    _, counts = np.unique(codes, return_counts=True)
    wc = math.log(counts.size) / n
    cum = np.cumsum(np.sort(counts)[::-1])
    r = int(np.argmax(cum >= (0.8 - 1e-9) * cum[-1])) + 1
    katok = math.log(r) / n
    got_wc, got_katok = _float_field(out, "word_count_entropy"), _float_field(out, "katok_entropy")
    require(abs(got_wc - wc) <= 1e-12, "word_count_entropy differs from the orbit count")
    require(abs(got_katok - katok) <= 1e-12, "katok_entropy differs from the orbit count")
    require(got_katok <= got_wc <= math.log(2) + 1e-12, "estimates out of order")


def generic_line(length):
    parts, run = [], 1
    while sum(map(len, parts)) < length:
        parts += ["0" * run, "1" * run]
        run += 1
    return "".join(parts)[:length]


def check_generic(task):
    _check_rc(task)
    length = task.facts["length"]
    (line,) = read_orbits(task.facts["samples"], 1, length)
    require(line == generic_line(length), "generic point differs from 0 1 00 11 ...")
    runs = zero_runs(line)
    for k, (avg, target, dev) in enumerate(_freq_rows(task.steps[1].stdout, 3, length),
                                           start=1):
        require(avg == zero_block_count(runs, k) / length,
                f"freq average of 0^{k} differs from the point")
        require(target == 0.5 and abs(avg - 0.5) <= GENERIC_TOL,
                f"generic 0^{k} frequency {avg} is not within {GENERIC_TOL} of 1/2")


# ---------------------------------------------------------------------------
# tables-solve: the solver slots
# ---------------------------------------------------------------------------

# Newton-bound kinds (interior, interval) stop at depth 6 and use at most
# two intervals; compare tasks use exact specs. NOTES.md gives the solver
# defects behind each limit and a reproducer for each. 52 slots: the
# LP-bound kinds and infeasible sets at depths 4-8, structural and compare
# at depth 6 once more, infeasible sets once more, and interior and
# interval sets three times over.
SOLVE_SLOTS = ([(kind, d) for kind in ("structural", "compare", "infeasible")
                for d in range(4, 9)]
               + [("structural", 6), ("compare", 6)] + [("infeasible", d) for d in range(4, 9)]
               + 3 * [(kind, d) for kind in ("interior", "interval") for d in (4, 5, 5, 6, 6)])
_SHORT_WORDS = ["".join(t) for n in (1, 2, 3) for t in product("01", repeat=n)]
_FORBIDDEN = (["00"], ["11"], ["010"], ["000"], ["101"], ["0110"], ["11", "000"], ["00", "111"])


def _markov_reference(rng):
    """A full-support order-1 Markov measure with rational transitions."""
    p01, p10 = Fraction(rng.randint(15, 85), 100), Fraction(rng.randint(15, 85), 100)
    pi0 = p10 / (p01 + p10)
    P = {"00": 1 - p01, "01": p01, "10": p10, "11": 1 - p10}

    def mu(w):
        m = pi0 if w[0] == "0" else 1 - pi0
        for j in range(len(w) - 1):
            m *= P[w[j:j + 2]]
        return m
    rate = -sum(float(pi) * sum(float(P[s + t]) * math.log(float(P[s + t])) for t in "01")
                for s, pi in (("0", pi0), ("1", 1 - pi0)))
    return mu, rate


def _periodic_mixture(rng, forbidden):
    """Invariant measure on the subshift avoiding `forbidden`: a rational
    mixture of periodic-orbit measures."""
    def allowed(c):
        cc = c * 8
        return not any(f in cc for f in forbidden)
    cycles = [c for c in ("".join(t) for n in range(1, 8) for t in product("01", repeat=n))
              if allowed(c)]
    picks = rng.sample(cycles, min(3, len(cycles)))
    weights = [Fraction(rng.randint(1, 9)) for _ in picks]
    total = sum(weights)

    def mu(w):
        out = Fraction(0)
        for wt, c in zip(weights, picks):
            cc = c * (len(w) // len(c) + 2)
            hits = sum(cc[i:i + len(w)] == w for i in range(len(c)))
            out += wt / total * Fraction(hits, len(c))
        return out
    return mu


def _constraint_file(entries):
    return json.dumps([{"word": w, "lo": str(lo), "hi": str(hi)} for w, lo, hi in entries])


def solver_slots(seed, cycle, workdir, stream):
    rng = _stream(f"tables-solve/solver:{stream}", seed, cycle)
    cons, out = str(Path(workdir) / "cons.json"), str(Path(workdir) / "opt.json")
    tasks = []
    for kind, depth in SOLVE_SLOTS:
        inputs, floor, gap = {}, 0.0, None
        if kind == "compare":
            spec = draw_spec(rng, True, rng.choice(["constant", "affine"]))
            steps = [Step(["compare", *spec_flags(spec, workdir, "spec.json", inputs),
                           "--depth", str(depth)])]
            tasks.append(Task(kind, depth, steps, check_compare, inputs, dict(spec=spec)))
            continue
        if kind == "structural":
            forbidden = rng.choice(_FORBIDDEN)
            mu = _periodic_mixture(rng, forbidden)
            word = rng.choice([w for w in _SHORT_WORDS if not any(f in w for f in forbidden)])
            entries = [(f, 0, 0) for f in forbidden] + [(word, mu(word), mu(word))]
        elif kind == "interior":
            mu, floor = _markov_reference(rng)
            entries = [(w, mu(w), mu(w)) for w in rng.sample(_SHORT_WORDS, rng.randint(1, 3))]
        elif kind == "interval":
            mu, floor = _markov_reference(rng)
            entries = [(w, max(Fraction(0), mu(w) - Fraction(rng.randint(0, 50), 1000)),
                        min(Fraction(1), mu(w) + Fraction(rng.randint(0, 50), 1000)))
                       for w in rng.sample(_SHORT_WORDS, rng.randint(1, 2))]
        else:
            entries, gap = _infeasible_entries(rng)
        inputs["cons.json"] = _constraint_file(entries)
        argv = ["optimize", "--constraints", cons, "--depth", str(depth)]
        if kind != "infeasible":
            argv += ["--out", out]
        tasks.append(Task(kind, depth, [Step(argv)],
                          check_infeasible if kind == "infeasible" else check_optimal,
                          inputs, dict(entries=entries, out=out, entropy_floor=floor,
                                       gap=gap)))
    return tasks


def _infeasible_entries(rng):
    """Constraint sets that are infeasible by at least a planted margin `gap`."""
    gap = Fraction(rng.randint(1, 60), 400)
    form = rng.randrange(3)
    if form == 0:      # mu[w e] > mu[w]
        w = rng.choice(_SHORT_WORDS[:6])
        v = Fraction(rng.randint(5, 40), 100)
        ext = w + rng.choice("01")
        return [(w, v, v), (ext, v + gap, min(Fraction(1), v + gap + Fraction(1, 10)))], gap
    if form == 1:      # mu[01] != mu[10]
        v = Fraction(rng.randint(5, 30), 100)
        return [("01", v, v), ("10", v + gap, v + gap)], gap
    lo0 = Fraction(rng.randint(20, 80), 100)   # mu[0] + mu[1] > 1
    return [("0", lo0, Fraction(1)), ("1", 1 - lo0 + gap, Fraction(1))], gap


def check_optimal(task):
    _check_rc(task)
    objective, kkt, status = summary_fields(task.steps[0].stdout.strip().split("\n")[-1])
    require(status == "optimal" and kkt <= KKT_TOL, f"status {status}, kkt {kkt}")
    f = task.facts
    with open(f["out"], encoding="utf-8") as fh:
        obj = json.load(fh)
    require(obj["depth"] == task.depth and obj["mode"] == "float", "bad solver table header")
    levels = check_table_laws(obj)
    for w, lo, hi in f["entries"]:
        m = word_mass(levels, w)
        require(float(lo) - LAW_TOL <= m <= float(hi) + LAW_TOL,
                f"mu[{w}] = {m!r} outside [{lo}, {hi}]")
    h = ladder_from_levels(levels)[-1]
    require(abs(h - objective) <= FORMULA_TOL * 10, "objective differs from the table's h^(n)")
    # a feasible reference measure bounds the maximum from below
    require(objective >= f["entropy_floor"] - FORMULA_TOL,
            f"objective {objective} below a feasible measure's {f['entropy_floor']}")


def check_infeasible(task):
    _check_rc(task, expected=1)
    text = task.steps[0].stdout.strip()
    body, _, last = text.rpartition("\n")
    _, _, status = summary_fields(last)
    require(status == "infeasible", f"status {status} for an infeasible set")
    cert = json.loads(body)
    require(cert.get("separating_duals"), "no separating duals in the certificate")
    # relaxing the constraints by less than the planted margin cannot help
    gap = float(task.facts["gap"])
    require(cert["total_violation"] >= gap - 1e-7,
            f"total violation {cert['total_violation']} below the planted gap {gap}")


def check_compare(task):
    _check_rc(task)
    lines = task.steps[0].stdout.strip().split("\n")
    require(len(lines) == 4, "compare printed the wrong number of lines")
    require(_float_field(lines[0], "max_cylinder_deviation") <= COMPARE_TOL
            and _float_field(lines[0], "objective_deviation") <= COMPARE_TOL,
            f"compare deviations too large: {lines[0]}")
    solver, built = _float_field(lines[1], "solver_objective"), _float_field(lines[2], "built_objective")
    require(abs(solver - built) <= COMPARE_TOL, "solver and built objectives differ")
    require(abs(built - zero_block_ladder(task.facts["spec"], task.depth)[-1]) <= FORMULA_TOL,
            "built objective differs from the telescoping formula")
    _, kkt, status = summary_fields(lines[3])
    require(status == "optimal" and kkt <= KKT_TOL, f"status {status}, kkt {kkt}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def tables_solve_cycle(seed, cycle, workdir, stream="run"):
    """The table slots and the solver slots of one cycle, in a seeded order.

    Each kind of slot keeps its own random stream, so its draws do not
    depend on the other kind's. Of the 129 slots, nine cost over a third
    of a second: compare and structural sets at depths 7-8, exact tables
    at 13-14 and float tables at 14-16. The next eight cost about 0.2 s:
    exact 12, float 13, compare 6 and structural 6, each twice. p90, the
    13th costliest of 129, falls in the middle of those eight, and p50
    deep inside the hundred or so slots under 0.03 s. A quantile on the edge
    between two groups of different cost would jump between them with
    noise and with the drawn values.
    """
    tasks = table_slots(seed, cycle, workdir, stream) + solver_slots(seed, cycle, workdir, stream)
    _stream(f"tables-solve:{stream}", seed, cycle).shuffle(tasks)
    return tasks


WORKLOADS = {
    "tables-solve": tables_solve_cycle,
    "orbit-stats": orbit_stats_cycle,
}
