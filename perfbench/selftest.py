"""Self-test of the oracles: clean outputs pass, corrupted outputs fail.

    python3 perfbench/selftest.py

Runs a few small tasks of every workload and kind through the CLI,
checks that each passes its oracle, then corrupts one output at a time
(an exit code, a printed number, a byte of an output file) and checks
that the oracle now rejects the task. Exits 1 if any check misbehaves.
"""

from __future__ import annotations

import os
import re
import shutil
import sys
from pathlib import Path

import run


def bump_number(text, key):
    """Change one significant digit of the number after ``key=``."""
    def repl(m):
        value = m.group(2)
        i = next(j for j, ch in enumerate(value) if ch in "123456789")
        digit = "5" if value[i] != "5" else "7"
        return m.group(1) + value[:i] + digit + value[i + 1:]
    new, n = re.subn(rf"({re.escape(key)}=)(\S+)", repl, text, count=1)
    assert n == 1, f"{key}= not found"
    return new


def flip_byte(path, pattern):
    """Replace the first match of ``pattern`` in a file by its digit flip."""
    text = Path(path).read_text(encoding="utf-8")
    m = re.search(pattern, text)
    assert m, f"{pattern!r} not in {path}"
    i = m.start(1)
    new = {"0": "1", "1": "0"}.get(text[i], "9" if text[i] != "9" else "8")
    Path(path).write_text(text[:i] + new + text[i + 1:], encoding="utf-8")


def swap_digits(path):
    text = Path(path).read_text(encoding="ascii")
    Path(path).write_text(text.translate(str.maketrans("01", "10")), encoding="ascii")


def set_stdout(step_index, key):
    def corrupt(task):
        step = task.steps[step_index]
        step.stdout = bump_number(step.stdout, key)
    return corrupt


def set_rc(task):
    task.steps[-1].rc = 2 if task.steps[-1].rc != 2 else 0


def freq_average(task):
    step = task.steps[1]
    rows = step.stdout.split("\n")
    word, hz, avg, target, dev = rows[1].split(",")
    rows[1] = ",".join([word, hz, repr(float(avg) + 1.0 / int(hz)), target, dev])
    step.stdout = "\n".join(rows)


# kind -> [(description, corruption)]
CORRUPTIONS = {
    "exact": [("table mass", lambda t: flip_byte(t.facts["table"], r'"probs": \[\s*"(\d)')),
              ("orbit cut short", lambda t: Path(t.facts["orbits"]).write_text(
                  Path(t.facts["orbits"]).read_text()[1:])),
              ("entropy value", set_stdout(2, "value")),
              ("ladder entry", set_stdout(2, "h(3)")),
              ("exit code", set_rc)],
    "float": [("table mass", lambda t: flip_byte(t.facts["table"], r"\n\s+0\.(\d)")),
              ("telescoping check", lambda t: setattr(
                  t.steps[2], "stdout",
                  re.sub(r"telescoping_check=\S+", "telescoping_check=1e-3", t.steps[2].stdout)))],
    "orbit": [("freq average", freq_average),
              ("orbit digits swapped", lambda t: swap_digits(t.facts["samples"])),
              ("katok estimate", set_stdout(2, "katok_entropy")),
              ("word count estimate", set_stdout(2, "word_count_entropy"))],
    "generic": [("generic bit", lambda t: flip_byte(t.facts["samples"], r"^0(1)")),
                ("exit code", set_rc)],
    "structural": [("objective", lambda t: setattr(t.steps[0], "stdout", re.sub(
                       r"objective=(\S+)", "objective=0.1", t.steps[0].stdout))),
                   ("table mass", lambda t: flip_byte(t.facts["out"], r"\n\s+0\.(\d)"))],
    "interior": [("kkt residual", lambda t: setattr(t.steps[0], "stdout", re.sub(
                     r"kkt=\S+", "kkt=1e-05", t.steps[0].stdout)))],
    "interval": [("status", lambda t: setattr(t.steps[0], "stdout", t.steps[0].stdout.replace(
                     "status=optimal", "status=max_iter")))],
    "compare": [("deviation", lambda t: setattr(t.steps[0], "stdout", re.sub(
                    r"max_cylinder_deviation=\S+", "max_cylinder_deviation=0.002",
                    t.steps[0].stdout))),
                ("built objective", set_stdout(0, "built_objective"))],
    "infeasible": [("exit code", set_rc),
                   ("certificate", lambda t: setattr(t.steps[0], "stdout", re.sub(
                       r'"total_violation": \S+', '"total_violation": 0.0',
                       t.steps[0].stdout)))],
}


def main():
    os.environ.update(run.BLAS_ENV)
    _, cli = run.import_checkout(run.SRC)
    import tasks
    workdir = run.WORK_ROOT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    problems, checked = [], 0
    try:
        for name, generate in tasks.WORKLOADS.items():
            seen = set()
            for task in generate(0, 0, workdir, "selftest"):
                group = "orbit" if task.kind in ("exact", "float") and name == "orbit-stats" \
                    else task.kind
                if task.depth > 6 or group in seen:
                    continue
                seen.add(group)
                for label, corrupt in [("clean", None)] + CORRUPTIONS[group]:
                    runner = run.Runner(cli, workdir)
                    runner.run(task)
                    if corrupt is None:
                        if runner.failed:
                            problems.append(f"{name}/{group}: clean output rejected: "
                                            f"{runner.errors}")
                        continue
                    corrupt(task)
                    try:
                        task.check(task)
                    except Exception:
                        checked += 1
                    else:
                        problems.append(f"{name}/{group}: corrupted {label} accepted")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print(f"{checked} corruptions rejected, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
