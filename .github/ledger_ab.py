#!/usr/bin/env python3
"""A/B perf gate: runs the ledger benchmark on two checkouts and compares them.

    python3 .github/ledger_ab.py BASE HEAD

BASE and HEAD are checkouts of the repository that hold the same ledger/ and
BENCHMARK.json (copy HEAD's over BASE first), so both sides run the same
benchmark against their own sources. Every workload in BENCHMARK.json runs at
its run_seconds once per seed in SEEDS on each side, the two sides back to
back, and each workload swaps which side goes first from seed to seed, so a
slow spell of the host falls on both. Each run builds its side on first use (ledger/run.py), outside the
timed part.

For each workload and end-to-end metric the medians over the seeds are
compared, and the "won" column counts the seeds on which HEAD did better
than BASE, over the seeds both sides ran (a gain claim's pairs won read off
it). When HEAD is worse than BASE by more than the metric's bound, the
verdict is FAIL if BASE's own quartile spread (interquartile distance over
the median) is within the bound, and "unresolved" if it is wider: the host
then moved BASE by as much as the bound, and the pair cannot tell. Only
FAIL, or a HEAD run that exits non-zero or prints no result, fails the gate.
Runs whose result reads "correct": false are listed for either side; their
failures reach the comparison through success_frac. Every serve run's tally
line (its requests by outcome: ok, error, safe-default, wrong, unanswered)
is printed under its metrics on both sides, correct or not.
"""

import json
import os
import statistics
import subprocess
import sys

SEEDS = (1, 2, 3, 4, 5)


# ledger/run.py builds into $CARGO_TARGET_DIR when it is set; unset, each
# side builds in its own checkout and runs its own binary.
ENV = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}


def run(side, command, workload, seed, seconds):
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=side, env=ENV, capture_output=True,
                          text=True)
    result = None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    notes = [line for line in proc.stderr.splitlines()
             if line.startswith((workload + ":", "ledger"))]
    return result, proc.returncode, notes


def main(argv):
    if len(argv) != 2:
        print("usage: python3 .github/ledger_ab.py BASE HEAD", file=sys.stderr)
        return 2
    sides = {"base": os.path.abspath(argv[0]), "head": os.path.abspath(argv[1])}
    with open(os.path.join(sides["head"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    values = {}  # (side, workload, metric) -> {seed: value}
    incorrect, broken = [], []
    for i, seed in enumerate(SEEDS):
        for j, workload in enumerate(workloads):
            # Each workload swaps which side goes first from seed to seed,
            # however many workloads there are.
            order = ("base", "head") if (i + j) % 2 == 0 else ("head", "base")
            for side in order:
                result, code, notes = run(sides[side], bench["command"],
                                          workload, seed, bench["run_seconds"])
                tag = f"{side} {workload} seed {seed}"
                if result is None:
                    broken.append((side, tag, code, notes))
                    print(f"{tag}: exit {code}, no result", flush=True)
                    continue
                if not result["correct"]:
                    incorrect.append((tag, notes))
                for name, metric in result["metrics"].items():
                    values.setdefault((side, workload, name), {})[seed] = (
                        metric["value"])
                print(f"{tag}: " + ", ".join(
                    f"{name} {m['value']:.4g}"
                    for name, m in result["metrics"].items()), flush=True)
                for note in notes:
                    if " requests: " in note:  # the serve tally line
                        print(f"  {note}", flush=True)

    failed = any(side == "head" for side, *_ in broken)
    print(f"\n{'workload':<13} {'metric':<17} {'base':>10} {'head':>10} "
          f"{'change':>7} {'spread':>7} {'bound':>5} {'won':>5}  verdict")
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            base = values.get(("base", workload, name), {})
            head = values.get(("head", workload, name), {})
            if len(base) < 2 or not head:
                print(f"{workload:<13} {name:<17} no data")
                continue
            b = statistics.median(base.values())
            h = statistics.median(head.values())
            q1, _, q3 = statistics.quantiles(base.values(), n=4)
            spread = (q3 - q1) / b
            change = (h - b) / b
            sign = -1 if metric["better"] == "lower" else 1
            worse = -sign * change
            pairs = [s for s in SEEDS if s in base and s in head]
            wins = sum(sign * (head[s] - base[s]) > 0 for s in pairs)
            won = f"{wins}/{len(pairs)}"
            verdict = "ok"
            if worse > bound:
                verdict = "FAIL" if spread <= bound else "unresolved"
                failed = failed or verdict == "FAIL"
            print(f"{workload:<13} {name:<17} {b:>10.4g} {h:>10.4g} "
                  f"{change:>+7.1%} {spread:>7.1%} {bound:>5.0%} {won:>5}  "
                  f"{verdict}")
    for tag, notes in incorrect:
        print(f"correct: false on {tag}")
        for note in notes:
            print(f"  {note}")
    for side, tag, code, notes in broken:
        print(f"no result from {tag} (exit {code})")
        for note in notes:
            print(f"  {note}")
    print(f"ledger A/B: {'FAIL' if failed else 'pass'} "
          f"({len(SEEDS)} seeds, {bench['run_seconds']} s per run)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
