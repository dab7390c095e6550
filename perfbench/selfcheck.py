"""Checks of the benchmark itself, and the recorder of its expected answers.

    python3 perfbench/selfcheck.py
    python3 perfbench/selfcheck.py --record

Without --record, from the root of a source checkout:

1. every answer in expected.json is confirmed by a second route that does
   not go through the command that produced it (standard degree lists,
   the Clifford count, closed forms, brute force);
2. the answer oracle accepts a real output and flags a wrong expected
   answer, a wrong full report and a wrong exit code;
3. two traced passes with the same seed give identical per-layer counts,
   on every workload.

--record runs every item once at seed 0 and rewrites expected.json, after
confirming the new answers by step 1.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import shutil
import sys
import tempfile

import run
import workloads
from passrun import run_item

sys.path.insert(0, run.SRC)


# ---------------------------------------------------------------------------
# second routes

def psl2_degrees(q):
    """Character degrees of PSL(2, q), q an odd prime (standard list)."""
    if q % 4 == 1:
        return ([1, q] + [q + 1] * ((q - 5) // 4) + [q - 1] * ((q - 1) // 4)
                + [(q + 1) // 2] * 2)
    return ([1, q] + [q + 1] * ((q - 3) // 4) + [q - 1] * ((q - 3) // 4)
            + [(q - 1) // 2] * 2)


def second_route_degrees():
    """Item id -> degree multiset computed without the degree engine."""
    from ppchars import constructions, symmetric

    gamma = constructions.build_gamma_l(5, 19)
    _, frob = constructions.build_frobenius(37, 36)
    routes = {
        "vxa_5_19": constructions.clifford_pprime_count(gamma.action, 5).degrees.degrees,
        "s6": [d for _, d in symmetric.symmetric_degrees(6)],
        "a6": symmetric.alternating_degrees(6),
        "c80": [1] * 80,
        "c4xc4xc5": [1] * 80,
        "d300": [1] * 4 + [2] * 74,
        "frob_37_36": constructions.frobenius_degree_multiset(frob).degrees,
    }
    routes.update({f"psl2_{q}": psl2_degrees(q) for q in workloads.PSL_PRIMES})
    return {item: workloads.degree_multiset(degrees)
            for item, degrees in routes.items()}


def confirm_expected(expected) -> list[str]:
    """Problems found when each expected answer is re-derived another way."""
    problems = []

    def need(ok, item, what):
        if not ok:
            problems.append(f"{item}: {what}")

    routes = second_route_degrees()
    for workload in workloads.WORKLOADS:
        for item_id, argv in workloads.ITEMS[workload]:
            exp = expected[item_id]
            summary = exp["summary"]
            if argv[0] == "degrees":
                need(exp["exit"] == 0, item_id, "exit code")
                need(summary["degrees"] == routes[item_id], item_id,
                     "degrees differ from the second route")
                sum_sq = sum(int(d) ** 2 * c for d, c in summary["degrees"].items())
                need(sum_sq == summary["order"], item_id, "sum of squares != order")
                need(sum(summary["degrees"].values()) == summary["classes"],
                     item_id, "degree count != class count")
            elif argv[0] == "solvable":
                m = math.isqrt(int(argv[argv.index("--p") + 1]) - 1)
                need(exp["exit"] == 0, item_id, "exit code")
                need(summary["pprime_count"] == 2 * m, item_id,
                     "p'-count != 2 sqrt(p - 1)")
                need(summary["sum_of_squares"] == summary["order"], item_id,
                     "sum of squares != |V x| A|")
            elif item_id == "classical_bc":
                bad = [(v["q"], v["f"], v["d"], v["a"], v["p"])
                       for v in summary["violations"]]
                need(exp["exit"] == 1 and bad == [(8, 3, 1, 2, 7)], item_id,
                     "the known Sp_4(8), p = 7 violation is not the only one")
            else:
                need(exp["exit"] == 0 and summary["violations"] == [], item_id,
                     "sweep reports violations")
    # the Clifford count of solvable --p 5 --r 19 against the engine on V x| A
    need(expected["solvable_5_19"]["summary"]["degrees"]
         == expected["vxa_5_19"]["summary"]["degrees"],
         "solvable_5_19", "Clifford multiset != engine multiset of V x| A")
    landau = [p for p in range(2, 301)
              if all(p % k for k in range(2, p)) and math.isqrt(p - 1) ** 2 == p - 1]
    need(expected["landau_300"]["summary"]["rows"] == len(landau)
         and expected["landau_300"]["summary"]["counters"]["count"] == len(landau),
         "landau_300", f"expected {len(landau)} Landau primes up to 300")
    return problems


# ---------------------------------------------------------------------------
# recording and the oracle self-test

def run_items(workload, item_ids=None, seed=0):
    """(item id, exit code, stdout) for items run in this process."""
    from ppchars.cli import main

    input_dir = tempfile.mkdtemp(dir=run.WORK)
    try:
        workloads.write_inputs(workload, seed, input_dir)
        return [
            (item[0],) + run_item(main, workloads.item_argv(item, input_dir, seed))
            for item in workloads.ITEMS[workload]
            if item_ids is None or item[0] in item_ids
        ]
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)


def record() -> int:
    expected = {}
    for workload in workloads.WORKLOADS:
        for item_id, code, stdout in run_items(workload):
            report = json.loads(stdout)
            expected[item_id] = {
                "exit": code,
                "summary": workloads.summarize(report),
                "digest": workloads.digest(workloads.normalize(item_id, report)),
            }
            print(f"recorded {item_id}: exit {code}", flush=True)
    problems = confirm_expected(expected)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def oracle_self_test(expected) -> list[str]:
    problems = []
    outputs = run_items("engine_perm", {"psl2_7"}) + run_items("sweeps", {"classical_bc"})
    for item_id, code, stdout in outputs:
        good = expected[item_id]
        if workloads.check_answer(item_id, code, stdout, good) is not None:
            problems.append(f"{item_id}: the real answer is rejected")
        wrong_answer = copy.deepcopy(good)
        if "degrees" in wrong_answer["summary"]:
            wrong_answer["summary"]["degrees"]["1"] += 1
        else:
            wrong_answer["summary"]["violations"] = []
        wrong_digest = dict(good, digest="0" * 64)
        wrong_exit = dict(good, exit=1 - good["exit"])
        for label, bad in (("a wrong answer", wrong_answer),
                           ("a wrong full report", wrong_digest),
                           ("a wrong exit code", wrong_exit)):
            if workloads.check_answer(item_id, code, stdout, bad) is None:
                problems.append(f"{item_id}: {label} is not flagged")
    return problems


def counts_repeat(workload) -> list[str]:
    from layertrace import layer_metrics

    work_dir = tempfile.mkdtemp(dir=run.WORK)
    try:
        input_dir = os.path.join(work_dir, "inputs")
        run.setup(workload, 0, input_dir)
        runs = []
        for k in range(2):
            result = run.one_pass(workload, 0, input_dir,
                                  os.path.join(work_dir, f"t{k}.json"), trace=True)
            runs.append({name: value for name, (value, unit)
                         in layer_metrics(result["trace"]).items()
                         if unit != "s"})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return [f"{workload}: {name} differs: {runs[0][name]} vs {runs[1][name]}"
            for name in runs[0] if runs[0][name] != runs[1][name]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(run.WORK, exist_ok=True)
    if args.record:
        return record()
    with open(run.EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    problems = confirm_expected(expected)
    print(f"second routes: {len(problems)} problems", flush=True)
    problems += oracle_self_test(expected)
    print(f"oracle self-test: {len(problems)} problems so far", flush=True)
    for workload in workloads.WORKLOADS:
        problems += counts_repeat(workload)
        print(f"trace counts repeat on {workload}: {len(problems)} problems so far",
              flush=True)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
