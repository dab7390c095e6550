"""Workload items, seeded input generation and answer normalization.

Each item is one `ppchars` command line.  Group inputs are written as JSON
files whose points (permutation groups) or elements (table groups) are
relabeled by a permutation drawn from the workload seed; the same seed
always gives byte-identical files.  The seed is also passed to every
command as `--seed`, which drives the degree engine's random choices.
The answers do not depend on the seed, so one expected-answer table
serves every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter

WORKLOADS = ("engine_perm", "engine_table", "solvable", "sweeps")

PSL_PRIMES = (7, 11, 13, 17, 19)

# (item id, argv before --seed); "{file}" stands for the generated input
# file <item id>.json
_DEGREES = ["degrees", "--group", "{file}"]

ITEMS = {
    "engine_perm": (
        [("vxa_5_19", _DEGREES)]
        + [(f"psl2_{q}", _DEGREES) for q in PSL_PRIMES]
        + [("s6", _DEGREES), ("a6", _DEGREES)]
    ),
    "engine_table": [(stem, _DEGREES)
                     for stem in ("c80", "c4xc4xc5", "d300", "frob_37_36")],
    "solvable": [
        ("solvable_5_19", ["solvable", "--p", "5", "--r", "19"]),
        ("solvable_5_199", ["solvable", "--p", "5", "--r", "199"]),
        ("solvable_5_509", ["solvable", "--p", "5", "--r", "509"]),
        ("solvable_17_auto", ["solvable", "--p", "17"]),
    ],
    "sweeps": (
        [("verify_symmetric_25", ["verify-symmetric", "--max-n", "25"])]
        + [(f"bounds_{m}", ["bounds", f"--{m.replace('_', '-')}"])
           for m in ("table1", "table2", "defining", "e8_d1")]
        + [(f"classical_{f}", ["bounds", "--classical", "--family", f])
           for f in ("a", "2a", "bc", "d", "2d")]
        + [("torus_reconcile", ["torus-search", "--reconcile"]),
           ("landau_300", ["landau", "--limit", "300"])]
    ),
}


def item_argv(item: tuple, input_dir: str, seed: int) -> list[str]:
    item_id, argv = item
    path = os.path.join(input_dir, f"{item_id}.json")
    return [a.replace("{file}", path) for a in argv] + ["--seed", str(seed)]


# ---------------------------------------------------------------------------
# input generation

def _relabel_perms(perms, rng):
    """Conjugate image-notation permutations by a random point relabeling."""
    n = len(perms[0])
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = []
    for g in perms:
        h = [0] * n
        for x in range(n):
            h[sigma[x]] = sigma[g[x]]
        out.append(h)
    return out


def _relabel_table(table, rng):
    n = len(table)
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(table):
        out_row = out[sigma[i]]
        for j, k in enumerate(row):
            out_row[sigma[j]] = sigma[k]
    return out


def _psl2_generators(q):
    """x -> x + 1 and x -> -1/x on the projective line, infinity = q."""
    t = [(x + 1) % q for x in range(q)] + [q]
    s = [q] + [(-pow(x, -1, q)) % q for x in range(1, q)] + [0]
    return [t, s]


def _vxa_generators():
    from ppchars import constructions

    built = constructions.build_gamma_l(5, 19)
    product = constructions.semidirect_product_permutations(built.action)
    return [list(product.elements[g]) for g in product.generators]


def _generators(stem):
    """Permutation generators, image notation on points 0..n-1."""
    if stem == "vxa_5_19":
        return _vxa_generators()
    if stem.startswith("psl2_"):
        return _psl2_generators(int(stem[5:]))
    six = list(range(6))
    return {"s6": [six[1:] + [0], [1, 0] + six[2:]],
            "a6": [[1, 2, 0, 3, 4, 5], [0, 2, 3, 4, 5, 1]]}[stem]


def _product_table(elements, mul):
    index = {e: i for i, e in enumerate(elements)}
    return [[index[mul(a, b)] for b in elements] for a in elements]


def _table(stem):
    """Multiplication table by element index."""
    if stem in ("c80", "c4xc4xc5"):
        moduli = (80,) if stem == "c80" else (4, 4, 5)
        elements = [()]
        for m in moduli:
            elements = [e + (x,) for e in elements for x in range(m)]
        return _product_table(
            elements,
            lambda a, b: tuple((x + y) % m for x, y, m in zip(a, b, moduli)))
    if stem == "d300":
        n = 150
        elements = [(k, e) for e in (0, 1) for k in range(n)]
        return _product_table(
            elements,
            lambda a, b: ((a[0] + (-1) ** a[1] * b[0]) % n, a[1] ^ b[1]))
    p = 37  # frob_37_36: the affine maps x -> a x + b of Z/37
    elements = [(a, b) for a in range(1, p) for b in range(p)]
    return _product_table(
        elements, lambda x, y: (x[0] * y[0] % p, (x[0] * y[1] + x[1]) % p))


def write_inputs(workload: str, seed: int, input_dir: str) -> None:
    """Generate and write the input files of the workload's items."""
    stems = [item_id for item_id, argv in ITEMS[workload] if "{file}" in argv]
    os.makedirs(input_dir, exist_ok=True)
    if workload == "engine_perm":
        make, key, relabel = _generators, "permutations", _relabel_perms
    else:
        make, key, relabel = _table, "mult", _relabel_table
    for stem in stems:
        rng = random.Random(f"{workload}/{stem}/{seed}")
        text = json.dumps({key: relabel(make(stem), rng)},
                          separators=(",", ":"))
        with open(os.path.join(input_dir, f"{stem}.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# answers

def normalize(item_id: str, report: dict) -> dict:
    """The report minus what legitimately varies between runs: the timing,
    the echoed seed and the input file path."""
    out = {k: v for k, v in report.items() if k not in ("elapsed_seconds", "seed")}
    if out.get("command") == "degrees":
        out["parameters"] = dict(out["parameters"], group=item_id)
        out["rows"] = [dict(row, group=item_id) for row in out["rows"]]
    return out


def digest(normalized: dict) -> str:
    text = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def summarize(report: dict) -> dict:
    """The human-readable part of an answer, compared field by field."""
    summary = {"status": report["status"], "rows": len(report["rows"])}
    command = report["command"]
    if command == "degrees":
        row = report["rows"][0]
        summary.update(order=row["order"], classes=row["classes"],
                       degrees=degree_multiset(row["degrees"]))
    elif command == "solvable":
        row = report["rows"][0]
        summary.update(order=row["order"], pprime_count=row["pprime_count"],
                       sum_of_squares=row["sum_of_squares"],
                       degrees={str(k): v for k, v in sorted(
                           row["degrees"].items(), key=lambda kv: int(kv[0]))})
    else:
        summary["counters"] = report["counters"]
        summary["violations"] = [row for row in report["rows"]
                                 if row.get("ok") is False]
    return summary


def degree_multiset(degrees) -> dict:
    """Degree -> multiplicity, keyed by strings as in JSON."""
    return {str(d): c for d, c in sorted(Counter(degrees).items())}


def check_answer(item_id: str, exit_code: int, stdout: str, expected: dict):
    """None when the item's exit code and answer equal the expected ones,
    else a one-line reason."""
    if exit_code != expected["exit"]:
        return f"exit code {exit_code}, expected {expected['exit']}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if summarize(report) != expected["summary"]:
        return "answer summary differs from the expected one"
    if digest(normalize(item_id, report)) != expected["digest"]:
        return "full report differs from the expected one"
    return None
