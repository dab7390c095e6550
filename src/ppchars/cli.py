"""Command line interface: every verification as a subcommand.

Exit codes: 0 when the report status is pass (or partial), 1 when any row
fails, 2 for usage errors, 3 for internal consistency failures.  Reports
go to stdout as JSON (default) or CSV; byte-identical output for identical
inputs and seed, except for the elapsed_seconds field, which `main` stamps
on every report as the wall time of its subcommand's handler.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections.abc import Callable
from functools import lru_cache, partial

from . import constructions, engine, landau, lie_bounds, symmetric, torus_search
from .errors import ConsistencyError, UsageError
from .report import Report


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: `parse_args` keeps no state
    between calls, and building it costs more than most reports."""
    parser = argparse.ArgumentParser(
        prog="ppchars",
        description="Exact verification of p'-degree character counts",
    )

    # argparse names a malformed value by its type function: exit 2
    def int_list(text):
        return [int(x) for x in text.split(",")]

    def int_or_auto(text):
        return text if text == "auto" else int(text)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--seed", type=int, default=0,
                        help="PRNG seed for the degree engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, handler, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add_parser("partitions", _cmd_partitions,
                   help="pi(n) and split counts k(m, s)")
    p.add_argument("--pi", type=int, metavar="N")
    p.add_argument("--k", type=int, nargs=2, metavar=("M", "S"))

    p = add_parser("verify-symmetric", _cmd_verify_symmetric,
                   help="digit-product formula vs hook-length oracle")
    p.add_argument("--max-n", type=int, default=25)
    p.add_argument("--primes", type=int_list, default=None,
                   help="comma separated primes, default all p <= n")

    p = add_parser("degrees", _cmd_degrees,
                   help="irreducible degrees of a small group")
    p.add_argument("--group", required=True,
                   help="builtin (C12, D10, S5, A6, F17_4) or JSON file")
    p.add_argument("--p", type=int, default=None)

    p = add_parser("frobenius", _cmd_frobenius,
                   help="the extremal group C_p x| C_m")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, default=None,
                   help="complement order, default sqrt(p-1)")

    p = add_parser("solvable", _cmd_solvable,
                   help="the solvable witness V x| A")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--r", type=int_or_auto, default="auto",
                   help="construction prime, or 'auto' for the smallest")
    p.add_argument("--cross-check", action="store_true",
                   help="also run the degree engine on V x| A")

    p = add_parser("landau", _cmd_landau,
                   help="primes p with p - 1 a perfect square")
    p.add_argument("--limit", type=int, required=True)

    p = add_parser("bounds", _cmd_bounds,
                   help="inequality tables and grid checks")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--table1", action="store_true")
    mode.add_argument("--table2", action="store_true")
    mode.add_argument("--defining", action="store_true")
    mode.add_argument("--classical", action="store_true")
    mode.add_argument("--e8-d1", action="store_true")
    p.add_argument("--family", choices=lie_bounds.FAMILIES)
    p.add_argument("--qmax", type=int, default=None)
    p.add_argument("--rank-max", type=int, default=None,
                   help=f"default {lie_bounds.DEFAULT_RANK_MAX}")
    p.add_argument("--fmax", type=int, default=None,
                   help=f"default {lie_bounds.DEFAULT_F_MAX}")
    p.add_argument("--failures-only", action="store_true",
                   help="emit only failing rows")

    p = add_parser("torus-search", _cmd_torus,
                   help="self-centralizing torus classification sweep")
    p.add_argument("--qmax", type=int, default=256)
    p.add_argument("--nmax", type=int, default=12)
    p.add_argument("--reconcile", action="store_true",
                   help="compare the hit set with the classification lists")

    p = add_parser("verify-all", _cmd_verify_all,
                   help="aggregate verification suite")
    profile = p.add_mutually_exclusive_group()
    profile.add_argument("--quick", action="store_true")
    profile.add_argument("--full", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.handler(args)
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UsageError) as exc:  # e.g. an unreadable --group file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.elapsed_seconds = time.perf_counter() - start
    report.seed = args.seed
    if getattr(args, "failures_only", False):
        report.rows = [r for r in report.rows if r.get("ok") is False]
    try:
        print(report.to_json() if args.format == "json" else report.to_csv())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`| head`); point stdout at devnull so
        # that the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return 0 if report.status in ("pass", "partial") else 1


def _cmd_partitions(args) -> Report:
    from . import partitions

    rows = []
    if args.pi is not None:
        rows.append({"n": args.pi, "pi": partitions.partition_count(args.pi)})
    if args.k is not None:
        m, s = args.k
        rows.append({"m": m, "s": s, "k": partitions.split_count(m, s)})
    if not rows:
        raise UsageError("need --pi N or --k M S")
    return Report("partitions", {"pi": args.pi, "k": args.k}, rows)


def _cmd_verify_symmetric(args) -> Report:
    return symmetric.verify_symmetric_bounds(args.max_n, args.primes)


class _SharedInts(dict):
    """Numeral text -> int, one int object per distinct numeral.  Its
    bound `__getitem__` is `json.load`'s `parse_int`: a table file of n^2
    entries then holds n int objects, not n^2, and `validate` compares
    identical objects.  A hit costs one dict lookup at C speed."""

    def __missing__(self, text: str) -> int:
        value = self[text] = int(text)
        return value


def _group_from_descriptor(descriptor: str) -> engine.FiniteGroup:
    kind = descriptor[:1].upper()
    # isdecimal, not isdigit: int() refuses digits such as "²"
    if kind in "CDSA" and descriptor[1:].isdecimal():
        return {
            "C": engine.cyclic_group,
            "D": engine.dihedral_group,
            "S": engine.symmetric_group,
            "A": engine.alternating_group,
        }[kind](int(descriptor[1:]))
    if kind == "F" and "_" in descriptor:
        p_str, m_str = descriptor[1:].split("_", 1)
        if not (p_str.isdecimal() and m_str.isdecimal()):
            raise UsageError(
                f"malformed group descriptor {descriptor!r}: expected F<p>_<m>"
            )
        group, _ = constructions.build_frobenius(int(p_str), int(m_str))
        return group
    with open(descriptor, encoding="utf-8") as fh:
        data = json.load(fh, parse_int=_SharedInts().__getitem__)
    if not isinstance(data, dict):
        raise ValueError("group file must hold a JSON object")
    if "permutations" in data:
        return engine.group_from_permutations(data["permutations"])
    if "mult" in data:
        table = data["mult"]
        if isinstance(table, list):
            # each row list is freed as its tuple is made, and
            # group_from_table keeps tuple rows as they are: the n^2
            # entries are never held twice
            for i, row in enumerate(table):
                if isinstance(row, list):
                    table[i] = tuple(row)
        try:
            return engine.group_from_table(table)
        except ConsistencyError as exc:  # the file's law, not the program
            raise ValueError(f"not a group table: {exc}") from exc
    raise ValueError("group file needs a 'permutations' or 'mult' key")


def _cmd_degrees(args) -> Report:
    group = _group_from_descriptor(args.group)
    degrees = engine.irreducible_degrees(group, seed=args.seed)
    row = {
        "group": args.group,
        "order": group.order,
        "classes": len(degrees),
        "degrees": list(degrees.degrees),
        "linear": degrees.linear_count(),
        "sum_of_squares": degrees.sum_of_squares(),
        "ok": True,
    }
    if args.p is not None:
        row["p"] = args.p
        row["pprime_count"] = degrees.pprime_count(args.p)
    return Report("degrees", {"group": args.group, "p": args.p}, [row])


def _cmd_frobenius(args) -> Report:
    p = args.p
    if not landau.is_prime(p):  # before isqrt, which refuses p < 1
        raise ValueError(f"{p} is not prime")
    m = args.m if args.m is not None else math.isqrt(p - 1)
    group, params = constructions.build_frobenius(p, m)
    closed = constructions.frobenius_degree_multiset(params)
    engine_degrees = engine.irreducible_degrees(group, seed=args.seed)
    agrees = closed.counts == engine_degrees.counts
    pprime_count = closed.pprime_count(p)
    # at m = sqrt(p-1) the count must attain the bound 2*sqrt(p-1)
    attained = m * m != p - 1 or pprime_count == 2 * m
    row = {
        "p": p,
        "m": m,
        "order": group.order,
        "classes": len(engine_degrees),
        "degrees": list(closed.degrees),
        "pprime_count": pprime_count,
        "engine_agrees": agrees,
        "ok": agrees and attained,
    }
    return Report("frobenius", {"p": p, "m": m}, [row])


def _cmd_solvable(args) -> Report:
    p = args.p
    r = constructions.find_construction_prime(p) if args.r == "auto" else args.r
    built = constructions.build_gamma_l(p, r)
    m = built.m
    order = (r**m) * p * m
    if args.cross_check:
        # the engine's refusal of V x| A comes before the one Clifford count
        engine.check_order(order)
    clifford = constructions.clifford_pprime_count(
        built.action, p, engine_seed=args.seed
    )
    expected = 2 * m
    row = {
        "p": p,
        "r": r,
        "m": m,
        "order": order,
        "degrees": dict(clifford.degrees.counts),
        "pprime_count": clifford.pprime_count,
        "expected": expected,
        "sum_of_squares": clifford.degrees.sum_of_squares(),
        "invariants_verified": True,
        "ok": clifford.pprime_count == expected,
    }
    rows = [row]
    if args.cross_check:
        rows += constructions.engine_cross_check(
            built.action, p, seed=args.seed, clifford=clifford
        ).rows
    return Report("solvable", {"p": p, "r": r, "cross_check": args.cross_check},
                  rows)


def _cmd_landau(args) -> Report:
    rows = [
        {"p": lp.p, "m": lp.m, "degenerate": lp.degenerate}
        for lp in landau.landau_primes(args.limit)
    ]
    return Report("landau", {"limit": args.limit}, rows,
                  counters={"count": len(rows)})


# the grid options each `bounds` mode reads; the others are refused
_BOUNDS_OPTIONS = {"table1": (), "table2": (), "defining": (),
                   "classical": ("family", "qmax", "rank_max", "fmax"),
                   "e8_d1": ("qmax",)}


def _cmd_bounds(args) -> Report:
    mode = next(m for m in _BOUNDS_OPTIONS if getattr(args, m))
    reads = _BOUNDS_OPTIONS[mode]
    for option in _BOUNDS_OPTIONS["classical"]:
        if getattr(args, option) is not None and option not in reads:
            raise UsageError(f"--{option.replace('_', '-')} does not apply "
                             f"to --{mode.replace('_', '-')}")
    # an explicit value, even 0, reaches the check; else its own default
    grid = {name: value for name, value in (("q_max", args.qmax),
                                            ("rank_max", args.rank_max),
                                            ("f_max", args.fmax))
            if value is not None}
    if mode == "classical":
        if not args.family:
            raise UsageError("--classical needs --family")
        return lie_bounds.classical_inequality_check(args.family, **grid)
    if mode == "e8_d1":
        return lie_bounds.e8_d1_check(**grid)
    return {"table1": lie_bounds.table1_report,
            "table2": lie_bounds.verify_table2,
            "defining": lie_bounds.defining_char_check}[mode]()


def _cmd_torus(args) -> Report:
    if args.reconcile:
        return torus_search.reconcile_with_theorem(args.qmax, args.nmax)
    return torus_search.search_report(args.qmax, args.nmax)


def checks(full: bool, seed: int = 0) -> list[tuple[str, Callable[[], Report]]]:
    """The `verify-all` check list, in row order: each name with a call
    that returns that check's report.  The calls are lazy, and
    tests/test_acceptance.py asserts on the reports of the same calls."""
    def subcommand(handler, **options):
        return partial(handler, argparse.Namespace(seed=seed, **options))

    out = [("verify-symmetric",
            partial(symmetric.verify_symmetric_bounds, 25 if full else 15))]
    out += [(f"frobenius p={p}", subcommand(_cmd_frobenius, p=p, m=None))
            for p in ((5, 17, 37, 101, 197, 257) if full else (5, 17))]
    out += [("solvable p=5",
             subcommand(_cmd_solvable, p=5, r=19, cross_check=full)),
            ("table2", lie_bounds.verify_table2)]
    if not full:
        return out + [("torus-search",
                       partial(torus_search.search_report, 64, 12))]
    out += [("table1", lie_bounds.table1_report),
            ("defining", lie_bounds.defining_char_check)]
    out += [(f"classical {family}",
             partial(lie_bounds.classical_inequality_check, family))
            for family in lie_bounds.FAMILIES]
    return out + [("e8-d1", lie_bounds.e8_d1_check),
                  ("torus-reconcile", torus_search.reconcile_with_theorem),
                  ("alternating", torus_search.alternating_check)]


def _cmd_verify_all(args) -> Report:
    rows = []
    for name, run in checks(args.full, args.seed):
        report = run()
        rows.append({"check": name, "status": report.status,
                     "rows": len(report.rows),
                     "failures": len(report.failures),
                     "ok": report.status != "fail"})
    return Report("verify-all", {"profile": "full" if args.full else "quick"},
                  rows)


if __name__ == "__main__":
    sys.exit(main())
