import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import ppchars
from ppchars import lie_bounds
from ppchars.cli import build_parser, main
from ppchars.report import Report


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def without_elapsed(text):
    return "\n".join(l for l in text.splitlines() if "elapsed_seconds" not in l)


def test_landau_json():
    code, out = run_cli(["landau", "--limit", "300"])
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["status"] == "pass"
    assert [row["p"] for row in report["rows"]] == [2, 5, 17, 37, 101, 197, 257]
    assert report["rows"][0]["degenerate"] is True


def test_partitions_subcommand():
    code, out = run_cli(["partitions", "--pi", "10"])
    assert code == 0 and json.loads(out)["rows"][0]["pi"] == 42
    code, out = run_cli(["partitions", "--k", "5", "1"])
    assert json.loads(out)["rows"][0]["k"] == 5


def test_frobenius_subcommand():
    # at m = 1 the m linear characters and the (p-1)/m of degree m coincide
    for argv, degrees, count in ((["--p", "5"], [1, 1, 2, 2], 4),
                                 (["--p", "2"], [1, 1], 2),
                                 (["--p", "5", "--m", "1"], [1] * 5, 5)):
        code, out = run_cli(["frobenius"] + argv)
        assert code == 0, argv
        row = json.loads(out)["rows"][0]
        assert row["degrees"] == degrees and row["classes"] == len(degrees)
        assert row["pprime_count"] == count
        assert row["engine_agrees"] is True


def test_degrees_builtin_and_file(tmp_path):
    code, out = run_cli(["degrees", "--group", "A5", "--p", "5"])
    row = json.loads(out)["rows"][0]
    assert row["degrees"] == [1, 3, 3, 4, 5] and row["pprime_count"] == 4

    gfile = tmp_path / "c4.json"
    gfile.write_text(json.dumps({"permutations": [[1, 2, 3, 0]]}))
    code, out = run_cli(["degrees", "--group", str(gfile)])
    assert code == 0
    assert json.loads(out)["rows"][0]["degrees"] == [1, 1, 1, 1]

    table = tmp_path / "c2.json"
    table.write_text(json.dumps({"mult": [[0, 1], [1, 0]]}))
    code, out = run_cli(["degrees", "--group", str(table)])
    assert json.loads(out)["rows"][0]["degrees"] == [1, 1]


def test_verify_symmetric_subcommand():
    code, out = run_cli(["verify-symmetric", "--max-n", "10", "--primes", "5,7"])
    report = json.loads(out)
    assert code == 0 and report["status"] == "pass"
    assert all(row["p"] in (5, 7) for row in report["rows"])


def test_non_prime_p_is_refused():
    # one error line and exit 1, with no report: before, --p 0 raised
    # ZeroDivisionError, --p 4 printed a count, and --primes 4 checked nothing
    for argv, p in (
        (["degrees", "--group", "S4", "--p", "0"], 0),
        (["degrees", "--group", "S4", "--p", "4"], 4),
        (["degrees", "--group", "S4", "--p", "-3"], -3),
        (["verify-symmetric", "--max-n", "10", "--primes", "4"], 4),
        (["verify-symmetric", "--max-n", "10", "--primes", "5,9"], 9),
        (["frobenius", "--p", "4"], 4),
        (["frobenius", "--p", "0"], 0),
        (["frobenius", "--p", "-5"], -5),
    ):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_cli(argv)
        assert code == 1, argv
        assert out == "", argv
        assert err.getvalue() == f"error: {p} is not prime\n", argv


@pytest.mark.parametrize("argv, message", [
    (["--max-n", "1"], "n_max must be at least 2, got 1"),
    (["--max-n", "0"], "n_max must be at least 2, got 0"),
    (["--max-n", "-3"], "n_max must be at least 2, got -3"),
    (["--max-n", "10", "--primes", "11"],
     "no requested prime is at most n_max = 10"),
])
def test_empty_symmetric_sweep_is_refused(argv, message):
    # a sweep that checks nothing is refused, not reported as a pass
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["verify-symmetric"] + argv)
    assert code == 1 and out == "", argv
    assert err.getvalue() == f"error: {message}\n", argv


def test_bounds_modes():
    for flags in (["--table1"], ["--table2"], ["--defining"]):
        code, out = run_cli(["bounds"] + flags)
        assert code == 0, flags
        assert json.loads(out)["status"] == "pass"


def test_bounds_qmax_zero_is_refused():
    # an explicit 0 is a bad grid, not a request for the default one
    for flags in (["--classical", "--family", "a"], ["--e8-d1"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_cli(["bounds"] + flags + ["--qmax", "0"])
        assert code == 1 and out == "", flags
        assert err.getvalue() == "error: limit must be at least 2\n", flags


@pytest.mark.parametrize("argv, message", [
    (["--defining", "--qmax", "2"], "--qmax does not apply to --defining"),
    (["--table1", "--rank-max", "3"], "--rank-max does not apply to --table1"),
    (["--table2", "--fmax", "2"], "--fmax does not apply to --table2"),
    (["--defining", "--family", "a"], "--family does not apply to --defining"),
    (["--e8-d1", "--rank-max", "3"], "--rank-max does not apply to --e8-d1"),
    (["--e8-d1", "--fmax", "2"], "--fmax does not apply to --e8-d1"),
    (["--e8-d1", "--family", "bc", "--qmax", "2000"],
     "--family does not apply to --e8-d1"),
])
def test_bounds_option_its_mode_does_not_read_is_refused(argv, message):
    # an option that would be dropped is a usage error, not a default report
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["bounds"] + argv)
    assert code == 2 and out == "", argv
    assert err.getvalue() == f"error: {message}\n", argv


@pytest.mark.parametrize("qmax", [2, 10, 1000, 1008])
def test_empty_e8_grid_is_refused(qmax):
    # no prime power q with 1001 <= q <= qmax: the check would pass on 0 rows
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["bounds", "--e8-d1", "--qmax", str(qmax)])
    assert code == 1 and out == ""
    assert err.getvalue() == f"error: no prime power q with 1001 <= q <= {qmax}\n"


@pytest.mark.parametrize("argv, grid", [
    (["--rank-max", "1"], (lie_bounds.DEFAULT_Q_MAX, 1, lie_bounds.DEFAULT_F_MAX)),
    (["--fmax", "0"], (lie_bounds.DEFAULT_Q_MAX, lie_bounds.DEFAULT_RANK_MAX, 0)),
    (["--qmax", "2", "--rank-max", "2"], (2, 2, lie_bounds.DEFAULT_F_MAX)),
])
def test_empty_classical_grid_is_refused(argv, grid):
    # no point (q, n, d, a) at all: the check would pass on 0 rows
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["bounds", "--classical", "--family", "a"] + argv)
    assert code == 1 and out == "", argv
    q_max, rank_max, f_max = grid
    assert err.getvalue() == (
        f"error: no grid point for family a with q_max = {q_max}, "
        f"rank_max = {rank_max}, f_max = {f_max}\n")


def test_bounds_classical_defaults_fill_in_for_absent_options():
    argv = ["bounds", "--classical", "--family", "a", "--qmax", "32"]
    code, out = run_cli(argv)
    explicit = ["--rank-max", str(lie_bounds.DEFAULT_RANK_MAX),
                "--fmax", str(lie_bounds.DEFAULT_F_MAX)]
    code_explicit, out_explicit = run_cli(argv + explicit)
    assert code_explicit == code == 0
    assert without_elapsed(out_explicit) == without_elapsed(out)
    assert json.loads(out)["parameters"] == {
        "family": "a", "q_max": 32, "rank_max": lie_bounds.DEFAULT_RANK_MAX,
        "f_max": lie_bounds.DEFAULT_F_MAX}


def test_bounds_classical_failures_only():
    code, out = run_cli(
        ["bounds", "--classical", "--family", "bc", "--failures-only"]
    )
    report = json.loads(out)
    assert code == 1 and report["status"] == "fail"
    assert [(r["q"], r["p"]) for r in report["rows"]] == [(8, 7)]


def test_torus_subcommand():
    code, out = run_cli(["torus-search", "--qmax", "64", "--nmax", "12"])
    assert code == 0
    labels = {r["label"] for r in json.loads(out)["rows"]}
    assert "S4(4)" in labels
    code, out = run_cli(["torus-search", "--reconcile"])
    assert code == 0 and json.loads(out)["status"] == "pass"


def test_solvable_subcommand():
    code, out = run_cli(["solvable", "--p", "5", "--r", "19"])
    report = json.loads(out)
    assert code == 0
    assert report["rows"][0]["pprime_count"] == 4
    assert report["rows"][0]["ok"] is True


@pytest.mark.parametrize("p, code, calls", [("5", 0, 1), ("37", 1, 0)])
def test_solvable_cross_check_counts_once(monkeypatch, capsys, p, code, calls):
    """The cross-check compares the report's own Clifford count with the
    engine; past the engine's order bound it is refused before any count."""
    from ppchars import constructions

    counted = []
    count = constructions.clifford_pprime_count

    def counting(*args, **kwargs):
        counted.append(args)
        return count(*args, **kwargs)

    monkeypatch.setattr(constructions, "clifford_pprime_count", counting)
    assert main(["solvable", "--p", p, "--cross-check"]) == code
    assert len(counted) == calls
    if code:
        assert "exceeds engine bound" in capsys.readouterr().err


def test_csv_format():
    code, out = run_cli(["landau", "--limit", "300", "--format", "csv"])
    lines = out.strip().splitlines()
    assert lines[0] == "p,m,degenerate"
    assert len(lines) == 8


def test_json_determinism_modulo_elapsed():
    _, first = run_cli(["verify-symmetric", "--max-n", "10"])
    _, second = run_cli(["verify-symmetric", "--max-n", "10"])
    assert without_elapsed(first) == without_elapsed(second)


def test_seed_is_echoed():
    _, out = run_cli(["degrees", "--group", "S4", "--seed", "9"])
    assert json.loads(out)["seed"] == 9


def test_usage_error_exit_code():
    # an unknown option, and a malformed option value as argparse parses it
    for argv in (["landau", "--bogus"],
                 ["verify-symmetric", "--primes", "5,x"],
                 ["verify-symmetric", "--max-n", "x"],
                 ["solvable", "--p", "5", "--r", "x"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert f"ppchars {argv[0]}: error: " in err.getvalue(), argv


def test_bad_group_file_exit_codes(tmp_path):
    # an entry outside 0..n-1 is bad input (1), not an internal fault (3)
    table = tmp_path / "bad.json"
    table.write_text(json.dumps({"mult": [[0, 1, 2], [1, 2, 0], [2, 0, -2]]}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["degrees", "--group", str(table)])
    assert code == 1
    assert err.getvalue() == "error: table entries must lie in 0..2\n"
    # a non-integer entry is refused, not truncated to C2
    table.write_text(json.dumps({"mult": [[0, 1.9], [1, 0]]}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["degrees", "--group", str(table)])
    assert code == 1
    assert err.getvalue() == "error: table entries must be integers\n"
    # a Latin square with identity and inverses that is not associative
    # is bad input too: the loop of order 5 in which every element is its
    # own inverse
    table.write_text(json.dumps({"mult": [
        [0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["degrees", "--group", str(table)])
    assert code == 1
    assert err.getvalue().startswith("error: not a group table: "
                                     "associativity fails")
    assert err.getvalue().count("\n") == 1
    # a table or a generator list that is not a list of lists
    for data in ({"mult": 5}, {"mult": [5]}, {"permutations": 5},
                 {"permutations": [[0, "1"]]}, 5):
        table.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["degrees", "--group", str(table)])
        assert code == 1, data
        assert err.getvalue().startswith("error: "), data
        assert err.getvalue().count("\n") == 1, data
    # a 5000-digit numeral: the loader's shared-int hook gives the default
    # parser's message, which is Python's int-conversion limit on 3.11 and
    # later, and the range check where there is no limit
    table.write_text('{"mult": [[' + "7" * 5000 + ']]}')
    try:
        json.loads(table.read_text())
        expected = "error: table entries must lie in 0..0\n"
    except ValueError as exc:
        expected = f"error: {exc}\n"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["degrees", "--group", str(table)])
    assert code == 1
    assert err.getvalue() == expected
    # a file that cannot be read is a usage error, with no traceback
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["degrees", "--group", str(tmp_path / "missing.json")])
    assert code == 2
    assert err.getvalue().startswith("error: ")
    assert "missing.json" in err.getvalue()
    assert err.getvalue().count("\n") == 1
    # so is a malformed F<p>_<m> descriptor, named in one stderr line
    for descriptor in ("F5_x", "F_", "F5_2_3"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["degrees", "--group", descriptor])
        assert code == 2, descriptor
        assert err.getvalue() == (f"error: malformed group descriptor "
                                  f"{descriptor!r}: expected F<p>_<m>\n")


def test_single_version():
    _, out = run_cli(["landau", "--limit", "10"])
    assert json.loads(out)["version"] == ppchars.__version__
    assert Report("x", {}, []).version == ppchars.__version__
    # tomllib is missing on Python 3.10, so read the file as text
    root = pathlib.Path(__file__).resolve().parent.parent
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    assert 'dynamic = ["version"]' in pyproject
    assert 'version = {attr = "ppchars.__version__"}' in pyproject
    assert 'version = "' not in pyproject


def test_value_error_exit_code():
    # one of two optional flags missing is a usage error, as argparse's are
    buf = io.StringIO()
    with contextlib.redirect_stderr(buf):
        code = main(["partitions"])
    assert code == 2 and "need --pi" in buf.getvalue()
    buf = io.StringIO()
    with contextlib.redirect_stderr(buf):
        code = main(["bounds", "--classical"])
    assert code == 2 and buf.getvalue() == "error: --classical needs --family\n"


def test_closed_pipe_has_no_traceback():
    # the report (1.6 MB) is far larger than a pipe buffer, so the write
    # is still blocked when the reader closes its end
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ppchars.cli", "bounds", "--classical",
         "--family", "a"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(15) == b'{\n  "command": '
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0
    assert stderr == ""  # no traceback, and no "Exception ignored" at exit


def test_verify_all_quick():
    code, out = run_cli(["verify-all", "--quick"])
    report = json.loads(out)
    assert code == 0 and report["status"] == "pass"
    checks = {row["check"] for row in report["rows"]}
    assert {"verify-symmetric", "frobenius p=5", "frobenius p=17",
            "solvable p=5", "table2", "torus-search"} <= checks


def test_verify_all_full():
    code, out = run_cli(["verify-all", "--full"])
    report = json.loads(out)
    assert code == 1 and report["status"] == "fail"
    assert [row["check"] for row in report["rows"]] == [
        "verify-symmetric",
        "frobenius p=5", "frobenius p=17", "frobenius p=37",
        "frobenius p=101", "frobenius p=197", "frobenius p=257",
        "solvable p=5", "table2", "table1", "defining",
        "classical bc", "classical d", "classical 2d", "classical a",
        "classical 2a", "e8-d1", "torus-reconcile", "alternating",
    ]
    # the printed bound fails at Sp_4(8), p = 7, and nowhere else
    failing = [row for row in report["rows"] if row["ok"] is False]
    assert [(row["check"], row["failures"]) for row in failing] == [
        ("classical bc", 1)]
    # the solvable row counts the engine cross-check row too
    solvable = next(r for r in report["rows"] if r["check"] == "solvable p=5")
    assert solvable["rows"] == 2


def test_main_stamps_elapsed_seconds_on_every_subcommand():
    # one cheap invocation per subcommand; the set must name them all
    argvs = {
        "partitions": ["--pi", "5"],
        "verify-symmetric": ["--max-n", "5"],
        "degrees": ["--group", "C2"],
        "frobenius": ["--p", "5"],
        "solvable": ["--p", "5"],
        "landau": ["--limit", "10"],
        "bounds": ["--table1"],
        "torus-search": ["--qmax", "8", "--nmax", "4"],
        "verify-all": ["--quick"],
    }
    subcommands = next(a for a in build_parser()._actions
                       if a.dest == "command").choices
    assert set(argvs) == set(subcommands)
    for command, argv in argvs.items():
        code, out = run_cli([command] + argv)
        assert code == 0, command
        assert json.loads(out)["elapsed_seconds"] > 0, command


def test_parser_is_built_once_and_reused():
    """One process runs a usage error and then two subcommands through the
    one cached parser; each call prints what a fresh process prints, apart
    from elapsed_seconds, with the same exit code."""
    assert build_parser() is build_parser()
    argvs = [["solvable", "--p", "x"], ["landau", "--limit", "50"],
             ["partitions", "--pi", "12", "--format", "csv"]]
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    script = ("import contextlib, io, json, sys\n"
              "from ppchars.cli import main\n"
              "runs = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    out, err = io.StringIO(), io.StringIO()\n"
              "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
              "        try:\n"
              "            code = main(argv)\n"
              "        except SystemExit as exc:\n"
              "            code = exc.code\n"
              "    runs.append([code, out.getvalue(), err.getvalue()])\n"
              "print(json.dumps(runs))\n")
    one = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert one.returncode == 0, one.stderr
    runs = json.loads(one.stdout)
    for argv, (code, out, err) in zip(argvs, runs):
        fresh = subprocess.run([sys.executable, "-m", "ppchars.cli"] + argv,
                               capture_output=True, text=True, env=env,
                               timeout=60)
        assert code == fresh.returncode, argv
        assert without_elapsed(out) == without_elapsed(fresh.stdout), argv
        assert err == fresh.stderr, argv
    assert [code for code, _, _ in runs] == [2, 0, 0]


def _run_capped(argv, timeout=60):
    """`ppchars argv` in a child under a 1 GB address-space cap, so that an
    input that is built before it is refused fails with a MemoryError
    instead of taking the machine's memory."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from ppchars.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", script] + argv,
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


@pytest.mark.parametrize("argv, order", [
    (["degrees", "--group", "C100000"], "100000"),
    (["degrees", "--group", "D10002"], "10002"),
    (["degrees", "--group", "S10000"], "10000!"),
    (["degrees", "--group", "A10000"], "10000!/2"),
    (["degrees", "--group", "S7"], "5040"),
    (["degrees", "--group", "A8"], "20160"),
    (["degrees", "--group", "F100003_2"], "200006"),
    (["frobenius", "--p", "100003", "--m", "2"], "200006"),
    (["frobenius", "--p", "10007", "--m", "2"], "20014"),
    (["solvable", "--p", "401"], "8020"),
    (["solvable", "--p", "677"], "17602"),
])
def test_group_past_the_order_bound_is_refused_before_it_is_built(argv, order):
    start = time.perf_counter()
    proc = _run_capped(argv)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: group order {order} exceeds engine bound 5000\n"


@pytest.mark.parametrize("argv", [
    ["torus-search", "--qmax", "3000000000"],
    ["bounds", "--e8-d1", "--qmax", "3000000000"],
    ["bounds", "--classical", "--family", "a", "--qmax", "3000000000"],
])
def test_sieve_past_its_bound_is_refused_before_it_is_allocated(argv):
    start = time.perf_counter()
    proc = _run_capped(argv)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: sieve up to 3000000000 exceeds the sieve "
                           "bound 10000000\n")


@pytest.mark.parametrize("argv", [
    ["torus-search", "--nmax", "100000"],
    ["torus-search", "--nmax", "401", "--reconcile"],
])
def test_torus_rank_past_its_bound_is_refused_up_front(argv):
    start = time.perf_counter()
    proc = _run_capped(argv, timeout=20)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 1
    assert proc.stdout == ""
    rank = argv[2]
    assert proc.stderr == (f"error: rank {rank} exceeds the torus rank "
                           "bound 400\n")


@pytest.mark.parametrize("argv, message", [
    (["--pi", "20000000"], "pi(20000000) exceeds the partition bound 5000"),
    (["--k", "100000", "100000"],
     "k(100000, 100000) exceeds the split bound m <= 1000000, s <= 300"),
    (["--k", "10000000", "5"],
     "k(10000000, 5) exceeds the split bound m <= 1000000, s <= 300"),
])
def test_oversized_partitions_input_is_refused_up_front(argv, message):
    proc = _run_capped(["partitions"] + argv, timeout=20)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def _frobenius_37_36_table():
    """The Cayley table of the affine maps x -> a x + b of Z/37, which is
    F(37,36) of order 1332: (a, b)(c, d) = (a c, a d + b)."""
    elements = [(a, b) for a in range(1, 37) for b in range(37)]
    index = {e: i for i, e in enumerate(elements)}
    return [[index[a * c % 37, (a * d + b) % 37] for c, d in elements]
            for a, b in elements]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak resident size from /proc")
def test_table_file_loads_one_int_object_per_value(tmp_path):
    # 1332^2 entries: a parse that gives each entry its own int object
    # (about 42 bytes an entry) rises about 71 MiB, one that shares them
    # and does not hold the rows twice about 22 MiB.  The child reads
    # VmHWM, its own peak since exec: its ru_maxrss would start at the
    # peak of this process, which it inherits.
    gfile = tmp_path / "frob_37_36.json"
    gfile.write_text(json.dumps({"mult": _frobenius_37_36_table()}))
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    script = ("import sys\n"
              "def peak_kib():\n"
              "    with open('/proc/self/status') as fh:\n"
              "        return next(int(line.split()[1]) for line in fh\n"
              "                    if line.startswith('VmHWM:'))\n"
              "from ppchars.cli import main\n"
              "before = peak_kib()\n"
              "code = main(sys.argv[1:])\n"
              "print(peak_kib() - before, file=sys.stderr)\n"
              "sys.exit(code)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "degrees", "--group", str(gfile)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"][0]["order"] == 1332
    rise_mib = int(proc.stderr) / 1024
    assert rise_mib < 30
