"""One fresh interpreter: set up a workload, or run one pass over it.

    python3 perfbench/passrun.py setup W SEED INPUT_DIR
    python3 perfbench/passrun.py pass W SEED INPUT_DIR EXPECTED OUT [--trace]

`setup` imports ppchars and writes the workload's input files; the caller
times the whole process.  The child times SETUP_UNITS host-speed units
just before and just after that work, and samples them during it.  It
prints their scale factor and the time the units took on its main thread
as JSON, so that the caller can leave the units out and scale the rest.

`pass` runs every item of the workload through
`ppchars.cli.main(argv)` in order, checks each exit code and answer
against the expected table, and writes item times, failures, peak RSS and
(with --trace) the recorded spans to OUT as JSON.  The pass time runs
from the first item's start to the last item's check; `scale` takes it
to the reference host (see hostspeed.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

import hostspeed
import workloads

SETUP_UNITS = 10


def run_item(main, argv):
    """Exit code and stdout of one in-process CLI call; a raised exception
    or argparse exit becomes a nonzero code with the error as stdout."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an item that raises is a failed item
        return -1, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def run_pass(workload, seed, input_dir, expected, tracer=None):
    from ppchars.cli import main

    if tracer is not None:
        tracer.install()
    items = []
    with hostspeed.Sampler() as host:
        start = time.perf_counter()
        for item in workloads.ITEMS[workload]:
            argv = workloads.item_argv(item, input_dir, seed)
            t0 = time.perf_counter()
            code, stdout = run_item(main, argv)
            error = workloads.check_answer(item[0], code, stdout, expected[item[0]])
            items.append({"id": item[0], "seconds": time.perf_counter() - t0,
                          "error": error})
        pass_s = time.perf_counter() - start
    return {
        "pass_s": pass_s,
        "scale": hostspeed.scale(host.samples),
        "items": items,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.dump() if tracer is not None else None,
    }


def main(argv):
    mode, workload, seed, input_dir = argv[0], argv[1], int(argv[2]), argv[3]
    if mode == "setup":
        units = [hostspeed.unit_seconds() for _ in range(SETUP_UNITS + 1)]
        with hostspeed.Sampler() as host:
            import ppchars  # noqa: F401  (import time is part of set-up)

            workloads.write_inputs(workload, seed, input_dir)
        units += [hostspeed.unit_seconds() for _ in range(SETUP_UNITS)]
        # the first unit of a fresh process runs cold, so it sets no scale
        print(json.dumps({
            "scale": hostspeed.scale(units[1:] + host.samples),
            "unit_s": sum(units) + host.samples[0] + host.samples[-1],
        }))
        return 0
    expected_path, out_path = argv[4], argv[5]
    with open(expected_path, encoding="utf-8") as fh:
        expected = json.load(fh)
    tracer = None
    if "--trace" in argv[6:]:
        from layertrace import Tracer

        tracer = Tracer()
    result = run_pass(workload, seed, input_dir, expected, tracer)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
