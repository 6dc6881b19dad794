"""Child processes of the benchmark.

    worker.py setup --workload W --seed S
        Import the package, generate the workload's inputs, print the
        monotonic clock reading at which the first request is ready.
    worker.py sweep --suites JSON [--trace PATH]
        Run the pinned verify suites in this one process; print one JSON
        line per suite.  Each suite runs under its own time cap.
    worker.py request --trace PATH --request K -- CLI-ARGS...
        One traced ``wreathbranch.cli`` request: stdout is the CLI's own.

The client (``run.py``) sets PYTHONPATH to the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

from workloads import FIRST_RULE_STRATA, first_rule_requests

HERE = Path(__file__).resolve().parent


class SuiteTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise SuiteTimeout()


def cmd_setup(args) -> int:
    if args.workload in FIRST_RULE_STRATA:
        import wreathbranch.cli  # noqa: F401  (what every request imports)
        from wreathbranch.branching import wreath_specht_dimension
        inputs = json.loads((HERE / "inputs.json").read_text())
        m, lam = next(first_rule_requests(args.workload, args.seed,
                                          inputs["classes"]))
        wreath_specht_dimension(m, lam)
    else:
        import wreathbranch.verify  # noqa: F401  (the suites are pinned)
    print(repr(time.monotonic()), flush=True)
    return 0


def cmd_sweep(args) -> int:
    from wreathbranch import verify
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    suites = json.loads(args.suites)
    signal.signal(signal.SIGALRM, _on_alarm)
    for k, (name, max_m, max_n, cap) in enumerate(suites):
        if tracer:
            tracer.set_request(k)
        row = {"suite": name, "checked": 0, "failures": 0, "error": None}
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            report = verify.run_suite(name, max_m, max_n)
            signal.setitimer(signal.ITIMER_REAL, 0)
            row["checked"] = report["checked"]
            row["failures"] = len(report["failures"])
        except SuiteTimeout:
            row["error"] = f"over its {cap} s cap"
        except Exception as exc:  # reported to the client as a failed suite
            signal.setitimer(signal.ITIMER_REAL, 0)
            row["error"] = f"{type(exc).__name__}: {exc}"
        row["wall_s"] = time.perf_counter() - t0
        print(json.dumps(row), flush=True)
    if tracer:
        tracer.write(Path(args.trace), {})
    return 0


def cmd_request(args) -> int:
    t0 = time.perf_counter()
    from wreathbranch import cli
    import_ms = (time.perf_counter() - t0) * 1e3
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.set_request(args.request)
    code = cli.main(args.cli_args)
    sys.stdout.flush()
    tracer.write(Path(args.trace), {"import_ms": import_ms})
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p = sub.add_parser("sweep")
    p.add_argument("--suites", required=True)
    p.add_argument("--trace")
    p = sub.add_parser("request")
    p.add_argument("--trace", required=True)
    p.add_argument("--request", type=int, required=True)
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if getattr(args, "cli_args", None) and args.cli_args[0] == "--":
        args.cli_args = args.cli_args[1:]
    return {"setup": cmd_setup, "sweep": cmd_sweep,
            "request": cmd_request}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
