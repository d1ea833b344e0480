"""``python -m perfbench``: run the benchmark.

With ``--workload`` and ``--trace`` this process measures that one pass
and ends its standard output with the one-line JSON result the benchmark
driver reads.  Without them it runs every selected (workload, pass) in a
fresh subprocess each, prints every metric by name, and writes the merged
document to ``--out`` for ``python -m perfbench.compare``.
"""

import time

T0 = time.perf_counter()  # setup_s starts here, before any heavy import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from perfbench import hostspeed  # noqa: E402
from perfbench import metrics as M  # noqa: E402
from perfbench import runner  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    ap.add_argument("--workload", choices=sorted(M.WORKLOADS), help="default: all four")
    ap.add_argument("--seed", type=int, default=M.DEFAULT_SEED,
                    help="input-generator seed; pinned fingerprints apply to the default only")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="measuring budget per pass (each workload has a minimum iteration count)")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end pass, 1: traced per-layer pass; default: both")
    ap.add_argument("--out", metavar="FILE", help="write the result document as JSON")
    ap.add_argument("--spans", metavar="FILE",
                    help="with --trace 1: dump the last traced iteration's spans as JSONL")
    ap.add_argument("--selftest", action="store_true",
                    help="tiny sizes: check the metric declarations and the pinned fingerprints")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if any(os.environ.get(k) != v for k, v in runner.PINNED_ENV.items()):
        # Hash randomisation and BLAS threads add run-to-run noise; pin
        # them by restarting once (the clock restarts with the process).
        os.execve(sys.executable, [sys.executable, "-m", "perfbench", *sys.argv[1:]],
                  runner.pinned_env())
    if args.selftest:
        from perfbench.selftest import selftest

        return selftest()
    measuring = args.setup_probe or (args.workload is not None and args.trace is not None)
    if measuring:
        # Sample host speed over the set-up; runner.prepare closes the region
        # where setup_s ends.  (Not before the execve above: an interval
        # timer survives it and SIGALRM would kill the fresh interpreter.)
        hostspeed.start()
    if args.setup_probe:
        try:
            with runner.fsync_stubbed():
                prep = runner.prepare(args.workload, args.seed, False, T0)
        finally:
            hostspeed.cancel()
            runner.remove_scratch()
        print(json.dumps({"setup_s": prep.setup_s, "setup_raw_s": prep.setup_raw_s}))
        return 0
    if args.workload is not None and args.trace is not None:
        doc = runner.run_pass(args.workload, args.seed, args.seconds, args.trace, False, T0,
                              args.spans)
        print(runner.render(doc))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
        print(runner.driver_line(doc), flush=True)
        return 0 if doc["correct"] else 1
    names = [args.workload] if args.workload else list(M.WORKLOADS)
    passes = [args.trace] if args.trace is not None else [0, 1]
    suite = runner.run_suite(names, passes, args.seed, args.seconds)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(suite, fh, indent=1)
    failed = [f"{name}/{key}" for name, run in suite["runs"].items()
              for key, doc in run.items() if not doc["correct"]]
    print("perfbench: " + (f"FAILED checks in {failed}" if failed else "all checks passed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
