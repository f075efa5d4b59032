"""qperm benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src.  A run repeats whole rounds of the workload's operations for as
long as another round fits in S seconds.  Every round starts fresh
interpreters, so the library's caches start cold in each, as they do for
a CLI user: a library workload runs one worker process per round,
cli-cold one `qperm` process per command.  Operations run one after
another (a closed loop with one client).  BLAS is held to one thread.

With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of traced rounds.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 when every output passed its check, 1 when one did not, and 2
when the benchmark could not run (no source tree, a worker crashed).
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
ROUND_TIMEOUT = 150     # seconds for one worker or one qperm process
HARD_STOP = 150         # no run measures longer than this
COLD_IMPORTS = 3        # cold `import qperm.cli` timings per cli round

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_geomean_s": "s",
                    "peak_rss_mib": "MiB"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import qperm.cli; "
                "print(time.perf_counter() - t)")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("QPERM_BUDGET", None)
    return env


def run_child(argv, root, env):
    return subprocess.run(argv, cwd=root, env=env, capture_output=True,
                          text=True, timeout=ROUND_TIMEOUT)


def last_json(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def library_round(args, root, env, index):
    path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}-{index}.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
            str(args.seed), str(args.trace), repr(time.time())]
    proc = run_child(argv + ([path] if args.trace else []), root, env)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n"
                         + proc.stderr[-3000:])
    result = last_json(proc.stdout)
    result["setups"] = [result.pop("setup_s")]
    return result


def cli_round(args, commands, root, env, index):
    setups = []
    for _ in range(COLD_IMPORTS):
        proc = run_child([sys.executable, "-c", IMPORT_PROBE], root, env)
        if proc.returncode != 0:
            raise BenchError("cold import failed:\n" + proc.stderr[-3000:])
        setups.append(float(proc.stdout.strip().splitlines()[-1]))

    tracer = spans.Tracer() if args.trace else None
    span_path = os.path.join(OUT, f"spans-cli-{args.seed}-{index}.json")
    records = []
    for i, cmd in enumerate(commands):
        if tracer is not None:
            argv = [sys.executable, os.path.join(HERE, "clihook.py"),
                    span_path, *cmd.argv]
        else:
            argv = [sys.executable, "-m", "qperm.cli", *cmd.argv]
        if os.path.exists(span_path):
            os.remove(span_path)
        t0 = spans.clock()
        proc = run_child(argv, root, env)
        t1 = spans.clock()
        rec = {"name": cmd.name, "seconds": t1 - t0, "error": None,
               "failures": []}
        envelope = None
        try:
            envelope = last_json(proc.stdout)
        except json.JSONDecodeError:
            pass
        if proc.returncode != 0 or not envelope or "payload" not in envelope:
            rec["error"] = (f"exit {proc.returncode}: "
                            + (proc.stderr or proc.stdout)[-500:])
        else:
            rec["failures"] = cmd.check(envelope["payload"])
        if tracer is not None:
            tracer.op = i
            dispatch = envelope["timing"]["seconds"] \
                if rec["error"] is None else 0.0
            span = tracer.record("cli.invocation", t0, t1, dispatch=dispatch)
            if os.path.exists(span_path):
                with open(span_path) as fh:
                    tracer.add(json.load(fh), span)
        records.append(rec)
    wall = sum(r["seconds"] for r in records)
    out = {"setups": setups, "wall_s": wall, "ops": records}
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer.spans, wall)
    return out


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(rounds):
    # An operation's time over rounds is bimodal on a shared host (fast and
    # slow spells of the CPU): a median of a few rounds jumps between the
    # two, a mean moves smoothly.  Whole-pass times sum many operations and
    # are not bimodal, so wall_s stays a median.
    per_op = zip(*[[op["seconds"] for op in r["ops"]] for r in rounds])
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": statistics.median(s for r in rounds for s in r["setups"]),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "op_geomean_s": geomean([statistics.fmean(t) for t in per_op]),
        "peak_rss_mib": rss_kib / 1024.0,
    }


def summarize(rounds, trace):
    ops = [op for r in rounds for op in r["ops"]]
    failed = sum(op["error"] is not None for op in ops)
    failures = [f"{op['name']}: {msg}" for op in ops for msg in op["failures"]]
    errors = [f"{op['name']}: {op['error']}" for op in ops if op["error"]]
    if trace:
        values = spans.median_metrics([r["layers"] for r in rounds])
        metrics = {m: {"value": v, "unit": layer_unit(m)}
                   for m, v in values.items()}
    else:
        metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]}
                   for m, v in end_to_end(rounds).items()}
    result = {"correct": not failures, "attempted": len(ops),
              "failed": failed, "metrics": metrics}
    return result, failures, errors


def layer_unit(metric):
    return "s" if metric.endswith("_s") else "count"


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args, root):
    if not os.path.isfile(os.path.join(root, "src", "qperm", "__init__.py")):
        raise BenchError(f"no qperm source tree under {root}/src")
    os.makedirs(OUT, exist_ok=True)
    env = child_env(root)
    commands = None
    if args.workload == "cli-cold":
        commands = workloads.cli_commands(args.seed, OUT)
    # Start a round only if it should end within the run's seconds, judged
    # by the round before it; the first round always runs.
    rounds = []
    start = spans.clock()
    deadline = min(args.seconds, HARD_STOP)
    while True:
        t0 = spans.clock()
        if commands is None:
            rounds.append(library_round(args, root, env, len(rounds)))
        else:
            rounds.append(cli_round(args, commands, root, env, len(rounds)))
        now = spans.clock()
        if now - start + (now - t0) > deadline:
            break
    return summarize(rounds, args.trace)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    try:
        result, failures, errors = run(args, root)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in errors + failures:
        print("FAILED " + line, file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-"
                                f"trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
