"""One round of a library workload, in a fresh interpreter.

    python perfbench/worker.py WORKLOAD SEED TRACE SPAWNED [SPANS_PATH]

SPAWNED is the wall-clock time (time.time()) at which the parent started
this process; set-up time runs from then until the inputs are built.  The
ops run one after another, each timed; with TRACE = 1 the library is
traced and the spans are written to SPANS_PATH.  The checks run after the
timed pass.  The last line of standard output is one JSON object.
"""

import json
import sys
import time
import traceback


def main(argv):
    workload, seed, trace, spawned = argv[0], int(argv[1]), argv[2] == "1", \
        float(argv[3])
    import workloads
    ops = workloads.BUILDERS[workload](seed)
    setup = time.time() - spawned

    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer().install()
    done, records = {}, []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            value, error = op.call(), None
        except Exception as exc:
            value, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        done[op.name] = value
        records.append({"name": op.name, "seconds": seconds, "error": error})
    wall = sum(r["seconds"] for r in records)
    if tracer is not None:
        tracer.uninstall()

    for op, rec in zip(ops, records):
        if rec["error"] is None:
            try:
                rec["failures"] = op.check(done[op.name], done)
            except Exception:
                rec["failures"] = ["check raised: " + traceback.format_exc()]
        else:
            rec["failures"] = []

    out = {"setup_s": setup, "wall_s": wall, "ops": records}
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer.spans, wall)
        if len(argv) > 4:
            tracer.write(argv[4])
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
