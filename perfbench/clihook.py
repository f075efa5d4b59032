"""Traced `qperm` invocation, for the traced run of cli-cold.

    python perfbench/clihook.py SPANS_PATH QPERM_ARG...

Times the cold `import qperm.cli` as a span, patches the library as the
tracer does for the other workloads, runs `qperm.cli.run` on the
arguments (it prints the usual envelope) and writes the spans to
SPANS_PATH.  Exits with qperm's exit code.
"""

import sys

import spans


def main(argv):
    path, args = argv[0], argv[1:]
    tracer = spans.Tracer()
    t0 = spans.clock()
    import qperm.cli
    tracer.record("cli.import", t0, spans.clock())
    tracer.install()
    code = tracer.call("cli.run", qperm.cli.run, (args,), {})
    tracer.uninstall()
    sys.stdout.flush()
    tracer.write(path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
