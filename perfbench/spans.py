"""Span tracing of qperm from outside the library.

The tracer replaces a layer's public functions, in every module that looks
them up, by wrappers that record a span around the call: name, start, end,
parent span and operation id.  The chunk streams that the certified engine
pulls from the quantum systems are wrapped as well; each stream is one span
whose busy time is the sum of its pulls (chunk generation runs interleaved
with the consumer, so a stream's busy time is not its end minus its start).
Spans stay in memory and are written out when the round ends.

Self time is a span's busy time minus the busy time of the spans opened or
pulled while it was the innermost open span.  Self times therefore add up
to the busy time of the outermost spans.
"""

import functools
import importlib
import json
import statistics
import sys
import time

clock = time.perf_counter


class Span:
    __slots__ = ("sid", "name", "parent", "op", "start", "end", "busy",
                 "child", "attrs")

    def __init__(self, sid, name, parent, op, start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = start
        self.busy = 0.0
        self.child = 0.0
        self.attrs = {}

    @property
    def self_time(self):
        return self.busy - self.child

    def to_dict(self):
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "op": self.op, "start": self.start, "end": self.end,
                "busy": self.busy, "self": self.self_time,
                "attrs": self.attrs}

    @classmethod
    def from_dict(cls, d):
        s = cls(d["id"], d["name"], d["parent"], d["op"], d["start"])
        s.end, s.busy, s.attrs = d["end"], d["busy"], d["attrs"]
        s.child = d["busy"] - d["self"]
        return s


def _certificate_attrs(span, cert):
    tags = list(cert.tags)
    span.attrs["candidate_hit"] = int("candidates-certified" in tags)
    span.attrs["candidate_fallback"] = int("candidates-fallback" in tags)
    for key in ("lift-primes", "verify-primes"):
        span.attrs[key] = sum(int(t.split("=", 1)[1]) for t in tags
                              if t.startswith(key + "="))


def _nodes_attr(span, result):
    span.attrs["nodes"] = int(result.nodes)


def _samples_attr(span, result):
    span.attrs["samples"] = int(result.samples)


# (defining module, function, modules that look the name up, result hook)
FUNCTIONS = [
    ("_exact", "certified_nullity", ["quantum"], _certificate_attrs),
    ("_exact", "float_nullity", ["quantum"], None),
    ("_exact", "fraction_matrix_inverse", ["partitions"], None),
    ("_exact", "bareiss_det", ["partitions"], None),
    ("quantum", "invariants", ["quantum", "cli"], None),
    ("quantum", "fix_dim_direct", ["quantum"], None),
    ("quantum", "hom_dim_via_g", ["quantum"], None),
    ("quantum", "check_magic", ["quantum", "cli"], None),
    ("partitions", "gram_weingarten", ["partitions", "models", "cli"], None),
    ("partitions", "char_moment", ["partitions", "cli"], None),
    ("partitions", "truncated_char_moment", ["partitions", "cli"], None),
    ("partitions", "free_bessel_even_moment", ["partitions", "cli"], None),
    ("partitions", "gram_det_exact", ["partitions", "cli"], None),
    ("partitions", "gram_det_classical", ["partitions", "cli"], None),
    ("partitions", "gram_det_free", ["partitions", "cli"], None),
    ("hadamard", "butson_enumerate", ["hadamard", "cli"], _nodes_attr),
    ("hadamard", "fingerprint", ["hadamard"], None),
    ("hadamard", "equivalent", ["hadamard", "cli"], None),
    ("models", "model_word_expectation", ["models"], _samples_attr),
    ("models", "pauli_magic", ["models", "cli"], None),
]

# (class in qperm.quantum, stream method); the span is named after the method
STREAMS = [
    ("_FixSystem", "chunks_modp"),
    ("_FixSystem", "chunks_complex"),
    ("_HomSystem", "chunks_modp"),
    ("_HomSystem", "chunks_complex"),
]


class Tracer:
    """Records spans in memory; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, start):
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), name, parent, self.op, start)
        self.spans.append(span)
        return span

    def _charge(self, span, seconds):
        """Add busy time to span and, as child time, to the open span."""
        span.busy += seconds
        if self.stack and self.stack[-1] is not span:
            self.stack[-1].child += seconds

    def record(self, name, start, end, **attrs):
        """A finished span whose start and end the caller measured."""
        span = self._open(name, start)
        span.end = end
        span.attrs.update(attrs)
        self._charge(span, end - start)
        return span

    def call(self, name, fn, args, kwargs, hook=None):
        span = self._open(name, clock())
        self.stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.stack.pop()
            span.end = clock()
            self._charge(span, span.end - span.start)
        if hook is not None:
            hook(span, result)
        return result

    def stream(self, name, make, args):
        """A generator over make(*args) whose pulls are charged to one span."""
        t0 = clock()
        chunks = iter(make(*args))
        span = self._open(name, t0)
        span.end = clock()
        span.attrs.update(chunks=0, rows=0)
        self._charge(span, span.end - t0)
        return self._pull(span, chunks)

    def _pull(self, span, chunks):
        while True:
            t0 = clock()
            chunk = next(chunks, None)  # chunks are arrays, never None
            span.end = clock()
            self._charge(span, span.end - t0)
            if chunk is None:
                return
            span.attrs["chunks"] += 1
            span.attrs["rows"] += len(chunk)
            yield chunk

    def add(self, span_dicts, parent):
        """Graft spans recorded by another process under span `parent`."""
        base = len(self.spans)
        for d in span_dicts:
            s = Span.from_dict(d)
            s.sid = base + d["id"]
            s.op = parent.op
            if d["parent"] is None:
                s.parent = parent.sid
                parent.child += s.busy
            else:
                s.parent = base + d["parent"]
            self.spans.append(s)

    # -- patching ----------------------------------------------------------

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        """Patch every listed function in each module that looks it up.

        qperm.cli is patched only when it is already imported, so that
        tracing a library workload does not import it.
        """
        modules = {m: importlib.import_module("qperm." + m) for m in
                   ("_exact", "quantum", "partitions", "hadamard", "models")}
        if "qperm.cli" in sys.modules:
            modules["cli"] = sys.modules["qperm.cli"]
        for home, fname, users, hook in FUNCTIONS:
            original = getattr(modules[home], fname)
            wrapper = self._wrapper(f"{home}.{fname}", original, hook)
            for user in users:
                if getattr(modules.get(user), fname, None) is original:
                    self._set(modules[user], fname, wrapper)
        for cls_name, meth in STREAMS:
            cls = getattr(modules["quantum"], cls_name)
            self._set(cls, meth, self._stream_wrapper("quantum." + meth,
                                                      getattr(cls, meth)))
        return self

    def _wrapper(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, hook)
        return traced

    def _stream_wrapper(self, name, method):
        tracer = self

        @functools.wraps(method)
        def traced(system, *args):
            return tracer.stream(name, method, (system,) + args)
        return traced

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([s.to_dict() for s in self.spans], fh)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric -> span names whose self times it sums
SELF_TIMES = {
    "exact.certified_s": ["_exact.certified_nullity"],
    "exact.float_nullity_s": ["_exact.float_nullity"],
    "exact.fraction_inverse_s": ["_exact.fraction_matrix_inverse"],
    "exact.bareiss_s": ["_exact.bareiss_det"],
    "quantum.chunkgen_modp_s": ["quantum.chunks_modp"],
    "quantum.chunkgen_complex_s": ["quantum.chunks_complex"],
    "quantum.self_s": ["quantum.invariants", "quantum.fix_dim_direct",
                       "quantum.hom_dim_via_g"],
    "partitions.weingarten_s": ["partitions.gram_weingarten"],
    "partitions.moments_s": ["partitions.char_moment",
                             "partitions.truncated_char_moment",
                             "partitions.free_bessel_even_moment"],
    "partitions.gram_det_s": ["partitions.gram_det_exact",
                              "partitions.gram_det_classical",
                              "partitions.gram_det_free"],
    "hadamard.enumerate_s": ["hadamard.butson_enumerate"],
    "hadamard.fingerprint_s": ["hadamard.fingerprint"],
    "hadamard.equivalent_s": ["hadamard.equivalent"],
    "models.word_expectation_s": ["models.model_word_expectation"],
    "models.magic_check_s": ["models.pauli_magic", "quantum.check_magic"],
}

# metric -> (span name, attribute summed, or None to count the spans)
COUNTS = {
    "exact.certified_calls": ("_exact.certified_nullity", None),
    "exact.streams": ("quantum.chunks_modp", None),
    "exact.rows_streamed": ("quantum.chunks_modp", "rows"),
    "exact.candidate_hits": ("_exact.certified_nullity", "candidate_hit"),
    "exact.candidate_fallbacks": ("_exact.certified_nullity",
                                  "candidate_fallback"),
    "exact.lift_primes": ("_exact.certified_nullity", "lift-primes"),
    "exact.verify_primes": ("_exact.certified_nullity", "verify-primes"),
    "exact.float_rows": ("quantum.chunks_complex", "rows"),
    "quantum.chunks_modp": ("quantum.chunks_modp", "chunks"),
    "quantum.chunks_complex": ("quantum.chunks_complex", "chunks"),
    "hadamard.enum_nodes": ("hadamard.butson_enumerate", "nodes"),
    "hadamard.fingerprint_calls": ("hadamard.fingerprint", None),
    "hadamard.equivalent_calls": ("hadamard.equivalent", None),
    "models.samples": ("models.model_word_expectation", "samples"),
    "cli.invocations": ("cli.invocation", None),
}

CLI_METRICS = ("cli.import_s", "cli.dispatch_s", "cli.overhead_s")
TRACE_METRICS = ("trace.wall_s", "trace.glue_s")

LAYER_METRICS = (tuple(SELF_TIMES) + tuple(COUNTS) + CLI_METRICS
                 + TRACE_METRICS)


def layer_metrics(spans, wall):
    """Per-layer metrics of one traced pass that took `wall` seconds."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {}
    for metric, names in SELF_TIMES.items():
        out[metric] = sum(s.self_time for n in names
                          for s in by_name.get(n, ()))
    for metric, (name, attr) in COUNTS.items():
        group = by_name.get(name, ())
        out[metric] = len(group) if attr is None else \
            sum(s.attrs.get(attr, 0) for s in group)
    invocations = by_name.get("cli.invocation", ())
    out["cli.import_s"] = sum(s.busy for s in by_name.get("cli.import", ()))
    out["cli.dispatch_s"] = sum(s.attrs["dispatch"] for s in invocations)
    out["cli.overhead_s"] = sum(s.busy - s.attrs["dispatch"]
                                for s in invocations)
    out["trace.wall_s"] = wall
    out["trace.glue_s"] = wall - sum(s.busy for s in spans
                                     if s.parent is None)
    return out


def median_metrics(per_round):
    """Median over rounds of each metric."""
    return {m: statistics.median(r[m] for r in per_round)
            for m in per_round[0]}
