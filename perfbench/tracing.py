"""Per-layer tracing from outside the package.

``Tracer.install`` replaces every binding of the traced functions inside the
``gradualmech`` package (module globals, the package root, class attributes)
with wrappers and ``restore`` puts the originals back.  Span wrappers record
``[name, start, end, parent, op]`` in memory; count wrappers on the hot
methods only count calls.  A layer's self time is its spans' duration minus
the time their direct child spans cover.
"""

from __future__ import annotations

import collections
import functools
import gzip
import inspect
import sys
import time

# (module, attribute, span name): functions bound by name in the modules.
FUNCTION_SPANS = (
    ("generators", "ttc_scf", "generators.ttc_scf"),
    ("generators", "build_rda", "generators.build_rda"),
    ("fileformat", "serialize_mechanism", "fileformat.serialize_mechanism"),
    ("fileformat", "parse_mechanism", "fileformat.parse_mechanism"),
    ("gameform", "validate", "gameform.validate"),
    ("gameform", "build_mechanism", "gameform.build_mechanism"),
    ("gameform", "implements", "gameform.implements"),
    ("checkers", "is_ic", "checkers.is_ic"),
    ("checkers", "is_rp", "checkers.is_rp"),
    ("checkers", "is_irp", "checkers.is_irp"),
    ("transforms", "reduce_to_direct", "transforms.reduce_to_direct"),
    ("transforms", "iter_opportunities", "transforms.iter_opportunities"),
    ("transforms", "apply_split", "transforms.apply_split"),
    ("transforms", "apply_coalesce", "transforms.apply_coalesce"),
    ("transforms", "apply_illuminate", "transforms.apply_illuminate"),
    ("transforms", "apply_merge", "transforms.apply_merge"),
    ("transforms", "is_incentive_preserving", "transforms.is_incentive_preserving"),
    ("cli", "main", "cli.main"),
)
# (module, class, method, span name)
METHOD_SPANS = (
    ("gameform", "Mechanism", "__init__", "gameform.Mechanism.init"),
    ("gameform", "Mechanism", "fingerprint", "gameform.fingerprint"),
    ("prefs", "ScfTable", "__init__", "prefs.ScfTable"),
)
# Called millions of times per round: counted, never timed.
METHOD_COUNTS = (
    ("gameform", "Mechanism", "conflict_agents", "gameform.conflict_agents"),
    ("prefs", "TypeModel", "weakly_prefers", "prefs.weakly_prefers"),
)
OP_SPAN = "bench.op"
PACKAGE = "gradualmech"

# The per-layer metrics a traced run reports: (name, unit, better).
PER_LAYER = (
    ("generators.ttc_scf.self_s", "s", "lower"),
    ("generators.ttc_scf.calls", "count", "lower"),
    ("generators.build_rda.self_s", "s", "lower"),
    ("fileformat.serialize_mechanism.self_s", "s", "lower"),
    ("gameform.validate.self_s", "s", "lower"),
    ("gameform.validate.calls", "count", "lower"),
    ("gameform.build_mechanism.self_s", "s", "lower"),
    ("gameform.build_mechanism.calls", "count", "lower"),
    ("gameform.build_mechanism.nodes", "count", "lower"),
    ("gameform.Mechanism.init.self_s", "s", "lower"),
    ("gameform.fingerprint.self_s", "s", "lower"),
    ("checkers.is_ic.self_s", "s", "lower"),
    ("checkers.is_rp.self_s", "s", "lower"),
    ("checkers.is_irp.self_s", "s", "lower"),
    ("gameform.conflict_agents.calls", "count", "lower"),
    ("prefs.weakly_prefers.calls", "count", "lower"),
    ("gameform.implements.self_s", "s", "lower"),
    ("transforms.reduce_to_direct.self_s", "s", "lower"),
    ("transforms.iter_opportunities.self_s", "s", "lower"),
    ("transforms.apply_split.self_s", "s", "lower"),
    ("transforms.apply_coalesce.self_s", "s", "lower"),
    ("transforms.apply_illuminate.self_s", "s", "lower"),
    ("transforms.apply_merge.self_s", "s", "lower"),
    ("transforms.apply_merge.calls", "count", "lower"),
    ("transforms.merge_probe.useful_ratio", "ratio", "higher"),
    ("transforms.is_incentive_preserving.self_s", "s", "lower"),
    ("fileformat.parse_mechanism.self_s", "s", "lower"),
    ("fileformat.parse_mechanism.bytes", "bytes", "lower"),
    ("prefs.ScfTable.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("bench.op.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _count_nodes(counts, args, result):
    counts["gameform.build_mechanism.nodes"] += result.n_nodes()


def _count_bytes(counts, args, result):
    counts["fileformat.parse_mechanism.bytes"] += len(args[0].encode())


def _count_merges(counts, args, result):
    counts["transforms.merge_probe.accepted"] += len(result.merges())


# Counts read off a span's arguments or result, after the span has closed.
AFTER = {
    "gameform.build_mechanism": _count_nodes,
    "fileformat.parse_mechanism": _count_bytes,
    "transforms.reduce_to_direct": _count_merges,
}


class Tracer:
    def __init__(self):
        self.spans = []                   # [name, start, end, parent, op]
        self.counts = collections.Counter()
        self._stack = []
        self._op = -1
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def open_op(self, op_id):
        self._op = op_id
        return self.open(OP_SPAN)

    def _span_wrapper(self, name, fn):
        after = AFTER.get(name)
        counts = self.counts
        if inspect.isgeneratorfunction(fn):
            # Work happens on each resumption, so each one is a span.
            @functools.wraps(fn)
            def resumed(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    rec = self.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(rec)
                    yield item
            return resumed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                after(counts, args, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- bindings ------------------------------------------------------------

    @staticmethod
    def modules():
        return [m for name, m in sorted(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")]

    @staticmethod
    def _module(short):
        return sys.modules[f"{PACKAGE}.{short}"]

    def _rebind(self, original, wrapper):
        """Point every name bound to ``original`` in the package at
        ``wrapper``; return how many names were replaced."""
        found = 0
        for mod in self.modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    found += 1
        return found

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module, attr, name in FUNCTION_SPANS:
            original = getattr(self._module(module), attr)
            if not self._rebind(original, self._span_wrapper(name, original)):
                raise RuntimeError(f"no binding of {module}.{attr} found")
        for specs, make in ((METHOD_SPANS, self._span_wrapper),
                            (METHOD_COUNTS, self._count_wrapper)):
            for module, cls_name, method, name in specs:
                cls = getattr(self._module(module), cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, make(name, original))

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Per span name: (number of spans, total self time in seconds)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = collections.Counter()
        self_s = collections.defaultdict(float)
        for (name, start, end, _, _), cover in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += end - start - cover
        return calls, self_s

    def layer_metrics(self, overhead_ratio):
        """Every PER_LAYER metric, as {name: value}; layers the round never
        reached read 0."""
        calls, self_s = self.self_times()
        values = {}
        for name, _, _ in PER_LAYER:
            layer, _, what = name.rpartition(".")
            if what == "self_s":
                values[name] = self_s.get(layer, 0.0)
            elif what == "calls":
                values[name] = calls.get(layer, 0) + self.counts.get(name, 0)
            else:
                values[name] = self.counts.get(name, 0)
        attempts = calls.get("transforms.apply_merge", 0)
        accepted = self.counts.get("transforms.merge_probe.accepted", 0)
        values["transforms.merge_probe.useful_ratio"] = (
            accepted / attempts if attempts else 0.0)
        values["trace.overhead_ratio"] = overhead_ratio
        return values

    def write(self, path):
        """Spans as tab-separated lines: op, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
