"""Spans and counts at qschub's layer boundaries, recorded from outside.

The tracer replaces the module-level names that callers look up (for
example `qschub.quantum.schur_product`, which `quantum` calls into `lr`
through) with wrappers that record a span per call: its name, start, end
and parent.  A generator gets one span per resumption.  A few very hot
helpers are only counted.  Spans are kept in flat arrays in memory and
written out at the end; `restore` puts every original name back, so an
untraced pass in the same process runs the library unchanged.

A span's self time is its duration minus the time its child spans cover.
A layer's self time is the sum over the spans whose name starts with the
layer's module name.
"""

import builtins
import gzip
import json
import types
from array import array
from collections import Counter
from time import perf_counter_ns

LAYERS = ("partitions", "spaces", "lr", "quantum", "gromov_witten", "counting",
          "plane_curves", "cli")

# (module, attribute, span name): every binding a caller looks the layer up by.
SPANNED = (
    ("lr", "contains", "partitions.contains"),
    ("lr", "lr_coefficient", "lr.lr_coefficient"),
    ("cli", "lr_coefficient", "lr.lr_coefficient"),
    ("lr", "schur_product", "lr.schur_product"),
    ("quantum", "schur_product", "lr.schur_product"),
    ("quantum", "rim_hook_reduce", "quantum.rim_hook_reduce"),
    ("quantum", "quantum_product", "quantum.quantum_product"),
    ("gromov_witten", "quantum_product", "quantum.quantum_product"),
    ("cli", "quantum_product", "quantum.quantum_product"),
    ("gromov_witten", "gw_3point", "gromov_witten.gw_3point"),
    ("cli", "gw_3point", "gromov_witten.gw_3point"),
    ("counting", "gw_spoint", "gromov_witten.gw_spoint"),
    ("cli", "gw_spoint", "gromov_witten.gw_spoint"),
    ("counting", "rational_curve_count", "counting.rational_curve_count"),
    ("cli", "rational_curve_count", "counting.rational_curve_count"),
    ("plane_curves", "kontsevich_nd", "plane_curves.kontsevich_nd"),
    ("gromov_witten", "kontsevich_nd", "plane_curves.kontsevich_nd"),
    ("cli", "kontsevich_nd", "plane_curves.kontsevich_nd"),
    ("cli", "nd_values", "plane_curves.nd_values"),
    ("cli", "render_text", "cli.render"),
)
GENERATORS = (("lr", "partitions_of_weight", "partitions.partitions_of_weight"),)
COUNTED = (
    ("quantum", "remove_rim_hook", "quantum.hooks_removed"),
    ("plane_curves", "comb", "plane_curves.comb_calls"),
)
_ABSENT = object()


class Tracer:
    """Installs the wrappers on the qschub modules in `lib` for one traced
    pass; `restore` removes them."""

    def __init__(self, lib):
        self.lib = lib
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._undo: list[tuple] = []
        self.max_nd = 0

    # -- spans ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def current(self) -> str:
        return self.names[self.name[self.stack[-1]]] if self.stack else ""

    # -- wrappers ------------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, obj.__dict__.get(attr, _ABSENT)))
        setattr(obj, attr, value)

    def _lookup(self, module: str, attr: str):
        obj = getattr(getattr(self.lib, module), attr, None)
        if obj is None:
            self.missing.append(f"{module}.{attr}")
        return obj

    def spanned(self, fn, span: str, on_result=None):
        nid = self._id(span)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[span] += 1
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def spanned_generator(self, fn, span: str, item_counter: str):
        nid = self._id(span)
        counts = self.counts

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                counts[item_counter] += 1
                yield item

        return wrapper

    def counted(self, fn, counter: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        hooks = {
            "lr.lr_coefficient": self._on_lr_coefficient,
            "quantum.rim_hook_reduce": self._on_reduce,
            "plane_curves.kontsevich_nd": self._on_nd,
        }
        for module, attr, span in SPANNED:
            fn = self._lookup(module, attr)
            if fn is None:
                continue
            if span == "partitions.contains":
                wrapped = self._contains(fn)
            else:
                wrapped = self.spanned(fn, span, hooks.get(span))
            self._set(getattr(self.lib, module), attr, wrapped)
        for module, attr, span in GENERATORS:
            fn = self._lookup(module, attr)
            if fn is not None:
                self._set(getattr(self.lib, module), attr,
                          self.spanned_generator(fn, span, "partitions.shapes"))
        for module, attr, counter in COUNTED:
            fn = self._lookup(module, attr)
            if fn is not None:
                self._set(getattr(self.lib, module), attr, self.counted(fn, counter))
        self._install_quantum_mul()
        self._install_cli()

    def _contains(self, fn):
        """contains() is spanned; the calls made directly under an LR
        expansion are the filter on the shapes partitions_of_weight yields."""
        wrapped = self.spanned(fn, "partitions.contains")
        counts = self.counts

        def wrapper(outer, inner):
            under_expansion = self.current() == "lr.schur_product"
            result = wrapped(outer, inner)
            if under_expansion:
                counts["partitions.filtered"] += 1
                counts["partitions.filter_passed"] += bool(result)
            return result

        return wrapper

    def _on_lr_coefficient(self, value) -> None:
        self.counts["lr.nonzero"] += bool(value)

    def _on_reduce(self, outcome) -> None:
        self.counts["quantum.terms_killed"] += outcome is None

    def _on_nd(self, value) -> None:
        self.max_nd = max(self.max_nd, abs(value))

    def _install_quantum_mul(self) -> None:
        cls = getattr(self.lib.quantum, "QuantumClass", None)
        if cls is None:
            self.missing.append("quantum.QuantumClass")
            return
        for attr in ("__mul__", "__rmul__"):
            if attr in cls.__dict__:
                self._set(cls, attr, self.spanned(cls.__dict__[attr], "quantum.mul"))

    def _install_cli(self) -> None:
        cli = self.lib.cli
        build = self._lookup("cli", "build_parser")
        if build is not None:
            parse = self.spanned(build, "cli.parse")
            spanned = self.spanned

            def build_parser(*args, **kwargs):
                parser = parse(*args, **kwargs)
                parser.parse_args = spanned(parser.parse_args, "cli.parse")
                return parser

            self._set(cli, "build_parser", build_parser)
        handlers = getattr(cli, "_HANDLERS", None)
        if handlers is None:
            self.missing.append("cli._HANDLERS")
        else:
            saved = dict(handlers)
            handlers.update({k: self.spanned(v, "cli.handler") for k, v in saved.items()})
            self._undo.append((handlers, None, saved))
        if getattr(cli, "json", None) is not None:
            proxy = types.SimpleNamespace(**vars(cli.json))
            proxy.dumps = self.spanned(cli.json.dumps, "cli.render")
            self._set(cli, "json", proxy)
        self._set(cli, "print", self.spanned(builtins.print, "cli.render"))

    def restore(self) -> None:
        for obj, attr, original in reversed(self._undo):
            if attr is None:
                obj.clear()
                obj.update(original)
            elif original is _ABSENT:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------

    def self_times(self) -> Counter:
        """Self time in seconds per span name."""
        covered = [0] * len(self.name)
        for i in range(len(self.name)):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += self.end[i] - self.start[i]
        out: Counter = Counter()
        for i in range(len(self.name)):
            out[self.names[self.name[i]]] += (self.end[i] - self.start[i] - covered[i]) / 1e9
        return out

    def write(self, path) -> None:
        """Spans as gzip JSON: the name table, then one
        [name, parent, start_ns, end_ns] row per span (times from the first
        span's start)."""
        origin = self.start[0] if len(self.start) else 0
        rows = [[self.name[i], self.parent[i], self.start[i] - origin, self.end[i] - origin]
                for i in range(len(self.name))]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": rows}, fh, separators=(",", ":"))
