"""Wrapper spans around the public functions of each redlime module.

The benchmark times the program from outside: it rebinds functions and
methods of the ``redlime`` modules to timing wrappers, so nothing under
``src/`` changes. Modules import each other's functions by name (for
example ``redlime.cli.rref`` or ``redlime.matrix.span_red_basis``), so every
binding of a function is replaced, not only the one in its defining module.

A span records name, start, end, parent span and op id. A layer's self time
is its span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name). "Class.method" names a method. Span names
# ending in ".init" are constructors; the others are public functions.
SPANS = (
    ("subspace", "span_red_basis", "subspace.span_red_basis"),
    ("subspace", "lime_basis", "subspace.lime_basis"),
    ("subspace", "contains_vector", "subspace.contains_vector"),
    ("subspace", "Vector.__init__", "subspace.Vector.init"),
    ("subspace", "Subspace.__init__", "subspace.Subspace.init"),
    ("subspace", "LimeBasis.__init__", "subspace.LimeBasis.init"),
    ("duality", "complement", "duality.complement"),
    ("matrix", "rref", "matrix.rref"),
    ("matrix", "nullspace", "matrix.nullspace"),
    ("matrix", "row_space", "matrix.row_space"),
    ("matrix", "full_rank_factorization", "matrix.full_rank_factorization"),
    ("matrix", "Matrix.__init__", "matrix.Matrix.init"),
    ("matrix", "Matrix.__matmul__", "matrix.matmul"),
    ("signatures", "signature", "signatures.signature"),
    ("oracle", "enumerate_subspaces", "oracle.enumerate_subspaces"),
    ("matrixfile", "parse_matrix_text", "matrixfile.parse_matrix_text"),
    ("matrixfile", "render_matrix", "matrixfile.render_matrix"),
    ("cli", "run", "cli.run"),
)

# Called millions of times per second of work, so counted, not spanned.
COUNTS = (
    ("fields", "Scalar.__init__", "fields.scalar_new"),
    ("fields", "Scalar.inverse", "fields.inverse"),
)

# Functions that return a generator: each next() is one span.
GENERATORS = {"oracle.enumerate_subspaces"}

_END = object()


def _owner(lib, module, attr):
    """The object holding ``attr`` (a module or a class) and the plain name."""
    owner = getattr(lib, module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def patch_everywhere(lib, module, attr, replacement):
    """Rebind ``module.attr`` to ``replacement`` wherever the package binds
    it; returns a function that undoes the rebinding."""
    owner, name = _owner(lib, module, attr)
    original = getattr(owner, name)
    undo = [(owner, name, original)]
    setattr(owner, name, replacement)
    if isinstance(owner, type):
        return lambda: setattr(owner, name, original)
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "redlime" or modname.startswith("redlime.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, key, value))
                setattr(mod, key, replacement)

    def restore():
        for target, key, value in undo:
            setattr(target, key, value)
    return restore


SPAN_CAP = 50_000  # spans kept in memory for writing out


class Tracer:
    """In-memory spans and counters for one traced phase.

    Wrappers do nothing but call through while no op is running, so checks
    and input generation between ops are never counted. At most
    ``SPAN_CAP`` spans are kept for writing out; self times and counts are
    aggregated over every span.
    """

    def __init__(self):
        self.active = False
        self.op_id = 0
        self.stack: list = []  # [span id, name, start ns, child ns]
        self.self_ns: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self.spans: list = []
        self.dropped = 0
        self._next_id = 0
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        self.stack.append([self._next_id, name, time.perf_counter_ns(), 0])

    def _exit(self):
        end = time.perf_counter_ns()
        span_id, name, start, child = self.stack.pop()
        duration = end - start
        self.self_ns[name] += duration - child
        self.calls[name] += 1
        parent_id = 0
        if self.stack:
            parent = self.stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self.op_id, span_id, parent_id, name, start, end))
        else:
            self.dropped += 1

    def begin_op(self, kind):
        self.op_id += 1
        self.active = True
        self._enter("op." + kind)

    def end_op(self):
        self._exit()
        self.active = False

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, func):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            tracer._enter(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._exit()
        return traced

    def _generator_wrapper(self, name, func):
        tracer = self

        def traced(*args, **kwargs):
            it = func(*args, **kwargs)
            while True:
                spanned = tracer.active
                if spanned:
                    tracer._enter(name)
                try:
                    item = next(it, _END)
                finally:
                    if spanned:
                        tracer._exit()
                if item is _END:
                    return
                yield item
        return traced

    def _count_wrapper(self, name, func):
        counts = self.counts
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return func(*args, **kwargs)
        return counted

    def install(self, lib):
        """Wrap every traced function and method of ``lib``'s modules."""
        for module, attr, name in SPANS:
            owner, plain = _owner(lib, module, attr)
            func = getattr(owner, plain)
            wrap = self._generator_wrapper if name in GENERATORS else self._span_wrapper
            self._undo.append(patch_everywhere(lib, module, attr, wrap(name, func)))
        for module, attr, name in COUNTS:
            owner, plain = _owner(lib, module, attr)
            func = getattr(owner, plain)
            self._undo.append(patch_everywhere(lib, module, attr, self._count_wrapper(name, func)))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- output --------------------------------------------------------------

    def write(self, path):
        """Write the kept spans as JSON lines, then one summary line."""
        with open(path, "w", encoding="utf-8") as fh:
            for op_id, span_id, parent_id, name, start, end in self.spans:
                fh.write(json.dumps({"op": op_id, "id": span_id, "parent": parent_id,
                                     "name": name, "start_ns": start, "end_ns": end}) + "\n")
            fh.write(json.dumps({"kept": len(self.spans), "dropped": self.dropped}) + "\n")
