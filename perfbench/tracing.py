"""Span recording for the traced run, installed from outside the package.

Each traced function is replaced by a wrapper on every ``rectcat`` module
attribute that holds it, because a function imported by name (``catalan``
inside ``decomposition``, ``coprime_catalan`` inside ``comparison``) is looked
up through the importing module, not through the one defining it.  A span
records its name, start, end, parent span, request id and one size counter.
Spans are kept in flat arrays while the run lasts and written out at its end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array


def _len(result) -> int:
    # A function that streams its results returns an iterator; count none then.
    return len(result) if hasattr(result, "__len__") else 0


def _cells(args, result) -> int:
    return sum(int(r) + 1 for r in args[0])


# Traced functions by module, each with the size counter its span records.
TRACED = {
    "cli": {"main": None},
    "diagrams": {
        "count_paths": _cells,
        "count_rect": None,
        "christoffel_diagram": None,
        "enumerate_paths": lambda args, result: _len(result),
        "word_to_diagram": None,
    },
    "formulas": dict.fromkeys(
        ("binomial", "catalan", "fuss_catalan", "coprime_catalan", "prime_rect")
    ),
    "bizley": {
        "bizley_count": None,
        "phi": None,
        "partitions": lambda args, result: _len(result),
    },
    "comparison": dict.fromkeys(
        ("theorem1_count", "theorem2_count", "through_box_split", "rule2_terms")
    ),
    "christoffel": dict.fromkeys(
        ("q_boxes", "delta", "delta_closed_upper", "delta_closed_lower", "special_r")
    ),
    "decomposition": {
        "decompose": None,
        "h_value": None,
        "expr_stats": lambda args, result: result[0],
        "render": lambda args, result: len(result),
    },
}


def replace_everywhere(original, replacement) -> None:
    """Point every rectcat module attribute holding ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name == "rectcat" or name.startswith("rectcat."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


class Tracer:
    """Records spans for calls made while a request is open."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("q")
        self.req = array("q")
        self.name = array("q")
        self.size = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._first = 0
        self.request = -1  # calls outside a request (answer checks) are not recorded

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span_name: str, fn, size=None, named_by_result=False):
        nid = self._intern(span_name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request < 0:
                return fn(*args, **kwargs)
            sid = len(self.start)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.req.append(self.request)
            self.name.append(nid)
            self.size.append(0)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self._stack.pop()
            if size is not None:
                self.size[sid] = size(args, result)
            if named_by_result:  # a verify check is named by the result it returns
                self.name[sid] = self._intern(f"verify.{result.name}")
                self.size[sid] = result.cells
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function and every verify check of the loaded package."""
        for module, functions in TRACED.items():
            mod = sys.modules[f"rectcat.{module}"]
            for fname, size in functions.items():
                fn = getattr(mod, fname)
                replace_everywhere(fn, self.wrap(f"{module}.{fname}", fn, size))
        verify = sys.modules["rectcat.verify"]
        for fname in [n for n in vars(verify) if n.startswith("check_")]:
            fn = getattr(verify, fname)
            replace_everywhere(fn, self.wrap(f"verify.{fname}", fn, named_by_result=True))

    def open_request(self, rid: int) -> None:
        self.request = rid
        self._first = len(self.start)

    def close_request(self) -> int:
        """End the request; return the id of its first (outermost) span, or -1."""
        self.request = -1
        return self._first if self._first < len(self.start) else -1

    def write(self, path) -> int:
        """Write one JSON object per span; return the span count."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "id": i,
                    "parent": self.parent[i],
                    "req": self.req[i],
                    "name": self.names[self.name[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "size": self.size[i],
                }, separators=(",", ":")))
                fh.write("\n")
        return len(self.start)


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def span_totals(spans) -> dict[str, dict]:
    """Per span name: calls, summed self time in seconds, summed size counter.

    Self time is a span's duration minus the durations of its direct child
    spans; calls within one request nest strictly, so the children never
    overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    totals: dict[str, dict] = {}
    for s in spans:
        t = totals.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "size": 0})
        t["calls"] += 1
        t["self_s"] += s["end"] - s["start"] - child[s["id"]]
        t["size"] += s["size"]
    return totals
