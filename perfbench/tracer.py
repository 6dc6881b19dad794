"""Spans and counts at the boundaries between wreathbranch modules.

``Tracer.install()`` imports every module of the package and replaces
each package function bound in a module's namespace with a wrapper.
A function is wrapped once per name it is looked up by, so a call from
``branching`` to ``lr_multi`` is recorded as ``branching.lr_multi`` and
a call inside ``lr`` as ``lr.lr_multi``; both count towards the
function's own name ``lr.lr_multi``.  Nothing under ``src/`` changes.

Each wrapped call records a span (site, start, end, parent span,
request id) in memory.  Very hot leaf functions are counted only.
Generator functions are counted only too, because their body runs
interleaved with the caller.  Sized results add their length to the
site's ``items`` count and ``True`` results add one, so ratios such as
lattice words kept over tableaux enumerated come from the same
boundaries as the spans.

Caches are found by scanning the modules for objects with
``cache_info``, so renamed or new caches are picked up without a list.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import time
from array import array
from pathlib import Path

# Leaf functions called millions of times: counted, never spanned.
COUNT_ONLY = frozenset({
    "perms.compose", "perms.inverse", "perms.length", "perms.descents",
    "perms.from_cycles", "perms.identity", "perms.all_perms",
    "tableaux.is_lattice_word", "tableaux.reverse_reading_word",
    "tableaux.skew_fits", "shapes.concat_parts", "shapes.size_composition",
    "shapes.removable_boxes", "shapes.check_partition",
    "shapes.enumerate_partitions", "shapes.specht_dimension",
    "shapes.conjugate", "shapes.is_partition",
    "branching.wreath_specht_dimension", "branching.young_layer",
    "cli._mp_sort_key",
})

PACKAGE = "wreathbranch"
_SIZED = (list, tuple, dict, set, frozenset)


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def package_modules():
    """Every module of the package, imported."""
    pkg = importlib.import_module(PACKAGE)
    return [importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)]


class Tracer:
    def __init__(self):
        self.sites: list[str] = []       # lookup name, e.g. branching.lr_multi
        self.defs: list[str] = []        # defining name, e.g. lr.lr_multi
        self.calls: list[int] = []
        self.items: list[int] = []
        self.caches: dict[str, object] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}
        # span columns, one entry per span, in order of entry
        self.span_site = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_outer = array("b")     # no enclosing span of the same def
        self._stack = [-1]
        self._depth: dict[str, int] = {}
        self._request = [0]

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = package_modules()
        for mod in modules:
            for obj in vars(mod).values():
                if (hasattr(obj, "cache_info")
                        and getattr(obj, "__module__", "").startswith(
                            PACKAGE)):
                    name = f"{_short(obj.__module__)}.{obj.__name__}"
                    if name not in self.caches:
                        self.caches[name] = obj
                        info = obj.cache_info()
                        self._cache_start[name] = (info.hits, info.misses)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                owner = obj.__module__ or ""
                if not owner.startswith(PACKAGE + "."):
                    continue
                site = f"{_short(mod.__name__)}.{attr}"
                define = f"{_short(owner)}.{obj.__name__}"
                generator = inspect.isgeneratorfunction(inspect.unwrap(obj))
                spanned = define not in COUNT_ONLY and not generator
                setattr(mod, attr, self._wrap(obj, site, define, spanned))

    def set_request(self, request: int) -> None:
        self._request[0] = request

    def _wrap(self, fn, site: str, define: str, spanned: bool):
        fid = len(self.sites)
        self.sites.append(site)
        self.defs.append(define)
        self.calls.append(0)
        self.items.append(0)
        calls, items = self.calls, self.items

        if not spanned:
            def counted(*args, **kwargs):
                calls[fid] += 1
                result = fn(*args, **kwargs)
                if result is True:
                    items[fid] += 1
                return result
            counted.__wrapped__ = fn
            return counted

        clock = time.perf_counter_ns
        stack, depth, request = self._stack, self._depth, self._request
        site_col, start_col, end_col = (self.span_site, self.span_start,
                                        self.span_end)
        parent_col, request_col, outer_col = (self.span_parent,
                                              self.span_request,
                                              self.span_outer)
        depth.setdefault(define, 0)

        def spanned_call(*args, **kwargs):
            calls[fid] += 1
            idx = len(site_col)
            level = depth[define]
            site_col.append(fid)
            parent_col.append(stack[-1])
            request_col.append(request[0])
            outer_col.append(level == 0)
            end_col.append(0)
            stack.append(idx)
            depth[define] = level + 1
            start_col.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[idx] = clock()
                depth[define] = level
                stack.pop()
            if isinstance(result, _SIZED):
                items[fid] += len(result)
            elif result is True:
                items[fid] += 1
            return result
        spanned_call.__wrapped__ = fn
        return spanned_call

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-site counts and times, layer totals and cache figures."""
        n = len(self.span_site)
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        self_ns = [0] * len(self.sites)
        total_ns = [0] * len(self.sites)
        spans = [0] * len(self.sites)
        for i in range(n):
            fid = self.span_site[i]
            dur = self.span_end[i] - self.span_start[i]
            spans[fid] += 1
            self_ns[fid] += dur - child[i]
            if self.span_outer[i]:
                total_ns[fid] += dur
        sites = {}
        for fid, site in enumerate(self.sites):
            if self.calls[fid]:
                sites[site] = {"def": self.defs[fid], "calls": self.calls[fid],
                               "items": self.items[fid], "spans": spans[fid],
                               "self_ns": self_ns[fid],
                               "total_ns": total_ns[fid]}
        caches = {}
        for name, obj in self.caches.items():
            info = obj.cache_info()
            hits0, misses0 = self._cache_start[name]
            caches[name] = {"hits": info.hits - hits0,
                            "misses": info.misses - misses0,
                            "size": info.currsize}
        return {"sites": sites, "caches": caches, "spans": n}

    def write(self, path: Path, extra: dict) -> None:
        """Write the spans (one JSON row each) and the summary."""
        path.parent.mkdir(parents=True, exist_ok=True)
        summary = self.summary()
        summary.update(extra)
        with open(path.with_suffix(".spans.jsonl"), "w") as out:
            out.write(json.dumps({"columns": ["site", "start_ns", "end_ns",
                                              "parent", "request"],
                                  "sites": self.sites}) + "\n")
            for row in zip(self.span_site, self.span_start, self.span_end,
                           self.span_parent, self.span_request):
                out.write("%d %d %d %d %d\n" % row)
        path.with_suffix(".summary.json").write_text(json.dumps(summary))
