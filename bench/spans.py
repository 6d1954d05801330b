"""Layer tracing for the benchmark's traced run.

The tracer wraps public functions of padicasai from outside the package: each
wrapped call records a span (name, start, end, parent span, job id) in
typed arrays, and a few very hot seams are only counted.
A function is replaced both in its defining module and in every padicasai
module that imported it by name (whitzeta.iwasawa_F, heckemod.plocal_smith,
heckemod.ideal_cert, ...), so calls made through either name are seen.
`Tracer.active` installs the wrappers for one job and restores the originals
afterwards; nothing under src/ is edited.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

# (metric name, module, class or None, attribute names, spanned).  Spanned
# targets record a span per call; the others are only counted: about 1e5
# quadratic products per heavy job, and one call per primitive row class of
# the zeta engine (its only private seam).
TARGETS = [
    ("exactnum.lau_mul", "exactnum", "Lau", ("__mul__", "__rmul__"), True),
    ("exactnum.exact_div", "exactnum", "Lau", ("exact_div",), True),
    ("exactnum.ratfunc_add", "exactnum", "RatFunc", ("__add__", "__radd__"), True),
    ("exactnum.sym_reduce", "exactnum", None, ("sym_reduce",), True),
    ("padicgrp.iwasawa_F", "padicgrp", None, ("iwasawa_F",), True),
    ("padicgrp.pgk_label", "padicgrp", None, ("pgk_label",), True),
    ("padicgrp.gen_cartan_label", "padicgrp", None, ("gen_cartan_label",), True),
    ("padicgrp.plocal_smith", "padicgrp", None, ("plocal_smith",), True),
    ("padicgrp.subgroup_volume", "padicgrp", None, ("subgroup_volume",), True),
    ("whitzeta.zeta", "whitzeta", None, ("zeta_asai", "zeta_rs_split"), True),
    ("whitzeta.godement_section", "whitzeta", None, ("godement_section",), True),
    ("heckealg.ideal_cert", "heckealg", None, ("ideal_cert",), True),
    ("heckealg.satake", "heckealg", None, ("satake",), True),
    ("heckealg.inv_satake", "heckealg", None, ("inv_satake",), True),
    ("heckemod.local_factor", "heckemod", None, ("local_factor",), True),
    ("heckemod.hecke_apply", "heckemod", None, ("hecke_apply",), True),
    ("heckemod.xi_phi_chain", "heckemod", None, ("xi_phi_chain",), True),
    ("gstar.gstar_factor", "gstar", None, ("gstar_factor",), True),
    ("exactnum.quad_mul", "exactnum", "QuadElem", ("__mul__", "__rmul__"), False),
    ("whitzeta.row_classes", "whitzeta", None, ("_y_data_for_row",), False),
]
# Import sites that must be found; a refactor that moves them breaks tracing
# loudly instead of silently missing a layer.
REQUIRED_SITES = [
    ("padicasai.whitzeta", "iwasawa_F"),
    ("padicasai.heckemod", "plocal_smith"),
    ("padicasai.heckemod", "ideal_cert"),
    ("padicasai.heckemod", "zeta_asai"),
    ("padicasai.gstar", "local_factor"),
]

SPAN_NAMES = [t[0] for t in TARGETS if t[4]]
COUNT_NAMES = [t[0] for t in TARGETS if not t[4]]


class Tracer:
    """Spans and counts of the padicasai layers, kept in memory."""

    def __init__(self, observers=None):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counts = {n: [0] for n in COUNT_NAMES}
        self.observers = observers or {}
        self._stack: list[int] = []
        self._job_id = -1
        self._patches = self._plan()

    def _span_wrapper(self, name: str, fn):
        nid = SPAN_NAMES.index(name)
        names, starts, ends, parents, jobs = self.name, self.start, self.end, self.parent, self.job
        stack = self._stack
        clock = time.perf_counter
        observe = self.observers.get(name)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self._job_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name: str, fn):
        cell = self.counts[name]

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every site to patch: a
        method on its class, a function in every padicasai module holding it."""
        mods = {n: m for n, m in sys.modules.items() if n == "padicasai" or n.startswith("padicasai.")}
        plan = []
        for name, mod, cls_name, attrs, spanned in TARGETS:
            owner = mods[f"padicasai.{mod}"]
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            for attr in attrs:
                fn = vars(owner)[attr]
                wrapper = (self._span_wrapper if spanned else self._count_wrapper)(name, fn)
                if cls_name is not None:
                    sites = [(owner, attr)]
                else:
                    sites = [(m, site) for m in mods.values() for site, v in vars(m).items() if v is fn]
                plan += [(site_owner, site, fn, wrapper) for site_owner, site in sites]
        found = {(getattr(owner, "__name__", ""), site) for owner, site, _, _ in plan}
        missing = [s for s in REQUIRED_SITES if s not in found]
        if missing:
            raise RuntimeError(f"trace sites not found: {missing}")
        return plan

    @contextmanager
    def active(self, job_id: int):
        """Install every wrapper for one job, then restore the originals."""
        self._job_id = job_id
        for owner, site, _, wrapper in self._patches:
            setattr(owner, site, wrapper)
        try:
            yield
        finally:
            for owner, site, original, _ in self._patches:
                setattr(owner, site, original)
            self._stack.clear()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """<name>.calls and <name>.self_s per span name, plus the counts.

        Self time is a span's duration minus the durations of its child
        spans (the nearest traced calls made inside it).
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        total_s = [0.0] * len(SPAN_NAMES)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
            total_s[k] += dur[i]
        out: dict[str, tuple[float, str]] = {}
        for k, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = (calls[k], "count")
            out[f"{name}.self_s"] = (self_s[k], "s")
        for name in COUNT_NAMES:
            out[f"{name}.calls"] = (self.counts[name][0], "count")
        zeta_s = total_s[SPAN_NAMES.index("whitzeta.zeta")]
        rows = self.counts["whitzeta.row_classes"][0]
        out["whitzeta.rows_per_s"] = (rows / zeta_s if zeta_s else 0.0, "1/s")
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, job."""
        with open(path, "w") as f:
            f.write("name\tstart\tend\tparent\tjob\n")
            for i in range(len(self.start)):
                f.write(
                    f"{SPAN_NAMES[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.job[i]}\n"
                )
