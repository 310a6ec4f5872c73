"""Outside-in layer tracing for the eqloc benchmark.

The tracer wraps public functions and methods of the library from here, in
the benchmark's own files; nothing inside ``src/`` knows about it.  A timed
target records one span per call (name, start, end, parent) in memory; a
counted target only counts calls, because some functions (the word algebra)
run about a million times per workload and a span each would swamp them.

A function imported by name into several modules (``from .simplicial import
enumerate_maps``) is one object bound under several module globals, so every
binding that *is* the original is replaced, and restored by ``uninstall``.
Functions captured elsewhere (closures, default arguments) are not reached.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


class Target:
    """One wrapped function: where it lives and what to record."""

    def __init__(self, name, module, attr, timed=True, repeat=False,
                 post=None, counters=()):
        self.name = name          # metric prefix, e.g. "cat.cotensor"
        self.module = module      # module path, e.g. "eqloc.cat"
        self.attr = attr          # "cotensor" or "SimplicialMap.then"
        self.timed = timed        # span per call, or call count only
        self.repeat = repeat      # track returned-object identity
        self.post = post          # post(tracer, span, args, result, new)
        self.counters = counters  # names the post hook adds to


class Tracer:
    """Wraps targets, records spans and counts, and restores on uninstall."""

    def __init__(self, targets, module_prefix="eqloc", clock=time.perf_counter):
        self.targets = list(targets)
        self.module_prefix = module_prefix
        self.clock = clock
        self.names = [t.name for t in self.targets]
        self.index = {t.name: i for i, t in enumerate(self.targets)}
        self.spans = []           # [name index, start, end, parent span]
        self.stack = []
        self.counts = [0] * len(self.targets)
        self.repeats = [0] * len(self.targets)
        self.returned = [dict() for _ in self.targets]  # id -> object
        self.extra = [dict.fromkeys(t.counters, 0) for t in self.targets]
        self.span_info = {}       # span index -> payload from a post hook
        self._patched = []        # (owner, key, original)

    # -- installation --------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.module_prefix or
                                      name.startswith(self.module_prefix + "."))]

    def install(self):
        for t in self.targets:
            importlib.import_module(t.module)
        modules = self._modules()
        for idx, t in enumerate(self.targets):
            owner = sys.modules[t.module]
            *path, key = t.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[key]
            wrapper = self._wrap(idx, t, original)
            if path:  # a method: patch the class once
                self._patch(owner, key, original, wrapper)
                continue
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is original:
                        self._patch(m, k, original, wrapper)
        return self

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, idx, t, fn):
        counts = self.counts
        if not t.timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[idx] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack, clock = self.spans, self.stack, self.clock
        post, repeat = t.post, t.repeat

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = len(spans)
            rec = [idx, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(span)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            new = self._note_return(idx, result) if repeat else True
            if post is not None:
                post(self, span, args, result, new)
            return result
        return timed

    def _note_return(self, idx, result):
        """Count a repeat; True when the object is new in this run."""
        seen = self.returned[idx]
        if id(result) in seen:
            self.repeats[idx] += 1
            return False
        # keep the object alive so its id cannot be reused in the run
        seen[id(result)] = result
        return True

    def add(self, name, counter, value):
        extra = self.extra[self.index[name]]
        extra[counter] += value

    # -- analysis ------------------------------------------------------------

    def durations(self):
        """Inclusive and self time of every span."""
        n = len(self.spans)
        total = [0.0] * n
        child = [0.0] * n
        for i, (_, start, end, parent) in enumerate(self.spans):
            total[i] = end - start
            if parent >= 0:
                child[parent] += end - start
        return total, [t - c for t, c in zip(total, child)]

    def outermost(self, i):
        """True when no enclosing span has the same name (no double count)."""
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return False
            parent = self.spans[parent][3]
        return True

    def layer_sums(self):
        """Per target: calls, self_s, total_s (outermost spans), repeat_ratio
        and the counters added by post hooks."""
        total, self_t = self.durations()
        out = {}
        calls = list(self.counts)
        self_s = [0.0] * len(self.targets)
        total_s = [0.0] * len(self.targets)
        for i, rec in enumerate(self.spans):
            idx = rec[0]
            calls[idx] += 1
            self_s[idx] += self_t[i]
            if self.outermost(i):
                total_s[idx] += total[i]
        for idx, t in enumerate(self.targets):
            row = {"calls": calls[idx]}
            if t.timed:
                row["self_s"] = self_s[idx]
                row["total_s"] = total_s[idx]
            if t.repeat:
                row["repeat_ratio"] = (self.repeats[idx] / calls[idx]
                                       if calls[idx] else 0.0)
            row.update(self.extra[idx])
            out[t.name] = row
        return out

    def write_spans(self, path):
        """The recorded spans as JSON: names, then [name, start, end, parent]
        rows with times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[i, round(s - t0, 9), round(e - t0, 9), p]
                for i, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": rows}, fh,
                      separators=(",", ":"))
