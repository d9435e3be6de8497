"""Spans and counters recorded from outside the program.

The traced run replaces public functions of the package with wrappers
at every binding site (module globals, names imported into other
modules, and class attributes such as ``__rmul__ = __mul__``), records
one span per call, and puts the originals back afterwards. Nothing in
the package is edited.

A span is ``[name, start, end, parent, job]``: ``parent`` is the index
of the enclosing span in the same list, or -1. Self time is the span's
duration minus the part of it covered by its direct children.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter


def resolve(modules: dict, target: str):
    """The object named by ``"module.attr[.attr]"``, e.g. ``completion.ShapedRow.__init__``."""
    mod, _, path = target.partition(".")
    obj = modules[mod]
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def binding_sites(modules: dict, original) -> list:
    """Every (owner, attribute) among the modules and their classes bound to ``original``."""
    sites, seen = [], set()
    owners = []
    for mod in modules.values():
        owners.append(mod)
        owners.extend(v for v in vars(mod).values() if isinstance(v, type))
    for owner in owners:
        for key, value in list(vars(owner).items()):
            if value is original and (id(owner), key) not in seen:
                seen.add((id(owner), key))
                sites.append((owner, key))
    return sites


class Patch:
    """Swap wrappers in at their binding sites; ``restore`` puts the originals back."""

    def __init__(self, modules: dict, wrappers: dict):
        """``wrappers`` maps a target name (see ``resolve``) to ``fn -> wrapper``."""
        self.swaps = []
        for target, make in wrappers.items():
            original = resolve(modules, target)
            wrapper = make(original)
            for owner, key in binding_sites(modules, original):
                self.swaps.append((owner, key, original, wrapper))
        if not self.swaps:
            raise ValueError("no binding sites found")

    def install(self):
        for owner, key, _, wrapper in self.swaps:
            setattr(owner, key, wrapper)

    def restore(self):
        for owner, key, original, _ in self.swaps:
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class Recorder:
    """In-memory span list plus the per-call sizes some spans record."""

    def __init__(self):
        self.spans: list = []
        self.sizes: dict = {}
        self.stack: list = []
        self.job = None

    def wrapper(self, name: str, size=None):
        """``fn -> wrapper`` recording a span named ``name`` per call.

        ``size(args)``, when given, is kept per span in ``self.sizes``.
        """
        spans, stack, sizes = self.spans, self.stack, self.sizes

        def make(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                idx = len(spans)
                span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
                spans.append(span)
                if size is not None:
                    sizes[idx] = size(args)
                stack.append(idx)
                span[1] = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    stack.pop()
            return wrapped
        return make

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def counter(counts: dict, name: str):
    """``fn -> wrapper`` that only counts calls under ``name``."""
    counts.setdefault(name, 0)

    def make(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped
    return make


# ------------------------------------------------------------------ analysis
def self_times(spans: list) -> list:
    """Per span: duration minus the union of its direct children's intervals."""
    children: dict = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class Analysis:
    """Busy time, self time and call counts over one span list.

    Parents precede their children in the list, so the set of ancestor
    names of every span is built in one pass.
    """

    def __init__(self, spans: list):
        self.spans = spans
        self.self_time = self_times(spans)
        interned: dict = {}
        self.ancestors = []
        for span in spans:
            parent = span[3]
            if parent < 0:
                names = frozenset()
            else:
                key = (self.ancestors[parent], spans[parent][0])
                names = interned.get(key)
                if names is None:
                    names = interned[key] = key[0] | {key[1]}
            self.ancestors.append(names)

    def busy(self, *names) -> float:
        """Time inside spans named in ``names``, nested ones counted once."""
        wanted = set(names)
        return sum(s[2] - s[1] for s, anc in zip(self.spans, self.ancestors)
                   if s[0] in wanted and not anc & wanted)

    def self_sum(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_time) if s[0] == name)

    def calls(self, name: str, under: str | None = None) -> int:
        """Spans named ``name``; only those inside an ``under`` span if given."""
        return sum(1 for s, anc in zip(self.spans, self.ancestors)
                   if s[0] == name and (under is None or under in anc))
