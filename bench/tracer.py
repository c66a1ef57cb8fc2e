"""In-process span tracer that wraps package functions from outside.

`Tracer.install` replaces named functions of the `tkgdiff` modules with
wrappers that record a span per call (name, parent span, start, end) and add
work counts. A function is named `<module>.<attr>[.<attr>]`, such as
`gndiff.p_diff_batch` or `numkit.Tensor.__init__`; a name that does not
resolve is skipped, so the tracer survives functions being removed. A module
function is replaced in every package module that imported it by name.

Spans stay in memory until `write` dumps them; `self_times` aggregates them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from typing import Callable

Hook = Callable[[tuple, dict, object], dict]


def _span_name(target: str) -> str:
    return target.replace(".__init__", ".init")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, parent index or -1, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order (top was {popped})")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def _wrapper(self, name: str, fn, hook: Hook | None):
        counts = self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            counts[calls] += 1
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, modules: dict, targets: dict[str, Hook | None]) -> list[str]:
        """Wrap each resolvable target; returns the names that were wrapped."""
        done = []
        for target, hook in targets.items():
            mod_name, *path = target.split(".")
            owner = modules.get(mod_name)
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            if owner is None or not path:
                continue
            attr = path[-1]
            if isinstance(owner, type):
                raw = owner.__dict__.get(attr)
                if raw is None:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrapper(_span_name(target), raw.__func__, hook))
                else:
                    new = self._wrapper(_span_name(target), raw, hook)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, new)
            else:
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue
                new = self._wrapper(_span_name(target), fn, hook)
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._undo.append((module, key, fn))
                            setattr(module, key, new)
            done.append(target)
        return done

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(parent: tuple[float, float], children: list[tuple[float, float]]) -> float:
    lo, hi = parent
    total, reach = 0.0, lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def subtree(spans: list[list], root: int) -> set[int]:
    """Indices of `root` and all its descendants (parents precede children)."""
    members = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][1] in members:
            members.add(i)
    return members


def self_times(spans: list[list], root: int | None = None) -> dict[str, float]:
    """Per-name sum of span self time: duration minus the union of its
    children's intervals clipped to it. With `root`, only spans in that
    span's subtree (the root included) count."""
    members = subtree(spans, root) if root is not None else set(range(len(spans)))
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i in members:
        parent = spans[i][1]
        if parent in members:
            children[parent].append((spans[i][2], spans[i][3]))
    out: dict[str, float] = defaultdict(float)
    for i in members:
        name, _, start, end = spans[i]
        out[name] += (end - start) - _covered((start, end), children.get(i, []))
    return dict(out)
