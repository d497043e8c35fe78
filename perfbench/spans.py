"""Span recorder for the traced run.

Wraps library functions and methods from outside the package: a function is
replaced in every ``dancegen`` or ``perfbench`` module namespace that holds
it (``decoder_apply`` lives in ``tokenizer`` and is imported into
``generator``), a method is replaced on its class.  Each call records one
span ``[name, start, end, parent, request, outer]`` in memory; ``outer`` is
False when the same name is already open further up the stack, so busy time
never counts a recursive call twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

NAMESPACES = ("dancegen", "perfbench")


def _resolve(module: str, qualname: str):
    owner = importlib.import_module(module)
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self.request: str = ""
        self._open: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, open_, depth = self.spans, self._open, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.request,
                    depth[name] == 0]
            open_.append(len(spans))
            spans.append(span)
            depth[name] += 1
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                depth[name] -= 1
                open_.pop()

        return traced

    def install(self, layers) -> None:
        """Wrap each (name, module, qualname) target until uninstall()."""
        for name, module, qualname in layers:
            owner, attr = _resolve(module, qualname)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.split(".")[0] not in NAMESPACES:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def stats(self, keep) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s per name over the spans whose request
        satisfies keep(request).  Self time is a span's duration minus the
        time its child spans cover; calls are single-threaded, so children
        never overlap."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _req, _outer in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _parent, req, outer) in enumerate(self.spans):
            if not keep(req):
                continue
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            if outer:
                row["busy_s"] += end - start
            row["self_s"] += end - start - covered[i]
        return out

    def write(self, path: Path) -> None:
        """One JSON object per span: name, start, end (seconds), parent index
        (-1 at the top), request id."""
        with open(path, "w") as f:
            for name, start, end, parent, req, _outer in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "request": req}) + "\n")
