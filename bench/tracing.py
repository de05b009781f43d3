"""Spans around the calls between meshtv modules, recorded from outside.

Each hook replaces one attribute where the *calling* module looks it up (for
example ``meshtv.admm.gradient.apply`` is ``meshtv.gradient.apply``, which
admm reaches through its ``gradient`` module reference) with a wrapper that
records a span: name, start, end and the index of the enclosing span.  The
original attributes are restored when the ``Tracer`` context exits.  A target
that no longer exists is listed in ``Tracer.missing`` and skipped, so the
benchmark keeps working while the package is refactored.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (span name, module, attribute path).  Several call sites may share a name.
HOOKS = (
    ("synthetic.mesh", "meshtv.synthetic", "icosphere"),
    ("synthetic.mesh", "meshtv.synthetic", "planar_grid"),
    ("mesh.load", "meshtv.mesh", "load_mesh"),
    ("mesh.load", "meshtv.experiment", "load_mesh"),
    ("imaging.read", "meshtv.imaging", "read_image"),
    ("imaging.read", "meshtv.experiment", "read_image"),
    ("imaging.noise", "meshtv.experiment", "add_salt_pepper"),
    ("imaging.write", "meshtv.experiment", "write_ply_with_image"),
    ("gradient.build", "meshtv.gradient", "build_gradient_operator"),
    ("gradient.build", "meshtv.experiment", "build_gradient_operator"),
    ("cli.main", "meshtv.cli", "main"),
    ("experiment.run", "meshtv.cli", "run_experiment"),
    ("lptv.plm_solve", "meshtv.lptv", "plm_solve"),
    ("lptv.plm_solve", "meshtv.experiment", "plm_solve"),
    ("gradient.gram", "meshtv.lptv", "assemble_gram"),
    ("admm.factorize", "meshtv.admm", "NormalEquationSystem.__init__"),
    ("admm.subproblem", "meshtv.lptv", "admm_solve"),
    ("admm.subproblem", "meshtv.lptv", "_l1tv_solve_full"),
    ("lptv.objective", "meshtv.lptv", "_objective_raw"),
    ("lptv.support", "meshtv.lptv", "support_eps"),
    ("lptv.support", "meshtv.lptv", "weights"),
    ("admm.shrink", "meshtv.admm", "shrink_1d"),
    ("admm.shrink", "meshtv.admm", "_shrink_groups"),
    ("admm.solve", "meshtv.admm", "solve_normal_equation"),
    ("gradient.apply", "meshtv.gradient", "apply"),
    ("gradient.adjoint", "meshtv.gradient", "apply_adjoint"),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value) of a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Patches:
    """Attribute replacements that are undone in reverse order on exit."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, module_name: str, path: str, make_wrapper) -> bool:
        target = f"{module_name}.{path}"
        try:
            owner, attr, original = _resolve(module_name, path)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return False
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Records spans at every hook in ``HOOKS`` while it is entered.

    ``observers`` maps a span name to ``fn(args, result)``, called after the
    wrapped call returns, for facts that are not times (for example which
    linear-solver path a new system took).
    """

    observers: dict = field(default_factory=dict)
    # [name, start, end, parent index]; end is None while the span is open
    spans: list = field(default_factory=list)
    missing: list = field(default_factory=list)

    def __post_init__(self):
        self._stack: list[int] = []
        self._patches = Patches()

    def _wrapper(self, name: str, original):
        observe = self.observers.get(name)
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def __enter__(self):
        for name, module_name, path in HOOKS:
            self._patches.wrap(module_name, path,
                               functools.partial(self._wrapper, name))
        self.missing = list(self._patches.missing)
        return self

    def __exit__(self, *exc):
        return self._patches.__exit__(*exc)

    def stats(self) -> dict[str, SpanStats]:
        """Calls, total and self time per span name.

        Self time is a span's duration minus the durations of its direct
        children.  No hooked target reaches another hook of the same name, so
        totals do not double count.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, SpanStats] = defaultdict(SpanStats)
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry.calls += 1
            entry.total_s += end - start
            entry.self_s += (end - start) - child_s[i]
        return out

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            origin = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - origin:.9f},"
                         f"{end - origin:.9f}\n")
