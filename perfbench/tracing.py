"""Span recording from outside the program.

``Tracer.install()`` replaces the public entry points the wittid layers
call each other through with wrappers that record one span per call:
name, start, end, parent span and component id.  Every module namespace
that holds a reference to a wrapped function gets the wrapper, so calls
between modules are seen whichever name they go through; methods are
wrapped on their class.  ``uninstall()`` puts the originals back, so an
untraced episode in the same process runs the program unchanged.

Spans are kept in memory as tuples and aggregated per episode by
``layer_metrics``; ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import time

# Span name -> layer that owns its self time.  "bench" is the benchmark's
# own code (the episode root and the normal-form component loop); its
# self time is reported as the unattributed remainder.  The self time of
# identity_subspace is the evaluation loop over basis tuples, which runs
# models code (``_evaluate_monomial``) inline, so it counts for models.
LAYER_OF = {
    "bench.episode": "bench",
    "bench.component": "bench",
    "cli.main": "cli",
    "verify.verify_basis_theorem": "verify",
    "verify.component": "verify",
    "verify.revalidate_entry": "verify",
    "tideal.identity_subspace": "models",
    "tideal.consequence_subspace": "tideal",
    "tideal.consequence_instances.next": "tideal",
    "tideal.subspace_contains": "tideal",
    "linalg.linear_dependencies": "linalg",
    "linalg.insert": "linalg",
    "linalg.contains_vector": "linalg",
    "freealg.coordinates": "freealg",
    "models.evaluate": "models",
    "models.satisfies_multilinear": "models",
    "grammar.parse_polynomial": "grammar",
    "grammar.format_polynomial": "grammar",
}
LAYERS = ("cli", "verify", "tideal", "freealg", "linalg", "models", "grammar")
NAMES = tuple(LAYER_OF)
_ID = {name: i for i, name in enumerate(NAMES)}
_SWEEP = _ID["verify.verify_basis_theorem"]
_COMPONENT = _ID["verify.component"]
_COMPONENTS = (_COMPONENT, _ID["bench.component"])


class Tracer:
    """In-memory span recorder for one process.

    A span is ``(name_id, start, end, parent_index, component_id, value)``;
    ``value`` carries a per-call count (rank growth of an insert, words a
    tree expands to, whether ``next()`` yielded).
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.component = 0
        self._components = 0
        self._open = {}
        self._patches = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        # An open span holds its bare name id until it is closed.
        self.spans.append(_ID[name])
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        self._open[idx] = (time.perf_counter(), parent, self.component)
        return idx

    def close(self, idx: int, value: int = 0) -> None:
        end = time.perf_counter()
        if not self.stack or self.stack[-1] != idx:
            raise RuntimeError("spans closed out of order")
        self.stack.pop()
        start, parent, comp = self._open.pop(idx)
        self.spans[idx] = (self.spans[idx], start, end, parent, comp, value)

    def open_component(self, name: str) -> int:
        self._components += 1
        self.component = self._components
        return self.open(name)

    def close_component(self, idx: int) -> None:
        self.close(idx)
        self.component = 0

    def _top_is(self, name_ids) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]] in name_ids

    def reset(self) -> None:
        if self.stack:
            raise RuntimeError("reset with open spans")
        self.spans = []
        self.component = 0
        self._components = 0

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, value_of=None):
        # open()/close() inlined: this runs once per call of the hottest
        # entry points, so its own cost shows up in trace.overhead_s.
        name_id = _ID[name]
        stack, clock = self.stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            spans.append(name_id)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            value = 0
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    value = value_of(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, tracer.component, value)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_identity(self, fn):
        """identity_subspace is the first layer call of every sweep
        component, so a call made straight from a sweep starts the next
        ``verify.component`` span; that span stays open until the next
        component starts or the sweep returns."""
        inner = self._wrap("tideal.identity_subspace", fn)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._top_is((_SWEEP, _COMPONENT)):
                if tracer._top_is((_COMPONENT,)):
                    tracer.close_component(tracer.stack[-1])
                tracer.open_component("verify.component")
            return inner(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_sweep(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open("verify.verify_basis_theorem")
            try:
                return fn(*args, **kwargs)
            finally:
                if tracer._top_is((_COMPONENT,)):
                    tracer.close_component(tracer.stack[-1])
                tracer.close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_instances(self, fn):
        name_id = _ID["tideal.consequence_instances.next"]
        tracer = self

        def wrapper(*args, **kwargs):
            return _TracedIterator(tracer, name_id, fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the entry points; ``uninstall`` puts the originals back."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import wittid
        from wittid import cli, fields, freealg, grammar, linalg, models, tideal, verify

        modules = (wittid, fields, freealg, grammar, linalg, models, tideal, verify, cli)

        def tree_words(args, result):
            space, x = args[0], args[1]
            if isinstance(x, (freealg.Var, freealg.Pair)):
                return 1 << (space.n - 1)
            return 0

        wrappers = {
            cli.main: self._wrap("cli.main", cli.main),
            verify.verify_basis_theorem: self._wrap_sweep(verify.verify_basis_theorem),
            verify.revalidate_entry: self._wrap("verify.revalidate_entry", verify.revalidate_entry),
            tideal.identity_subspace: self._wrap_identity(tideal.identity_subspace),
            tideal.consequence_subspace: self._wrap(
                "tideal.consequence_subspace", tideal.consequence_subspace
            ),
            tideal.consequence_instances: self._wrap_instances(tideal.consequence_instances),
            tideal.subspace_contains: self._wrap(
                "tideal.subspace_contains", tideal.subspace_contains
            ),
            linalg.linear_dependencies: self._wrap(
                "linalg.linear_dependencies", linalg.linear_dependencies
            ),
            models.evaluate: self._wrap("models.evaluate", models.evaluate),
            models.satisfies_multilinear: self._wrap(
                "models.satisfies_multilinear", models.satisfies_multilinear
            ),
            grammar.parse_polynomial: self._wrap(
                "grammar.parse_polynomial", grammar.parse_polynomial
            ),
            grammar.format_polynomial: self._wrap(
                "grammar.format_polynomial", grammar.format_polynomial
            ),
        }
        for module in modules:
            for attr, obj in list(vars(module).items()):
                for fn, wrapper in wrappers.items():
                    if obj is fn:
                        self._patches.append((module, attr, obj))
                        setattr(module, attr, wrapper)
        methods = (
            (freealg.MultilinearSpace, "coordinates", "freealg.coordinates", tree_words),
            (linalg.SubspaceBasis, "insert", "linalg.insert", lambda a, r: int(r)),
            (linalg.SubspaceBasis, "contains_vector", "linalg.contains_vector", None),
        )
        for cls, attr, name, value_of in methods:
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, value_of))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the recorded spans as gzipped JSON."""
        payload = {
            "fields": ["name", "start", "end", "parent", "component", "value"],
            "names": list(NAMES),
            "spans": self.spans,
        }
        with gzip.open(path, "wt") as handle:
            json.dump(payload, handle, separators=(",", ":"))


class _TracedIterator:
    """Times each ``next()`` on a consequence-instance generator.  A span
    with value 1 delivered an instance; value 0 marks exhaustion, so a
    consequence_subspace span without such a child exited early."""

    __slots__ = ("tracer", "name_id", "inner")

    def __init__(self, tracer, name_id, inner):
        self.tracer, self.name_id, self.inner = tracer, name_id, inner

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        spans, stack = tracer.spans, tracer.stack
        idx = len(spans)
        spans.append(self.name_id)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        value = 0
        try:
            item = next(self.inner)
            value = 1
            return item
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (self.name_id, start, end, parent, tracer.component, value)


def layer_metrics(spans) -> dict:
    """Per-layer numbers of one traced episode.

    Self time is a span's duration minus the durations of its direct
    children; spans nest properly because the program is single-threaded
    in a traced run.  The summed layer self times plus the benchmark's
    own self time (``trace.unattributed_s``) equal the root span.
    """
    n = len(spans)
    child_time = [0.0] * n
    children = [[] for _ in range(n)]
    for i, (name_id, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(i)

    ids = _ID  # local alias for the loop below
    self_by_layer = dict.fromkeys(LAYERS + ("bench",), 0.0)
    total = {name: 0.0 for name in NAMES}
    calls = {name: 0 for name in NAMES}
    models_ids = (ids["models.evaluate"], ids["models.satisfies_multilinear"])
    out = {
        "freealg.words_expanded": 0,
        "tideal.instances": 0,
        "tideal.rank_steps": 0,
        "tideal.early_exits": 0,
        "models.evaluate_s": 0.0,
        "verify.witness_s": 0.0,
        "verify.witnesses": 0,
    }
    cons_id = ids["tideal.consequence_subspace"]
    next_id = ids["tideal.consequence_instances.next"]
    insert_id = ids["linalg.insert"]
    contains_id = ids["tideal.subspace_contains"]
    identity_id = ids["tideal.identity_subspace"]
    coords_id = ids["freealg.coordinates"]
    component_ms = []
    root_wall = 0.0
    for i, (name_id, start, end, parent, _, value) in enumerate(spans):
        dur = end - start
        own = dur - child_time[i]
        name = NAMES[name_id]
        self_by_layer[LAYER_OF[name]] += own
        total[name] += dur
        calls[name] += 1
        if parent < 0:
            root_wall += dur
        parent_id = spans[parent][0] if parent >= 0 else -1
        if name_id == coords_id:
            out["freealg.words_expanded"] += value
        elif name_id == next_id and parent_id == cons_id and value:
            out["tideal.instances"] += 1
        elif name_id == insert_id and parent_id == cons_id and value:
            out["tideal.rank_steps"] += 1
        elif name_id == cons_id:
            if not any(
                spans[c][0] == next_id and not spans[c][5] for c in children[i]
            ):
                out["tideal.early_exits"] += 1
        elif name_id == identity_id:
            out["models.evaluate_s"] += own
        elif name_id in models_ids and parent_id not in models_ids:
            out["models.evaluate_s"] += dur
        elif name_id in _COMPONENTS:
            component_ms.append(dur * 1e3)
            if name_id == _COMPONENT:
                # The witness search is whatever the component still calls
                # after its second containment check returns.
                checks = [c for c in children[i] if spans[c][0] == contains_id]
                if len(checks) >= 2:
                    after = spans[checks[1]][2]
                    if any(spans[c][1] >= after for c in children[i]):
                        out["verify.witness_s"] += end - after
                        out["verify.witnesses"] += 1

    out.update(
        {
            "freealg.coordinates_s": total["freealg.coordinates"],
            "freealg.coordinates_calls": calls["freealg.coordinates"],
            "tideal.enumerate_s": total["tideal.consequence_instances.next"],
            "tideal.identity_s": total["tideal.identity_subspace"],
            "linalg.insert_s": total["linalg.insert"],
            "linalg.inserts": calls["linalg.insert"],
            "linalg.kernel_s": total["linalg.linear_dependencies"],
            "linalg.contains_s": total["linalg.contains_vector"],
            "grammar.parse_s": total["grammar.parse_polynomial"],
            "grammar.format_s": total["grammar.format_polynomial"],
            "grammar.calls": calls["grammar.parse_polynomial"]
            + calls["grammar.format_polynomial"],
            "cli.calls": calls["cli.main"],
            "verify.components": len(component_ms),
            "trace.wall_s": root_wall,
            "trace.unattributed_s": self_by_layer["bench"],
            "trace.spans": n,
        }
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer]
    out["_component_ms"] = component_ms
    return out
