"""Layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions of each module, on the
name each caller actually looks up, with wrappers that record one span
(name, start, end, parent) per call; ``uninstall`` puts every original
back and checks that it did.  Spans are kept in flat arrays in memory,
analysed with numpy when the run ends, and written out then.  Nothing under
``src/`` is modified: the wrappers live only in this file.

Self time of a span is its duration minus the time its direct children
cover; calls are strictly nested (one thread), so that is the time the
layer spent in its own code.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

#: Span names, grouped by layer.  A name's index is its id in the arrays.
SPAN_NAMES = (
    "request",
    "cli.main",
    "grammar.parse",
    "grammar.eval",
    "oracle.eval",
    "oracle.perspective",
    "oracle.fd_gradient",
    "transform.search",
    "transform.search_cert",
    "transform.search_nested",
    "transform.check_radial",
    "transform.residual",
    "calculus.gauge",
    "calculus.dual_gradient",
    "calculus.rule_build",
    "calculus.rule",
    "optimize.solve",
    "core.gamma_point",
    "sets.parse",
    "sets.transform",
    "sets.membership",
)
ID = {name: i for i, name in enumerate(SPAN_NAMES)}
SEARCHES = (ID["transform.search"], ID["transform.search_cert"], ID["transform.search_nested"])

#: Per-layer metrics with their units, in report order.
LAYER_METRICS = (
    ("grammar.evals", "count"),
    ("grammar.self_s", "s"),
    ("grammar.us_per_eval", "us"),
    ("grammar.parse_s", "s"),
    ("oracle.evals", "count"),
    ("oracle.self_s", "s"),
    ("oracle.perspective_calls", "count"),
    ("oracle.perspective_self_s", "s"),
    ("oracle.fd_gradient_calls", "count"),
    ("transform.searches", "count"),
    ("transform.searches_nested", "count"),
    ("transform.evals_per_search", "count"),
    ("transform.tag_share", "ratio"),
    ("transform.self_s", "s"),
    ("transform.check_radial_s", "s"),
    ("transform.residual_s", "s"),
    ("calculus.gauge_calls", "count"),
    ("calculus.gauge_s", "s"),
    ("calculus.dual_gradient_calls", "count"),
    ("calculus.formula_grad_share", "ratio"),
    ("calculus.rule_s", "s"),
    ("optimize.solves", "count"),
    ("optimize.iterations", "count"),
    ("optimize.searches_per_iteration", "count"),
    ("optimize.self_s", "s"),
    ("optimize.radiality_check_s", "s"),
    ("core.extpos_new", "count"),
    ("core.gamma_point_calls", "count"),
    ("core.gamma_point_s", "s"),
    ("sets.parse_s", "s"),
    ("sets.transform_s", "s"),
    ("sets.membership_calls", "count"),
    ("sets.membership_s", "s"),
    ("cli.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead", "x"),
)

#: Metrics that are exact counts: they must repeat from pass to pass.
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit == "count" and name != "trace.spans") + (
    "transform.tag_share",
    "calculus.formula_grad_share",
)


class Tracer:
    def __init__(self, radial):
        self.radial = radial
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        #: span id -> what the call returned that the metrics need: the tag
        #: flag of a search, (tag, certificate evaluations) of a certified
        #: search, success of a dual gradient, iterations of a solve.
        self.aux: dict[int, object] = {}
        self.extpos_new = 0
        self._originals: list[tuple[object, str, object]] = []
        self._wrappers = self._build()

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        nid = ID[name]
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(sid, args, result)
            return result

        return wrapper

    def mark(self) -> int:
        return len(self.name)

    def truncate(self, mark: int):
        """Drop the spans with ids from mark on."""
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[mark:]
        for sid in [sid for sid in self.aux if sid >= mark]:
            del self.aux[sid]

    # -- the wrapper table -------------------------------------------------

    def _build(self):
        r = self.radial
        DualHandle = r.transform.DualHandle
        FunctionOracle = r.oracle.FunctionOracle
        aux = self.aux
        tracer = self

        def extpos_init(original):
            def wrapper(self, kind, value=0.0):
                tracer.extpos_new += 1
                original(self, kind, value)

            return wrapper

        def traced_callback(name):
            # Time inside the callback of each oracle the factory returns.
            def on_result(sid, args, oracle):
                oracle._eval_fn = self.span(name, oracle._eval_fn)

            return on_result

        def tag(sid, args, value):
            aux[sid] = not value.is_finite

        def cert(sid, args, result):
            value, certificate = result
            aux[sid] = (not value.is_finite, certificate.evaluations)

        def success(sid, args, result):
            aux[sid] = True

        def iterations(sid, args, result):
            aux[sid] = result[0].iterations

        # A handle inherits eval and __call__ from FunctionOracle; evaluating
        # a handle is a nested bracket search, so it gets bindings of its own.
        spans = [
            (r.cli, "main", "cli.main", None),
            (FunctionOracle, "eval", "oracle.eval", None),
            (FunctionOracle, "__call__", "oracle.eval", None),
            (DualHandle, "eval", "transform.search_nested", tag),
            (DualHandle, "__call__", "transform.search_nested", tag),
            (r.cli, "parse_function", "grammar.parse", traced_callback("grammar.eval")),
            (r.transform, "perspective", "oracle.perspective", None),
            (r.calculus, "gradient", "oracle.fd_gradient", None),
            (r.optimize, "gradient", "oracle.fd_gradient", None),
            (DualHandle, "value", "transform.search", tag),
            (DualHandle, "value_with_certificate", "transform.search_cert", cert),
            (r.cli, "check_radial", "transform.check_radial", None),
            (r.optimize, "check_radial", "transform.check_radial", None),
            (r.transform, "duality_residual", "transform.residual", None),
            (r.optimize, "gauge", "calculus.gauge", None),
            (r.optimize, "dual_gradient", "calculus.dual_gradient", success),
            (r.calculus, "rule_kth", "calculus.rule_build", traced_callback("calculus.rule")),
            (r.calculus, "rule_min", "calculus.rule_build", traced_callback("calculus.rule")),
            (r.calculus, "rule_max", "calculus.rule_build", traced_callback("calculus.rule")),
            (r.cli, "solve_via_dual", "optimize.solve", iterations),
            (r.optimize, "solve_via_dual", "optimize.solve", iterations),
            (r.cli, "gamma_point", "core.gamma_point", None),
            (r.sets, "gamma_point", "core.gamma_point", None),
            (r.core, "gamma_point", "core.gamma_point", None),
            (r.cli, "set_from_json", "sets.parse", None),
            (r.sets, "set_from_json", "sets.parse", None),
            (r.cli, "transform_set", "sets.transform", None),
            (r.sets, "membership", "sets.membership", None),
        ]
        table = [(owner, attr, self.span(name, _resolve(owner, attr), hook)) for owner, attr, name, hook in spans]
        table.append((r.core.ExtPos, "__init__", extpos_init(r.core.ExtPos.__dict__["__init__"])))
        return table

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, wrapper in self._wrappers:
            self._originals.append((owner, attr, _own(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        """Put every original back (removing the bindings a class only
        inherited) and verify each attribute is restored."""
        for owner, attr, original in reversed(self._originals):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        broken = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, original in self._originals if _own(owner, attr) is not original]
        self._originals.clear()
        if broken:
            raise RuntimeError(f"attributes not restored after tracing: {', '.join(broken)}")

    # -- analysis ----------------------------------------------------------

    def arrays(self, a: int = 0, b: int | None = None):
        """Copies of the span arrays for ids [a, b), parents renumbered
        from a (-1 for a parent outside the range)."""
        b = self.mark() if b is None else b
        name = np.frombuffer(self.name[a:b], dtype=np.int32)
        parent = np.frombuffer(self.parent[a:b], dtype=np.int32).astype(np.int64) - a
        parent[parent < 0] = -1
        return name, parent, np.frombuffer(self.start[a:b]), np.frombuffer(self.end[a:b])

    def metrics(self, a: int, b: int, extpos_new: int) -> dict:
        """Per-layer metrics of the spans with ids in [a, b)."""
        name, parent, start, end = self.arrays(a, b)
        n = name.shape[0]
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - covered
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def is_(label):
            return name == ID[label]

        def count(label):
            return int(np.count_nonzero(is_(label)))

        def self_s(*labels):
            return float(sum(self_t[is_(label)].sum() for label in labels))

        def outer_s(label):
            # Inclusive time, counting a recursive call (set_from_json on a
            # polyhedron's halfspaces) once.
            mask = is_(label) & (parent_name != ID[label])
            return float(dur[mask].sum())

        searches = np.isin(name, SEARCHES)
        n_search = int(np.count_nonzero(searches))
        persp = is_("oracle.perspective")
        persp_in_search = int(np.count_nonzero(persp & np.isin(parent_name, SEARCHES)))
        ids = np.arange(a, b)
        tags = sum(1 for sid in ids[searches] if _tag(self.aux.get(int(sid))))
        grads = ids[is_("calculus.dual_gradient")]
        grad_ok = sum(1 for sid in grads if self.aux.get(int(sid)) is True)
        solves = ids[is_("optimize.solve")]
        iterations = sum(int(self.aux.get(int(sid), 0)) for sid in solves)
        in_solve = _descends_from(name, parent, ID["optimize.solve"])
        top_searches = np.isin(name, SEARCHES[:2])
        evals = count("grammar.eval")
        grammar_self = self_s("grammar.eval")
        return {
            "grammar.evals": evals,
            "grammar.self_s": grammar_self,
            "grammar.us_per_eval": 1e6 * grammar_self / evals if evals else 0.0,
            "grammar.parse_s": outer_s("grammar.parse"),
            "oracle.evals": count("oracle.eval"),
            "oracle.self_s": self_s("oracle.eval"),
            "oracle.perspective_calls": int(np.count_nonzero(persp)),
            "oracle.perspective_self_s": self_s("oracle.perspective"),
            "oracle.fd_gradient_calls": count("oracle.fd_gradient"),
            "transform.searches": int(np.count_nonzero(top_searches)),
            "transform.searches_nested": count("transform.search_nested"),
            "transform.evals_per_search": persp_in_search / n_search if n_search else 0.0,
            "transform.tag_share": tags / n_search if n_search else 0.0,
            "transform.self_s": self_s("transform.search", "transform.search_cert", "transform.search_nested", "transform.check_radial", "transform.residual"),
            "transform.check_radial_s": outer_s("transform.check_radial"),
            "transform.residual_s": outer_s("transform.residual"),
            "calculus.gauge_calls": count("calculus.gauge"),
            "calculus.gauge_s": outer_s("calculus.gauge"),
            "calculus.dual_gradient_calls": len(grads),
            "calculus.formula_grad_share": grad_ok / len(grads) if len(grads) else 0.0,
            "calculus.rule_s": outer_s("calculus.rule") + outer_s("calculus.rule_build"),
            "optimize.solves": len(solves),
            "optimize.iterations": iterations,
            "optimize.searches_per_iteration": int(np.count_nonzero(top_searches & in_solve)) / iterations if iterations else 0.0,
            "optimize.self_s": self_s("optimize.solve"),
            "optimize.radiality_check_s": float(dur[is_("transform.check_radial") & (parent_name == ID["optimize.solve"])].sum()),
            "core.extpos_new": extpos_new,
            "core.gamma_point_calls": count("core.gamma_point"),
            "core.gamma_point_s": outer_s("core.gamma_point"),
            "sets.parse_s": outer_s("sets.parse"),
            "sets.transform_s": outer_s("sets.transform"),
            "sets.membership_calls": count("sets.membership"),
            "sets.membership_s": outer_s("sets.membership"),
            "cli.self_s": self_s("cli.main"),
            "trace.spans": n,
        }

    def certificate_mismatches(self, a: int, b: int) -> list[str]:
        """Compare each value_with_certificate call's reported evaluation
        count with the base evaluations recorded under it (one perspective
        child, holding one oracle evaluation, per evaluation)."""
        name, parent, _, _ = self.arrays(a, b)
        base = np.isin(name, (ID["oracle.eval"], ID["transform.search_nested"])) & (parent >= 0)
        via_persp = base.copy()
        via_persp[base] = name[parent[base]] == ID["oracle.perspective"]
        grand = parent[parent[via_persp]]
        counted = np.bincount(grand[grand >= 0], minlength=name.shape[0])
        problems = []
        for local in np.flatnonzero(name == ID["transform.search_cert"]):
            record = self.aux.get(int(local) + a)  # absent when the call raised
            if record is None:
                continue
            reported = record[1]
            if int(counted[local]) != reported:
                problems.append(f"certificate reports {reported} evaluations, traced {int(counted[local])}")
        return problems

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(SPAN_NAMES), name=name, parent=parent, start=start, end=end)


#: Marks a class attribute that is inherited, not the class's own.
_ABSENT = object()


def _resolve(owner, attr):
    """What a lookup of attr on owner finds; for a class, the unbound
    function from the first class in its MRO that binds it."""
    if isinstance(owner, type):
        return next(klass.__dict__[attr] for klass in owner.__mro__ if attr in klass.__dict__)
    return getattr(owner, attr)


def _own(owner, attr):
    """The owner's own binding of attr, read from a class's dict so that
    identity checks compare the stored objects; _ABSENT if it inherits it."""
    if isinstance(owner, type):
        return owner.__dict__.get(attr, _ABSENT)
    return getattr(owner, attr)


def _tag(record) -> bool:
    return bool(record[0]) if isinstance(record, tuple) else bool(record)


def _descends_from(name, parent, ancestor_id) -> np.ndarray:
    """Mask of spans with an ancestor named ancestor_id."""
    flag = np.zeros(name.shape[0], dtype=bool)
    cur = parent.copy()
    live = cur >= 0
    while live.any():
        idx = np.flatnonzero(live)
        flag[idx] |= name[cur[idx]] == ancestor_id
        cur[idx] = parent[cur[idx]]
        live = cur >= 0
    return flag
