"""Span tracer that wraps minmax_hj's functions from outside the package.

A function is replaced at every module binding that holds it, because a
caller that did ``from .solver import solve_discounted`` looks the name
up in its own module: one wrapper then sees every call, whichever module
makes it. Methods are replaced on their class. ``restore()`` puts every
original binding back, so untraced runs execute the unmodified package.

Spans are kept in memory in flat arrays, one entry per call, in the
order the calls started (so a parent always precedes its children):
name, parent index, start, end, a size (grid nodes for array-valued
calls), and whether no enclosing span has the same name (busy time
counts only those, so recursion is not counted twice).
"""

import statistics
import time
from array import array

# Span kinds that own the lf_update / solve_banded calls made inside them.
_OWNERS = ("solver.solve_discounted", "solver.solve_time_dependent",
           "solver.solve_homogenized")
_HARNESS_RUNS = ("harness.run_check", "harness.run_effective",
                 "harness.run_sweep_eps")


def _nodes_of_field(args):
    return args[1].size          # lf_update(h_bound, v, grid, theta)


def _nodes_of_diffs(args):
    return args[0][0].size       # h_eval(dv) with dv a tuple of arrays


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.size = array("q")
        self.outer = array("b")
        self._stack = [-1]
        self._depth = []
        self._undo = []

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, name, fn, size_of=None, post=None):
        """Return fn wrapped so that each call records one span."""
        nid = self._nid(name)
        clock = time.perf_counter
        stack, depth = self._stack, self._depth
        name_id, parent, t0, t1 = self.name_id, self.parent, self.t0, self.t1
        size, outer = self.size, self.outer

        def traced(*args, **kwargs):
            i = len(t0)
            name_id.append(nid)
            parent.append(stack[-1])
            size.append(size_of(args) if size_of else 0)
            d = depth[nid]
            outer.append(d == 0)
            depth[nid] = d + 1
            t1.append(0.0)
            stack.append(i)
            t0.append(clock())
            try:
                out = fn(*args, **kwargs)
                return post(out) if post else out
            finally:
                t1[i] = clock()
                stack.pop()
                depth[nid] = d

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_function(self, modules, fn, name, size_of=None):
        """Replace fn at every binding of it in the given modules."""
        traced = self.wrap(name, fn, size_of)
        for mod in modules:
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                self._set(mod, attr, traced)

    def patch_method(self, cls, attr, name, post=None):
        orig = vars(cls)[attr]
        if isinstance(orig, classmethod):
            self._set(cls, attr,
                      classmethod(self.wrap(name, orig.__func__, post=post)))
        else:
            self._set(cls, attr, self.wrap(name, orig, post=post))

    def restore(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def install(self, pkg):
        """Wrap the layers of the minmax_hj package ``pkg`` (its
        submodules as attributes)."""
        mods = [pkg.cli, pkg.config, pkg.media, pkg.profiles, pkg.family,
                pkg.pairs, pkg.solver, pkg.effective, pkg.harness]
        h, s, e, p = pkg.harness, pkg.solver, pkg.effective, pkg.pairs
        functions = [
            (h.run_check, "harness.run_check"),
            (h.run_effective, "harness.run_effective"),
            (h.run_sweep_eps, "harness.run_sweep_eps"),
            (h.analyze_hypotheses, "harness.analyze_hypotheses"),
            (h.build_curves, "harness.build_curves"),
            (pkg.media.sample_realization, "media.sample_realization"),
            (pkg.family.validate_ordering, "family.validate_ordering"),
            (p.contact_fields, "pairs.contact_fields"),
            (p.analyze_pair, "pairs.analyze_pair"),
            (p.check_condition_e, "pairs.check_condition_e"),
            (p.check_monotonicity, "pairs.check_monotonicity"),
            (s.solve_discounted, "solver.solve_discounted"),
            (s.solve_banded, "solver.solve_banded"),
            (s.solve_time_dependent, "solver.solve_time_dependent"),
            (s.solve_homogenized, "solver.solve_homogenized"),
            (s.prolong_periodic, "solver.prolong_periodic"),
            (e.estimate_effective, "effective.estimate_effective"),
            (e.piece_effective_curve, "effective.piece_effective_curve"),
            (e.theorem_formula, "effective.theorem_formula"),
            (e.fit_schedule_data, "effective.fit_schedule_data"),
        ]
        for fn, name in functions:
            self.patch_function(mods, fn, name)
        self.patch_function(mods, s.lf_update, "solver.lf_update",
                            _nodes_of_field)
        self.patch_method(pkg.config.ExperimentConfig, "from_yaml",
                          "config.load")
        self.patch_method(pkg.media.MediumRealization, "evaluate_channel",
                          "media.evaluate_channel")
        for cls in vars(pkg.profiles).values():
            if isinstance(cls, type) and "branch_inverses" in vars(cls):
                self.patch_method(cls, "branch_inverses",
                                  "profiles.branch_inverses")
        self.patch_method(
            pkg.family.LevelHamiltonian, "bind_base", "family.bind_base",
            post=lambda run: self.wrap("family.h_eval", run, _nodes_of_diffs))

    def summary(self, passes):
        """Per-layer metrics per pass over a workload's commands."""
        n = len(self.t0)
        names, nid = self.names, self.name_id
        calls = [0] * len(names)
        busy = [0.0] * len(names)
        nodes = [0] * len(names)
        child = [0.0] * n
        owner = [-1] * n
        owner_ids = {self._ids.get(k, -2) for k in _OWNERS}
        durs = {k: [] for k in ("solver.solve_discounted",
                                "effective.estimate_effective")}
        lf_id = self._ids.get("solver.lf_update", -2)
        bs_id = self._ids.get("solver.solve_banded", -2)
        lf_in, bs_in = {}, {}
        for i in range(n):
            k = nid[i]
            d = self.t1[i] - self.t0[i]
            calls[k] += 1
            nodes[k] += self.size[i]
            if self.outer[i]:
                busy[k] += d
            par = self.parent[i]
            if par >= 0:
                child[par] += d
            if k in owner_ids:
                owner[i] = i
            elif par >= 0:
                owner[i] = owner[par]
            if owner[i] >= 0 and k in (lf_id, bs_id):
                tally = lf_in if k == lf_id else bs_in
                tally[owner[i]] = tally.get(owner[i], 0) + 1
            if names[k] in durs:
                durs[names[k]].append(d)

        by = dict(zip(names, zip(calls, busy, nodes)))

        def c(name):
            return by.get(name, (0, 0.0, 0))[0]

        def b(name):
            return by.get(name, (0, 0.0, 0))[1]

        def self_time(kinds):
            ids = {self._ids[k] for k in kinds if k in self._ids}
            return sum(self.t1[i] - self.t0[i] - child[i]
                       for i in range(n) if nid[i] in ids)

        def in_spans(kind, tally):
            ids = {i for i in range(n) if names[nid[i]] in kind}
            return ids, sum(tally.get(i, 0) for i in ids)

        solves, lf_solve = in_spans(("solver.solve_discounted",), lf_in)
        relaxed = sum(1 for j in solves
                      if lf_in.get(j, 0) > 1 + 11 * bs_in.get(j, 0))
        _, march = in_spans(("solver.solve_time_dependent",
                             "solver.solve_homogenized"), lf_in)
        lf_nodes = by.get("solver.lf_update", (0, 0.0, 0))[2]
        lf_s = b("solver.lf_update")
        est = durs["effective.estimate_effective"]
        sd = durs["solver.solve_discounted"]

        per_pass = {
            "config.load.calls": ("count", c("config.load")),
            "config.load.s": ("s", b("config.load")),
            "media.sample_realization.calls":
                ("count", c("media.sample_realization")),
            "media.sample_realization.s": ("s", b("media.sample_realization")),
            "media.evaluate_channel.calls":
                ("count", c("media.evaluate_channel")),
            "media.evaluate_channel.s": ("s", b("media.evaluate_channel")),
            "profiles.branch_inverses.calls":
                ("count", c("profiles.branch_inverses")),
            "profiles.branch_inverses.s": ("s", b("profiles.branch_inverses")),
            "family.validate_ordering.s": ("s", b("family.validate_ordering")),
            "family.bind_base.calls": ("count", c("family.bind_base")),
            "family.h_eval.calls": ("count", c("family.h_eval")),
            "family.h_eval.s": ("s", b("family.h_eval")),
            "family.h_eval.nodes":
                ("count", by.get("family.h_eval", (0, 0.0, 0))[2]),
            "pairs.contact_fields.s": ("s", b("pairs.contact_fields")),
            "pairs.analyze_pair.calls": ("count", c("pairs.analyze_pair")),
            "pairs.analyze_pair.s": ("s", b("pairs.analyze_pair")),
            "pairs.check_condition_e.s": ("s", b("pairs.check_condition_e")),
            "pairs.check_monotonicity.s": ("s", b("pairs.check_monotonicity")),
            "solver.solve_discounted.calls":
                ("count", c("solver.solve_discounted")),
            "solver.solve_discounted.s": ("s", b("solver.solve_discounted")),
            "solver.newton_steps": ("count", c("solver.solve_banded")),
            "solver.solve_banded.s": ("s", b("solver.solve_banded")),
            "solver.lf_update.calls": ("count", c("solver.lf_update")),
            "solver.lf_update.s": ("s", lf_s),
            "solver.relaxed_solves": ("count", relaxed),
            "solver.solve_time_dependent.calls":
                ("count", c("solver.solve_time_dependent")),
            "solver.solve_time_dependent.s":
                ("s", b("solver.solve_time_dependent")),
            "solver.solve_homogenized.s": ("s", b("solver.solve_homogenized")),
            "solver.march_steps": ("count", march),
            "solver.prolong_periodic.calls":
                ("count", c("solver.prolong_periodic")),
            "effective.estimate_effective.calls":
                ("count", c("effective.estimate_effective")),
            "effective.piece_effective_curve.s":
                ("s", b("effective.piece_effective_curve")),
            "effective.theorem_formula.s": ("s", b("effective.theorem_formula")),
            "effective.fit_schedule_data.s":
                ("s", b("effective.fit_schedule_data")),
            "harness.analyze_hypotheses.s":
                ("s", b("harness.analyze_hypotheses")),
            "harness.build_curves.s": ("s", b("harness.build_curves")),
            "harness.self_s": ("s", self_time(_HARNESS_RUNS)),
            "cli.self_s": ("s", self_time(("cli",))),
        }
        out = {k: {"value": v / passes, "unit": u}
               for k, (u, v) in per_pass.items()}
        # ratios and extremes are not per pass
        out["solver.solve_discounted.s_max"] = {
            "value": max(sd, default=0.0), "unit": "s"}
        out["solver.lf_per_solve"] = {
            "value": lf_solve / len(solves) if solves else 0.0,
            "unit": "count"}
        out["solver.lf_update.nodes_per_s"] = {
            "value": lf_nodes / lf_s if lf_s > 0 else 0.0, "unit": "1/s"}
        out["effective.estimate_effective.s_p50"] = {
            "value": statistics.median(est) if est else 0.0, "unit": "s"}
        out["effective.estimate_effective.s_max"] = {
            "value": max(est, default=0.0), "unit": "s"}
        out["trace.spans"] = {"value": n / passes, "unit": "count"}
        return out
