"""RPR008 — process-pool worker state discipline.

``ShardedRunner`` ships work to ``ProcessPoolExecutor`` workers as
module-level task functions (picklable by qualified name) operating on a
per-process context installed by the pool initializer
(:mod:`repro.runtime.workers`).  Two things break that contract
statically:

* **Unpicklable task references** — a lambda or nested function handed to
  ``pool.map``/``pool.submit`` cannot be pickled by qualified name and
  fails (or worse, only fails under ``spawn``, which CI may not run).
* **Unsanctioned module-level mutation** — a worker module may only
  mutate the globals its initializer installs (those are re-established
  per process, so their state is a deterministic function of the
  context).  Any *other* module-level write is per-process state that
  fork-inherited workers share but spawn workers do not, making results
  depend on pool internals.

The sanctioned set is derived, not hard-coded: it is the union of the
module-level names the initializer functions write (for
``repro.runtime.workers.init_worker`` that is ``_context``,
``_heartbeat_pid`` and the columnar views ``_colconn``/``_colup``).
Memoization caches pass exactly when the initializer resets them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.devtools.registry import ProjectChecker, register

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.devtools.callgraph import Project
    from repro.devtools.diagnostics import Diagnostic
    from repro.devtools.effects import EffectAnalysis


@register
class WorkerStateChecker(ProjectChecker):
    rule = "RPR008"
    summary = "pool tasks must be picklable; worker globals initializer-owned"

    def check_project(self, project: "Project", effects: "EffectAnalysis",
                      ) -> Iterator["Diagnostic"]:
        initializer_funcs: set[str] = set()
        worker_modules: set[str] = set()
        for module in sorted(project.summaries):
            summary = project.summaries[module]
            for site in summary.pool_sites:
                if site.role != "initializer":
                    continue
                resolved = project.resolve_callable(site.target)
                if resolved is not None and resolved[0] == "function":
                    initializer_funcs.add(resolved[1])
                    func_module = project.resolve_module(resolved[1])
                    if func_module is not None:
                        worker_modules.add(func_module)

        # -- unpicklable or unresolvable task references ----------------------
        for module in sorted(project.summaries):
            summary = project.summaries[module]
            for site in summary.pool_sites:
                if site.role != "task":
                    continue
                target = site.target.rsplit(".", 1)[-1]
                if target == "<lambda>" or target.startswith("<nested:"):
                    yield self.project_diagnostic(
                        summary.path, site.line,
                        "pool task %s cannot be pickled by qualified name; "
                        "move it to module level" % site.target)
                    continue
                resolved = project.resolve_callable(site.target)
                if resolved is not None and resolved[0] == "function":
                    func_module = project.resolve_module(resolved[1])
                    if func_module is not None:
                        worker_modules.add(func_module)

        # -- module-level writes outside the initializer-owned set -----------
        for module in sorted(worker_modules):
            summary = project.summaries.get(module)
            if summary is None:
                continue
            sanctioned: set[str] = set()
            for qualname in initializer_funcs:
                if project.resolve_module(qualname) != module:
                    continue
                function = project.function(qualname)
                if function is not None:
                    sanctioned.update(
                        name for name, _ in function.global_writes)
            for function in summary.functions.values():
                qualname = "%s.%s" % (module, function.name)
                if qualname in initializer_funcs:
                    continue
                for name, line in function.global_writes:
                    if name in sanctioned:
                        continue
                    yield self.project_diagnostic(
                        summary.path, line,
                        "worker module function %s mutates module-level "
                        "'%s', which the pool initializer does not install; "
                        "per-process state outside the initializer-owned "
                        "set (%s) makes jobs=N results depend on pool "
                        "internals" % (qualname, name,
                                       ", ".join(sorted(sanctioned)) or
                                       "empty"))
