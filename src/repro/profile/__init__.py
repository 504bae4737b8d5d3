"""Kernel-level profiling, resource accounting, and diffable run manifests.

The package the raw-speed refactor will be judged by: it answers *which
kernel, at which batch shape, with how many FFTs* the gateway spends its
time on, what that costs in CPU vs wall and allocations, and whether a
given change made any of it worse.

Four cooperating pieces:

* :mod:`repro.profile.profiler` -- the :class:`KernelProfiler`.  Core
  DSP kernels declare themselves with
  ``observe.kernel("engine.gram_solve", shape=...)`` through the ambient
  observation context (:mod:`repro.observe`), which keeps the
  dependency arrow pointing the right way: core never imports gateway.
* :mod:`repro.profile.resources` -- CPU-vs-wall, peak RSS, and optional
  ``tracemalloc`` top-N accounting.  The *only* module allowed to touch
  ``time.process_time`` / ``resource`` / ``tracemalloc`` (lint R013).
* :mod:`repro.profile.manifest` -- the self-describing ``RunManifest``
  JSON every ``repro gateway|server|campaign`` run can emit, written
  (with collapsed stacks) by the one ``write_profile_artifacts``.
* :mod:`repro.profile.diff` -- thresholded, lower-is-better-aware
  comparison of two manifests (or two bench reports); the engine behind
  ``repro diff`` and ``tools/bench_report.py --compare``.

Exports resolve lazily (PEP 562): the core DSP modules import
``repro.profile.profiler`` (for :func:`shape_bucket`) from inside the
gateway import graph, so this ``__init__`` must stay import-free to keep
that graph acyclic.
"""

from typing import Any

_EXPORTS = {
    "DiffReport": "repro.profile.diff",
    "MetricDelta": "repro.profile.diff",
    "diff_metrics": "repro.profile.diff",
    "digest_line": "repro.profile.diff",
    "RunManifest": "repro.profile.manifest",
    "build_manifest": "repro.profile.manifest",
    "load_manifest": "repro.profile.manifest",
    "write_profile_artifacts": "repro.profile.manifest",
    "KernelProfiler": "repro.profile.profiler",
    "shape_bucket": "repro.profile.profiler",
    "ResourceAccountant": "repro.profile.resources",
    "ResourceSummary": "repro.profile.resources",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
