"""Self-describing run manifests: what ran, on what, and what it cost.

A :class:`RunManifest` is the JSON record a ``repro gateway|server|
campaign`` run leaves behind so a later run (on another commit, another
machine, another config) can be *diffed* against it: package version and
platform, the seed and config, the deterministic report digest, the full
telemetry snapshot, the kernel profile, the resource summary, and a
flattened ``metrics`` table that :mod:`repro.profile.diff` compares with
thresholded verdicts.

The digest rides in from the existing ``report_digest`` machinery in
``repro.scenario.build`` -- callers pass it pre-computed, keeping this
module free of scenario/gateway imports (it sits below both in the
dependency order).
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

#: Format tag stamped on every manifest.
MANIFEST_FORMAT = "repro-manifest/v1"

#: Histogram snapshot keys flattened into the comparable metric table.
_HISTOGRAM_METRIC_KEYS = ("count", "p50_s", "p95_s", "max_s", "total_s")


def platform_info() -> Dict[str, str]:
    """Where this run happened (the run-over-run comparability context)."""
    info = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
    try:
        import numpy

        info["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        pass
    return info


def package_version() -> str:
    """The repro package version recorded in every manifest."""
    from repro import __version__

    return __version__


def telemetry_metrics(snapshot: Mapping[str, Mapping[str, Any]]) -> Dict[str, float]:
    """Flatten a ``Telemetry.snapshot()`` into comparable scalars.

    Counters keep their name; gauges add a ``.peak`` row; histograms
    explode into count / p50 / p95 / max / total rows.
    """
    metrics: Dict[str, float] = {}
    for name, state in snapshot.items():
        kind = state.get("type")
        if kind == "counter":
            metrics[name] = float(state["value"])
        elif kind == "gauge":
            metrics[name] = float(state["value"])
            metrics[f"{name}.peak"] = float(state["peak"])
        elif kind == "histogram":
            for key in _HISTOGRAM_METRIC_KEYS:
                if key in state:
                    metrics[f"{name}.{key}"] = float(state[key])
    return metrics


def profiler_metrics(profile_state: Mapping[str, Any]) -> Dict[str, float]:
    """Flatten a ``KernelProfiler.state()`` into comparable scalars."""
    metrics: Dict[str, float] = {}
    for key, stat in profile_state.get("kernels", {}).items():
        name = key.replace("|", ".")
        metrics[f"profile.kernel.{name}.wall_s"] = float(stat["wall_s"])
        metrics[f"profile.kernel.{name}.calls"] = float(stat["calls"])
        if stat.get("fft_count"):
            metrics[f"profile.kernel.{name}.ffts"] = float(
                stat["fft_count"]
            )
    if profile_state.get("cpu_s"):
        metrics["profile.cpu_s"] = float(profile_state["cpu_s"])
    return metrics


def resource_metrics(resources: Mapping[str, Any]) -> Dict[str, float]:
    """Flatten a ``ResourceSummary.to_dict()`` into comparable scalars."""
    metrics: Dict[str, float] = {}
    for key in ("wall_s", "cpu_s", "peak_rss_kb", "alloc_peak_kb"):
        if key in resources:
            metrics[f"resources.{key}"] = float(resources[key])
    return metrics


@dataclass(frozen=True)
class RunManifest:
    """One run's self-describing record (see module docstring)."""

    kind: str
    format: str = MANIFEST_FORMAT
    version: str = ""
    platform: Dict[str, str] = field(default_factory=dict)
    seed: Optional[int] = None
    config: Dict[str, Any] = field(default_factory=dict)
    digest: Optional[Dict[str, Any]] = None
    metrics: Dict[str, float] = field(default_factory=dict)
    telemetry: Optional[Dict[str, Any]] = None
    kernels: Optional[Dict[str, Any]] = None
    resources: Optional[Dict[str, Any]] = None
    points: Optional[List[Dict[str, Any]]] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready plain-dict form (None sections omitted)."""
        out: Dict[str, Any] = {
            "format": self.format,
            "kind": self.kind,
            "version": self.version,
            "platform": dict(self.platform),
            "seed": self.seed,
            "config": dict(self.config),
            "metrics": dict(self.metrics),
        }
        if self.digest is not None:
            out["digest"] = self.digest
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry
        if self.kernels is not None:
            out["kernels"] = self.kernels
        if self.resources is not None:
            out["resources"] = self.resources
        if self.points is not None:
            out["points"] = self.points
        return out

    def to_json(self, indent: int = 2) -> str:
        """Pretty JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path: Union[str, Path]) -> None:
        """Write the manifest JSON to ``path``."""
        Path(path).write_text(self.to_json() + "\n")


def build_manifest(
    kind: str,
    config: Mapping[str, Any],
    seed: Optional[int] = None,
    digest: Optional[Mapping[str, Any]] = None,
    telemetry: Optional[Any] = None,
    profiler: Optional[Any] = None,
    resources: Optional[Any] = None,
    extra_metrics: Optional[Mapping[str, float]] = None,
    points: Optional[List[Dict[str, Any]]] = None,
) -> RunManifest:
    """Assemble a :class:`RunManifest` from live run objects.

    ``telemetry`` is a :class:`~repro.gateway.telemetry.Telemetry`
    registry (or an already-taken snapshot dict), ``profiler`` a
    :class:`~repro.profile.profiler.KernelProfiler` (or its state dict),
    ``resources`` a :class:`~repro.profile.resources.ResourceSummary`
    (or its dict); ``digest`` is the precomputed ``report_digest``
    projection.  Everything optional is optional.
    """
    snapshot: Optional[Dict[str, Any]] = None
    if telemetry is not None:
        snapshot = (
            dict(telemetry)
            if isinstance(telemetry, Mapping)
            else telemetry.snapshot()
        )
    profile_state: Optional[Dict[str, Any]] = None
    if profiler is not None:
        profile_state = (
            dict(profiler)
            if isinstance(profiler, Mapping)
            else profiler.state()
        )
    resource_state: Optional[Dict[str, Any]] = None
    if resources is not None:
        resource_state = (
            dict(resources)
            if isinstance(resources, Mapping)
            else resources.to_dict()
        )
    metrics: Dict[str, float] = {}
    if snapshot is not None:
        metrics.update(telemetry_metrics(snapshot))
    if profile_state is not None:
        metrics.update(profiler_metrics(profile_state))
    if resource_state is not None:
        metrics.update(resource_metrics(resource_state))
    if extra_metrics:
        metrics.update(
            {str(k): float(v) for k, v in extra_metrics.items()}
        )
    return RunManifest(
        kind=kind,
        version=package_version(),
        platform=platform_info(),
        seed=seed,
        config=dict(config),
        digest=dict(digest) if digest is not None else None,
        metrics=metrics,
        telemetry=snapshot,
        kernels=profile_state,
        resources=resource_state,
        points=points,
    )


def write_profile_artifacts(
    kind: str,
    config: Mapping[str, Any],
    profile_out: Optional[Union[str, Path]] = None,
    stacks_out: Optional[Union[str, Path]] = None,
    profiler: Optional[Any] = None,
    **manifest_args: Any,
) -> None:
    """Write a run's manifest to ``profile_out`` and its stacks to ``stacks_out``.

    The one profile-artifact writer of every run kind.  ``profiler`` and
    ``manifest_args`` are :func:`build_manifest`'s; the collapsed stacks
    need a live :class:`~repro.profile.profiler.KernelProfiler`.  A
    ``None`` path writes nothing; each written file is announced.
    """
    if profile_out:
        manifest = build_manifest(kind, config, profiler=profiler, **manifest_args)
        manifest.write(profile_out)
        print(
            f"run manifest written to {profile_out}"
            f" ({len(manifest.metrics)} comparable metric(s);"
            f" diff with `python -m repro diff`)"
        )
    if stacks_out and profiler is not None:
        Path(stacks_out).write_text(profiler.collapsed())
        print(
            f"collapsed stacks written to {stacks_out}"
            " (flamegraph.pl / speedscope ready)"
        )


def load_manifest(path: Union[str, Path]) -> RunManifest:
    """Read a manifest JSON written by :meth:`RunManifest.write`."""
    data = json.loads(Path(path).read_text())
    fmt = data.get("format")
    if fmt != MANIFEST_FORMAT:
        raise ValueError(
            f"{path}: not a repro run manifest"
            f" (format {fmt!r}, expected {MANIFEST_FORMAT!r})"
        )
    return RunManifest(
        kind=str(data.get("kind", "unknown")),
        format=MANIFEST_FORMAT,
        version=str(data.get("version", "")),
        platform=dict(data.get("platform", {})),
        seed=data.get("seed"),
        config=dict(data.get("config", {})),
        digest=data.get("digest"),
        metrics={
            str(k): float(v) for k, v in data.get("metrics", {}).items()
        },
        telemetry=data.get("telemetry"),
        kernels=data.get("kernels"),
        resources=data.get("resources"),
        points=data.get("points"),
    )
