"""Validated declarative scenario model for city-scale campaigns.

A scenario file (YAML or JSON, see :mod:`repro.scenario.loader`) describes
one deployment end to end -- geometry, node population and traffic model,
channel plan, gateway shape, decode tiers -- and parses into a frozen
:class:`ScenarioSpec`.  Validation is strict and located: every error is a
:class:`ScenarioError` carrying the dotted key path (``traffic.period_s``)
and, once the loader has stamped it, the file it came from; unknown keys
are rejected rather than ignored, so a typo'd ``perriod_s`` fails loudly
instead of silently running the default.

``ScenarioSpec.to_dict()`` / ``ScenarioSpec.from_dict()`` round-trip
exactly, which is what lets a campaign report embed the spec it ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.cascade import DEFAULT_DECODE_TIER
from repro.gateway.workers import DECODE_TIERS, DROP_POLICIES, EXECUTORS
from repro.phy.params import VALID_SPREADING_FACTORS

#: Geometry layouts the node builder understands.
GEOMETRY_LAYOUTS = ("uniform-disc", "fixed-snr")

#: Channel-plan regions the gateway can serve (US915's 200 kHz
#: spacing is not critically stacked, so the channelizer rejects it).
PLAN_REGIONS = ("eu868",)

_MISSING = object()


class ScenarioError(ValueError):
    """A scenario file (or dict) failed validation.

    Carries the dotted ``key`` path of the offending entry and, when the
    loader raised it, the ``source`` file -- both baked into ``str(err)``
    so a CI log locates the mistake without a traceback.
    """

    def __init__(
        self,
        message: str,
        *,
        key: Optional[str] = None,
        source: Optional[str] = None,
    ) -> None:
        self.message = message
        self.key = key
        self.source = source
        located = message
        if key:
            located = f"{key}: {located}"
        if source:
            located = f"{source}: {located}"
        super().__init__(located)

    def with_source(self, source: str) -> "ScenarioError":
        """The same error, stamped with the file it was loaded from."""
        return ScenarioError(self.message, key=self.key, source=source)


class _Fields:
    """One mapping level of a scenario dict: typed takes, unknown-key audit."""

    def __init__(self, data: object, keypath: str) -> None:
        if not isinstance(data, Mapping):
            raise ScenarioError(
                f"expected a mapping, got {type(data).__name__}",
                key=keypath or None,
            )
        self._data: Dict[str, Any] = dict(data)
        self._keypath = keypath
        self._taken: set[str] = set()

    def _key(self, name: str) -> str:
        return f"{self._keypath}.{name}" if self._keypath else name

    def take(self, name: str, kind: str, default: object = _MISSING) -> Any:
        """Fetch and type-check one key; ``default`` marks it optional."""
        if name not in self._data:
            if default is _MISSING:
                raise ScenarioError("required key is missing", key=self._key(name))
            return default
        self._taken.add(name)
        return _coerce(self._data[name], kind, self._key(name))

    def section(self, name: str) -> "_Fields":
        """A nested mapping section (missing section = empty mapping)."""
        self._taken.add(name)
        return _Fields(self._data.get(name, {}), self._key(name))

    def finish(self) -> None:
        """Reject any key no ``take``/``section`` claimed."""
        unknown = sorted(set(self._data) - self._taken)
        if unknown:
            where = self._keypath or "top level"
            raise ScenarioError(
                f"unknown key(s) in {where}: {', '.join(unknown)}",
                key=self._key(unknown[0]),
            )


def _coerce(value: Any, kind: str, key: str) -> Any:
    """Check ``value`` against the simple type named by ``kind``."""
    if kind == "str":
        if not isinstance(value, str):
            raise ScenarioError(
                f"expected a string, got {type(value).__name__}", key=key
            )
        return value
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(
                f"expected an integer, got {type(value).__name__}", key=key
            )
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(
                f"expected a number, got {type(value).__name__}", key=key
            )
        return float(value)
    if kind == "float-or-null":
        if value is None:
            return None
        return _coerce(value, "float", key)
    if kind == "int-or-null":
        if value is None:
            return None
        return _coerce(value, "int", key)
    if kind == "int-list":
        if not isinstance(value, (list, tuple)) or not value:
            raise ScenarioError("expected a non-empty list of integers", key=key)
        return tuple(
            _coerce(item, "int", f"{key}[{i}]") for i, item in enumerate(value)
        )
    raise AssertionError(f"unhandled coercion kind {kind!r}")


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GeometrySpec:
    """Where nodes sit relative to the gateway, and what SNR that buys.

    ``uniform-disc`` places nodes area-uniformly in the annulus
    ``[min_distance_m, cell_radius_m]`` around the gateway and maps
    distance to mean SNR through the urban log-distance model
    (:class:`repro.channel.pathloss.UrbanPathLoss` with ``path_exponent``)
    and the paper's link budget (:class:`repro.channel.link.LinkBudget`
    with ``tx_power_dbm`` / ``penetration_loss_db``); optional log-normal
    shadowing adds per-node variation.  ``fixed-snr`` gives every node
    ``snr_db`` -- the degenerate geometry unit tests and byte-identity
    checks want.
    """

    layout: str = "uniform-disc"
    cell_radius_m: float = 130.0
    min_distance_m: float = 35.0
    snr_db: float = 15.0
    tx_power_dbm: float = 14.0
    penetration_loss_db: float = 22.5
    path_exponent: float = 3.5
    shadowing_sigma_db: float = 0.0

    def validate(self) -> None:
        """Raise :class:`ScenarioError` on out-of-domain fields."""
        if self.layout not in GEOMETRY_LAYOUTS:
            raise ScenarioError(
                f"layout must be one of {GEOMETRY_LAYOUTS}, got {self.layout!r}",
                key="geometry.layout",
            )
        if self.cell_radius_m <= 0:
            raise ScenarioError(
                f"cell_radius_m must be positive, got {self.cell_radius_m}",
                key="geometry.cell_radius_m",
            )
        if not 0 < self.min_distance_m <= self.cell_radius_m:
            raise ScenarioError(
                f"min_distance_m must be in (0, cell_radius_m], got "
                f"{self.min_distance_m}",
                key="geometry.min_distance_m",
            )
        if self.shadowing_sigma_db < 0:
            raise ScenarioError(
                f"shadowing_sigma_db must be >= 0, got {self.shadowing_sigma_db}",
                key="geometry.shadowing_sigma_db",
            )

    @classmethod
    def from_fields(cls, fields: _Fields) -> "GeometrySpec":
        spec = cls(
            layout=fields.take("layout", "str", cls.layout),
            cell_radius_m=fields.take("cell_radius_m", "float", cls.cell_radius_m),
            min_distance_m=fields.take(
                "min_distance_m", "float", cls.min_distance_m
            ),
            snr_db=fields.take("snr_db", "float", cls.snr_db),
            tx_power_dbm=fields.take("tx_power_dbm", "float", cls.tx_power_dbm),
            penetration_loss_db=fields.take(
                "penetration_loss_db", "float", cls.penetration_loss_db
            ),
            path_exponent=fields.take(
                "path_exponent", "float", cls.path_exponent
            ),
            shadowing_sigma_db=fields.take(
                "shadowing_sigma_db", "float", cls.shadowing_sigma_db
            ),
        )
        fields.finish()
        spec.validate()
        return spec

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form that :meth:`from_fields` parses back exactly."""
        return {
            "layout": self.layout,
            "cell_radius_m": self.cell_radius_m,
            "min_distance_m": self.min_distance_m,
            "snr_db": self.snr_db,
            "tx_power_dbm": self.tx_power_dbm,
            "penetration_loss_db": self.penetration_loss_db,
            "path_exponent": self.path_exponent,
            "shadowing_sigma_db": self.shadowing_sigma_db,
        }


@dataclass(frozen=True)
class TrafficSpec:
    """The node population's traffic model and PHY assignment policy."""

    period_s: Optional[float] = 60.0
    payload_len: int = 8
    spreading_factors: Tuple[int, ...] = (7,)
    channel_policy: str = "round-robin"

    def validate(self) -> None:
        """Raise :class:`ScenarioError` on out-of-domain fields."""
        if self.period_s is not None and self.period_s <= 0:
            raise ScenarioError(
                f"period_s must be positive or null (saturated), got "
                f"{self.period_s}",
                key="traffic.period_s",
            )
        if self.payload_len <= 0:
            raise ScenarioError(
                f"payload_len must be positive, got {self.payload_len}",
                key="traffic.payload_len",
            )
        for sf in self.spreading_factors:
            if sf not in VALID_SPREADING_FACTORS:
                raise ScenarioError(
                    f"spreading factor must be one of "
                    f"{VALID_SPREADING_FACTORS}, got {sf}",
                    key="traffic.spreading_factors",
                )
        if self.channel_policy not in ("round-robin", "uniform"):
            raise ScenarioError(
                f"channel_policy must be 'round-robin' or 'uniform', got "
                f"{self.channel_policy!r}",
                key="traffic.channel_policy",
            )

    @classmethod
    def from_fields(cls, fields: _Fields) -> "TrafficSpec":
        spec = cls(
            period_s=fields.take("period_s", "float-or-null", cls.period_s),
            payload_len=fields.take("payload_len", "int", cls.payload_len),
            spreading_factors=fields.take(
                "spreading_factors", "int-list", cls.spreading_factors
            ),
            channel_policy=fields.take(
                "channel_policy", "str", cls.channel_policy
            ),
        )
        fields.finish()
        spec.validate()
        return spec

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form that :meth:`from_fields` parses back exactly."""
        return {
            "period_s": self.period_s,
            "payload_len": self.payload_len,
            "spreading_factors": list(self.spreading_factors),
            "channel_policy": self.channel_policy,
        }


@dataclass(frozen=True)
class PlanSpec:
    """The uplink channel grid the wideband front end serves."""

    region: str = "eu868"
    n_channels: int = 8

    def validate(self) -> None:
        """Raise :class:`ScenarioError` on out-of-domain fields."""
        if self.region not in PLAN_REGIONS:
            raise ScenarioError(
                f"region must be one of {PLAN_REGIONS}, got {self.region!r}",
                key="plan.region",
            )
        if self.n_channels < 1:
            raise ScenarioError(
                f"n_channels must be >= 1, got {self.n_channels}",
                key="plan.n_channels",
            )

    @classmethod
    def from_fields(cls, fields: _Fields) -> "PlanSpec":
        spec = cls(
            region=fields.take("region", "str", cls.region),
            n_channels=fields.take("n_channels", "int", cls.n_channels),
        )
        fields.finish()
        spec.validate()
        return spec

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form that :meth:`from_fields` parses back exactly."""
        return {"region": self.region, "n_channels": self.n_channels}


@dataclass(frozen=True)
class GatewaySpec:
    """The Choir gateway's runtime shape and decode configuration.

    ``executor`` defaults to ``"process"``: decode workers that do not
    share the ingest thread's GIL (see :mod:`repro.gateway.workers`).
    """

    executor: str = "process"
    workers: int = 2
    queue_capacity: int = 64
    drop_policy: str = "block"
    detection_pfa: float = 1e-3
    chunk_samples: int = 4096
    decode_tier: str = DEFAULT_DECODE_TIER
    max_users: Optional[int] = 4

    def validate(self) -> None:
        """Raise :class:`ScenarioError` on out-of-domain fields."""
        if self.executor not in EXECUTORS:
            raise ScenarioError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}",
                key="gateway.executor",
            )
        if self.workers < 1:
            raise ScenarioError(
                f"workers must be >= 1, got {self.workers}", key="gateway.workers"
            )
        if self.queue_capacity < 1:
            raise ScenarioError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}",
                key="gateway.queue_capacity",
            )
        if self.drop_policy not in DROP_POLICIES:
            raise ScenarioError(
                f"drop_policy must be one of {DROP_POLICIES}, got "
                f"{self.drop_policy!r}",
                key="gateway.drop_policy",
            )
        if not 0 < self.detection_pfa < 1:
            raise ScenarioError(
                f"detection_pfa must be in (0, 1), got {self.detection_pfa}",
                key="gateway.detection_pfa",
            )
        if self.chunk_samples < 1:
            raise ScenarioError(
                f"chunk_samples must be >= 1, got {self.chunk_samples}",
                key="gateway.chunk_samples",
            )
        if self.decode_tier not in DECODE_TIERS:
            raise ScenarioError(
                f"decode_tier must be one of {DECODE_TIERS}, got "
                f"{self.decode_tier!r}",
                key="gateway.decode_tier",
            )
        if self.max_users is not None and self.max_users < 1:
            raise ScenarioError(
                f"max_users must be >= 1 or null, got {self.max_users}",
                key="gateway.max_users",
            )

    @classmethod
    def from_fields(cls, fields: _Fields) -> "GatewaySpec":
        spec = cls(
            executor=fields.take("executor", "str", cls.executor),
            workers=fields.take("workers", "int", cls.workers),
            queue_capacity=fields.take(
                "queue_capacity", "int", cls.queue_capacity
            ),
            drop_policy=fields.take("drop_policy", "str", cls.drop_policy),
            detection_pfa=fields.take(
                "detection_pfa", "float", cls.detection_pfa
            ),
            chunk_samples=fields.take(
                "chunk_samples", "int", cls.chunk_samples
            ),
            decode_tier=fields.take("decode_tier", "str", cls.decode_tier),
            max_users=fields.take("max_users", "int-or-null", cls.max_users),
        )
        fields.finish()
        spec.validate()
        return spec

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form that :meth:`from_fields` parses back exactly."""
        return {
            "executor": self.executor,
            "workers": self.workers,
            "queue_capacity": self.queue_capacity,
            "drop_policy": self.drop_policy,
            "detection_pfa": self.detection_pfa,
            "chunk_samples": self.chunk_samples,
            "decode_tier": self.decode_tier,
            "max_users": self.max_users,
        }


@dataclass(frozen=True)
class BaselineSpec:
    """The standard-LoRa comparison point: one user per window, no SIC.

    ``decode_tier="fast"`` is the Tier-0 dechirp-argmax decoder -- exactly
    what a commodity LoRa chipset does -- and ``max_users=1`` removes the
    collision-resolution headroom even if the tier is overridden to a
    Choir pipeline.
    """

    decode_tier: str = "fast"
    max_users: Optional[int] = 1

    def validate(self) -> None:
        """Raise :class:`ScenarioError` on out-of-domain fields."""
        if self.decode_tier not in DECODE_TIERS:
            raise ScenarioError(
                f"decode_tier must be one of {DECODE_TIERS}, got "
                f"{self.decode_tier!r}",
                key="baseline.decode_tier",
            )
        if self.max_users is not None and self.max_users < 1:
            raise ScenarioError(
                f"max_users must be >= 1 or null, got {self.max_users}",
                key="baseline.max_users",
            )

    @classmethod
    def from_fields(cls, fields: _Fields) -> "BaselineSpec":
        spec = cls(
            decode_tier=fields.take("decode_tier", "str", cls.decode_tier),
            max_users=fields.take("max_users", "int-or-null", cls.max_users),
        )
        fields.finish()
        spec.validate()
        return spec

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form that :meth:`from_fields` parses back exactly."""
        return {"decode_tier": self.decode_tier, "max_users": self.max_users}


@dataclass(frozen=True)
class SweepSpec:
    """The campaign axis: node counts, simulated air time, seed, guard."""

    node_counts: Tuple[int, ...] = (100, 300, 1000)
    duration_s: float = 60.0
    seed: int = 0
    max_active_frames: int = 1024

    def validate(self) -> None:
        """Raise :class:`ScenarioError` on out-of-domain fields."""
        for count in self.node_counts:
            if count < 1:
                raise ScenarioError(
                    f"node counts must be >= 1, got {count}",
                    key="sweep.node_counts",
                )
        if self.duration_s <= 0:
            raise ScenarioError(
                f"duration_s must be positive, got {self.duration_s}",
                key="sweep.duration_s",
            )
        if self.max_active_frames < 1:
            raise ScenarioError(
                f"max_active_frames must be >= 1, got {self.max_active_frames}",
                key="sweep.max_active_frames",
            )

    @classmethod
    def from_fields(cls, fields: _Fields) -> "SweepSpec":
        spec = cls(
            node_counts=fields.take(
                "node_counts", "int-list", cls.node_counts
            ),
            duration_s=fields.take("duration_s", "float", cls.duration_s),
            seed=fields.take("seed", "int", cls.seed),
            max_active_frames=fields.take(
                "max_active_frames", "int", cls.max_active_frames
            ),
        )
        fields.finish()
        spec.validate()
        return spec

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form that :meth:`from_fields` parses back exactly."""
        return {
            "node_counts": list(self.node_counts),
            "duration_s": self.duration_s,
            "seed": self.seed,
            "max_active_frames": self.max_active_frames,
        }


# ----------------------------------------------------------------------
# The scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative deployment: everything a campaign run needs."""

    name: str
    description: str = ""
    geometry: GeometrySpec = GeometrySpec()
    traffic: TrafficSpec = TrafficSpec()
    plan: PlanSpec = PlanSpec()
    gateway: GatewaySpec = GatewaySpec()
    baseline: BaselineSpec = BaselineSpec()
    sweep: SweepSpec = SweepSpec()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Parse and validate a scenario dict (what the loader read)."""
        fields = _Fields(data, "")
        name = fields.take("name", "str")
        description = fields.take("description", "str", "")
        spec = cls(
            name=name,
            description=description,
            geometry=GeometrySpec.from_fields(fields.section("geometry")),
            traffic=TrafficSpec.from_fields(fields.section("traffic")),
            plan=PlanSpec.from_fields(fields.section("plan")),
            gateway=GatewaySpec.from_fields(fields.section("gateway")),
            baseline=BaselineSpec.from_fields(fields.section("baseline")),
            sweep=SweepSpec.from_fields(fields.section("sweep")),
        )
        fields.finish()
        if not spec.name:
            raise ScenarioError("name must not be empty", key="name")
        return spec

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict; ``from_dict(to_dict())`` round-trips exactly."""
        return {
            "name": self.name,
            "description": self.description,
            "geometry": self.geometry.to_dict(),
            "traffic": self.traffic.to_dict(),
            "plan": self.plan.to_dict(),
            "gateway": self.gateway.to_dict(),
            "baseline": self.baseline.to_dict(),
            "sweep": self.sweep.to_dict(),
        }
