"""Typed request/result surface of the mapping service.

A :class:`MapRequest` is everything one mapping needs: the receptor
(inline, or the content hash of one previously registered with the
service), the :class:`~repro.mapping.ftmap.FTMapConfig` workload, and
optional pre-built probes.  Requests that reference receptors by hash are
JSON-round-trippable (:meth:`MapRequest.to_dict`), which is the shape a
wire protocol will ship: upload the receptor once, then stream small
request documents against it.

A :class:`MapResult` wraps the mapping outcome
(:class:`~repro.mapping.ftmap.FTMapResult`) with serving provenance: the
request id, the receptor's content hash, how the request was scheduled,
its wall time and its request-scoped cache statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.api.errors import InvalidRequestError
from repro.api.schema import SCHEMA_VERSION, check_schema_version
from repro.cache.keys import molecule_token
from repro.cache.manager import CacheStats
from repro.mapping.consensus import ConsensusSite
from repro.mapping.ftmap import FTMapConfig, FTMapResult, ProbeResult
from repro.structure.molecule import Molecule

__all__ = ["STREAMING_MODES", "MapRequest", "MapResult", "receptor_fingerprint"]

#: How a request's probes may be scheduled: ``None`` (service default),
#: one after another in the request's thread, or whole probes mapped side
#: by side in worker processes (GIL-independent).
STREAMING_MODES = ("sequential", "process")

#: Streaming modes of earlier releases; :meth:`MapRequest.from_dict` maps
#: them to ``None`` (the service default).  ``"pipeline"`` (thread stage
#: pipelining) went in 3.0.0.
_RETIRED_STREAMING = ("pipeline",)


def receptor_fingerprint(receptor: Molecule) -> str:
    """Content hash a service registers/addresses a receptor under.

    Structurally equal molecules share a fingerprint (coordinates,
    parameters, topology — see :func:`repro.cache.keys.molecule_token`),
    which is exactly the property that lets concurrent requests against
    the same receptor share grids, spectra and dock results.
    """
    return molecule_token(receptor)


@dataclass
class MapRequest:
    """One unit of service work: map ``receptor`` under ``config``.

    ``receptor`` is a :class:`Molecule`, or the string fingerprint of a
    receptor previously passed to
    :meth:`~repro.api.service.FTMapService.register_receptor`.
    ``streaming`` overrides the service's scheduling mode for this request
    (``"sequential"`` | ``"process"``; None = service default) — an
    explicit mode always wins over config-driven selection.
    ``tracing`` overrides ``config.tracing`` for this request (None =
    defer to the config): a client can ask for a trace without caring
    that traced and untraced configs hash to the same cache keys.
    """

    receptor: Union[Molecule, str]
    config: FTMapConfig = field(default_factory=FTMapConfig)
    probes: Optional[Dict[str, Molecule]] = None
    request_id: Optional[str] = None
    streaming: Optional[str] = None
    tracing: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.streaming is not None and self.streaming not in STREAMING_MODES:
            raise InvalidRequestError(
                f"unknown streaming mode {self.streaming!r}; expected one of "
                f"{STREAMING_MODES} or None"
            )
        if self.tracing is not None and not isinstance(self.tracing, bool):
            raise InvalidRequestError(
                f"tracing must be True, False or None, got {self.tracing!r}"
            )
        if not isinstance(self.receptor, (Molecule, str)):
            raise InvalidRequestError(
                "receptor must be a Molecule or a registered receptor "
                f"fingerprint string, got {type(self.receptor).__name__}"
            )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (wire shape): requires a by-hash receptor.

        Inline molecules and pre-built probes are process-local objects —
        serializable requests reference a registered receptor by
        fingerprint and name their probes through the config.
        """
        if isinstance(self.receptor, Molecule):
            raise InvalidRequestError(
                "only requests that reference a registered receptor by "
                "fingerprint serialize; call "
                "FTMapService.register_receptor(receptor) and build the "
                "request from the returned hash"
            )
        if self.probes is not None:
            raise InvalidRequestError(
                "requests with pre-built probe molecules do not serialize; "
                "name probes via config.probe_names instead"
            )
        return {
            "schema_version": SCHEMA_VERSION,
            "receptor": self.receptor,
            "config": self.config.to_dict(),
            "request_id": self.request_id,
            "streaming": self.streaming,
            "tracing": self.tracing,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MapRequest":
        """Rebuild a request from :meth:`to_dict` output (re-validated).

        Accepts any supported ``schema_version`` (a missing field means
        version 1, the pre-versioning dialect); an unsupported version is
        rejected with :class:`~repro.api.errors.SchemaVersionError`
        before any field is interpreted.  A retired streaming mode
        (``"pipeline"``, 2.x) becomes ``None``, the service default.
        """
        check_schema_version(data, "MapRequest")
        known = {
            "schema_version", "receptor", "config", "request_id",
            "streaming", "tracing",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise InvalidRequestError(f"unknown MapRequest field(s): {unknown}")
        if "receptor" not in data:
            raise InvalidRequestError("MapRequest needs a receptor fingerprint")
        config = data.get("config")
        try:
            cfg = (
                FTMapConfig.from_dict(config)
                if config is not None
                else FTMapConfig()
            )
        except (TypeError, ValueError) as exc:
            # FTMapConfig validation speaks bare ValueError/TypeError; at
            # the wire boundary every malformed document is a typed 400.
            raise InvalidRequestError(f"invalid MapRequest config: {exc}") from exc
        tracing = data.get("tracing")
        if tracing is not None and not isinstance(tracing, bool):
            raise InvalidRequestError(
                f"MapRequest.tracing must be a boolean or null, got {tracing!r}"
            )
        streaming = data.get("streaming")
        if streaming in _RETIRED_STREAMING:
            streaming = None
        return cls(
            receptor=data["receptor"],
            config=cfg,
            request_id=data.get("request_id"),
            streaming=streaming,
            tracing=tracing,
        )


@dataclass
class MapResult:
    """Mapping outcome plus serving provenance for one request."""

    request_id: str
    receptor_hash: str
    config: FTMapConfig
    result: FTMapResult
    wall_time_s: float
    #: Request-scoped cache delta (None with caching off): only this
    #: request's lookups, even when other requests overlap on the manager.
    cache_stats: Optional[CacheStats]
    #: How the probes were actually scheduled: ``"sequential"`` (one
    #: after another in the request's thread) or ``"process"`` (whole
    #: probes side by side in worker processes).
    streaming: str = "sequential"
    #: The request's serialized trace document (see
    #: :meth:`repro.obs.trace.Tracer.to_dict`), or None when tracing was
    #: off for this request.
    trace: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready wire form of the result (a *summary* document).

        Ships the ranked consensus sites, per-probe cluster summaries with
        the exact minimized centers/energies (Python floats survive a JSON
        round trip bitwise, so two runs agree on the wire iff they agree
        in memory — the property the gateway's identity tests assert),
        the serving provenance, and the request-scoped cache stats.  The
        bulk pose payloads stay process-local by design; clients that
        need them run in-process against :class:`FTMapService`.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "request_id": self.request_id,
            "receptor_hash": self.receptor_hash,
            "config": self.config.to_dict(),
            "wall_time_s": float(self.wall_time_s),
            "streaming": self.streaming,
            "cache_stats": (
                self.cache_stats.to_dict()
                if self.cache_stats is not None
                else None
            ),
            "trace": self.trace,
            "result": self.result.to_dict(),
        }

    @property
    def probe_results(self) -> Dict[str, ProbeResult]:
        return self.result.probe_results

    @property
    def minimize_provenance(self) -> Dict[str, Dict[str, object]]:
        """Where each probe's minimization actually ran.

        Per probe: the executing backend, the device count it was planned
        over, per-shard pose counts, the deterministic reduction order,
        and whether the stage was served from the artifact cache (in which
        case no shards ran at all) — the serving-side answer to "which
        hardware did this request use".
        """
        return {
            name: {
                "backend": pr.minimize_backend,
                "devices": pr.minimize_devices,
                "shard_sizes": list(pr.minimize_shard_sizes),
                "reduction_order": list(pr.minimize_reduction_order),
                "cached": pr.minimize_cached,
            }
            for name, pr in self.result.probe_results.items()
        }

    @property
    def sites(self) -> List[ConsensusSite]:
        return self.result.sites

    @property
    def top_site(self) -> Optional[ConsensusSite]:
        return self.result.top_site
