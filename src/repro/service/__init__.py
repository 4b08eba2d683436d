"""Routing-as-a-service: epochal level caching over the batched kernels.

The paper's argument — safety levels are cheap to maintain and make each
route decision nearly free — has the exact shape of a high-throughput
service, and this package is that service:

* :mod:`repro.service.shm` — immutable, seqlock-tagged shared-memory
  table segments, reseal-able for the warm-spare ring;
* :mod:`repro.service.epoch` — :class:`EpochManager`: incremental
  re-stabilization on fault events, warm-spare sealing between flushes,
  pointer-flip swap, pin-counted ring recycling;
* :mod:`repro.service.batcher` — :class:`MicroBatcher`: size/deadline
  aggregation of concurrent requests (and whole blocks) into single
  kernel calls;
* :mod:`repro.service.workers` — the flat per-batch routing task each
  kernel call runs, inline on the event loop's thread;
* :mod:`repro.service.service` — :class:`RoutingService`, the façade;
* :mod:`repro.service.shard` — :class:`ShardRouter`: many tenant cubes
  multiplexed over a shard pool with consistent-hash placement,
  per-tenant fault journals, admission control, and exact failover of
  a dead shard's tenants onto survivors;
* :mod:`repro.service.health` — :class:`FailureDetector`: heartbeat
  probes driving the alive → suspect → dead state machine, so shard
  death is *inferred*, not only injected;
* :mod:`repro.service.wire` — the length-prefixed binary RPC framing
  and its pipelined :class:`WireClient`;
* :mod:`repro.service.client` — :class:`ResilientClient`: bounded
  backoff-and-jitter retries over the retryable error codes
  (``E_RETRY``/``E_MOVED``/``E_OVERLOAD``), reconnect + tenant rebind;
* :mod:`repro.service.server` — the ``repro serve`` TCP front-end
  (binary frames, line-protocol compat shim).
"""

from .client import ResilientClient, RetryPolicy
from .epoch import EpochManager, EpochSwap, EpochView
from .health import FailureDetector, HealthConfig, ShardHealth
from .service import BlockResponse, RoutingService, ServiceConfig, \
    ServiceResponse
from .shard import FailoverReport, HashRing, OverloadError, Shard, \
    ShardDownError, ShardRetryError, ShardRouter, TenantJournal, \
    TenantMovedError, UnknownTenantError
from .shm import EpochTable, TornTableError, attach_epoch_table
from .wire import WireClient, WireError

__all__ = [
    "EpochManager",
    "EpochSwap",
    "EpochView",
    "EpochTable",
    "TornTableError",
    "attach_epoch_table",
    "RoutingService",
    "ServiceConfig",
    "ServiceResponse",
    "BlockResponse",
    "ShardRouter",
    "Shard",
    "HashRing",
    "TenantJournal",
    "FailoverReport",
    "ShardDownError",
    "ShardRetryError",
    "TenantMovedError",
    "OverloadError",
    "UnknownTenantError",
    "FailureDetector",
    "HealthConfig",
    "ShardHealth",
    "ResilientClient",
    "RetryPolicy",
    "WireClient",
    "WireError",
]
