"""Production HTTP gateway: durable, authenticated simulation serving.

The serving front end over the simulation stack, and the one with
*state that outlives the process*: a REST/SSE API (``esp-nuca gateway
serve``, over TCP or a unix socket) on top of the
:class:`~repro.service.core.ServiceCore`, backed by a SQLite job store
with versioned migrations so jobs, results-by-content-hash and tenant
identities survive restarts — a SIGKILL'd gateway recovers its backlog
on the next boot and answers byte-identically. Multi-tenancy is
first-class: hashed API keys, per-tenant quotas, token-bucket rate
limiting, per-tenant stats scopes. Traced submits capture one job's
event trace at a time. See docs/gateway.md.
"""

from repro.gateway.app import (Gateway, GatewayConfig, GatewayThread,
                               TenantState)
from repro.gateway.auth import TokenBucket, generate_key, hash_key
from repro.gateway.client import GatewayClient, GatewayError
from repro.gateway.http import HttpError
from repro.gateway.store import JobStore, StoreError

__all__ = [
    "Gateway",
    "GatewayConfig",
    "GatewayThread",
    "GatewayClient",
    "GatewayError",
    "HttpError",
    "JobStore",
    "StoreError",
    "TenantState",
    "TokenBucket",
    "generate_key",
    "hash_key",
]
