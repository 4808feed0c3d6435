"""Exception hierarchy shared across the repro packages.

Every error raised by the library derives from :class:`ReproError` so callers
can catch one base class.  Sub-hierarchies mirror the subsystems: the cloud
control plane, the Batch service, application scripts, and the advisor core.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """The user-supplied configuration is invalid or incomplete."""


class CloudError(ReproError):
    """Base class for simulated cloud control-plane failures."""


class ResourceNotFound(CloudError):
    """A named cloud resource does not exist."""


class ResourceExists(CloudError):
    """A cloud resource with the same name already exists."""


class QuotaExceeded(CloudError):
    """Provisioning would exceed the subscription's core quota."""

    def __init__(self, family: str, requested: int, available: int) -> None:
        super().__init__(
            f"quota exceeded for family {family!r}: requested {requested} "
            f"cores, {available} available"
        )
        self.family = family
        self.requested = requested
        self.available = available


class SkuNotAvailable(CloudError):
    """The requested VM SKU is not offered in the region."""


class BatchError(ReproError):
    """Base class for simulated Azure Batch failures."""


class PoolStateError(BatchError):
    """A pool operation was attempted in an invalid state."""


class AppScriptError(ReproError):
    """An application setup/run script misbehaved."""


class DatasetError(ReproError):
    """The dataset store was asked to do something impossible."""


class AdvisorError(ReproError):
    """Advice could not be generated (e.g. no completed data points)."""


class SamplingError(ReproError):
    """A smart-sampling strategy was configured inconsistently."""


class BackendError(ReproError):
    """A pluggable execution back-end failed."""


class ServiceError(ReproError):
    """Base class for advisor-as-a-service failures (server side)."""


class JobNotFound(ServiceError):
    """No job with the requested id exists in the job manager."""


class JobStateError(ServiceError):
    """A job operation was attempted in an incompatible state."""


class LeaseLost(ServiceError):
    """A worker's claim on a job expired and another worker took it."""


class RemoteError(ReproError):
    """A remote service call failed (client side).

    ``status`` is the HTTP status code, or 0 when the failure happened
    before a response arrived (connection refused, DNS, ...).
    """

    def __init__(self, message: str, status: int = 0) -> None:
        super().__init__(message)
        self.status = status


class RemoteTimeout(RemoteError):
    """A remote call or job wait exceeded its time budget."""


class RemoteJobFailed(RemoteError):
    """A remote job finished in a non-success state (failed/cancelled/stale)."""
