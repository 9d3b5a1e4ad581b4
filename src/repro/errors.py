"""Exception hierarchy for the eclipse reproduction library.

Every error raised intentionally by this package derives from
:class:`ReproError`, so downstream users can catch a single base class while
still being able to distinguish configuration problems from data problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class InvalidWeightRangeError(ReproError, ValueError):
    """Raised when an attribute weight-ratio range is malformed.

    Examples include a lower bound greater than the upper bound, a negative
    bound, or a number of ranges inconsistent with the dataset dimensionality.
    """


class InvalidDatasetError(ReproError, ValueError):
    """Raised when a dataset cannot be interpreted as an ``(n, d)`` array.

    Datasets must be two-dimensional, contain at least one attribute column,
    hold only finite values, and (for eclipse/skyline semantics) use the
    "smaller is better" orientation.
    """


class DimensionMismatchError(ReproError, ValueError):
    """Raised when a query's dimensionality disagrees with the dataset."""


class IndexNotBuiltError(ReproError, RuntimeError):
    """Raised when querying an :class:`~repro.index.EclipseIndex` before
    :meth:`~repro.index.EclipseIndex.build` completed."""


class AlgorithmNotSupportedError(ReproError, ValueError):
    """Raised when an unknown algorithm/method name is requested."""


class InvalidPlanInputError(ReproError, ValueError):
    """Raised when a planner input is malformed (e.g. ``num_queries="5"``)."""


class DegenerateHyperplaneError(InvalidDatasetError):
    """Raised when an index build meets unsplittable duplicate hyperplanes.

    Coincident intersection hyperplanes (e.g. from collinear input points)
    can never be separated by spatial splits; a tree build that would chase
    them to its depth cap raises this instead of silently constructing a
    maximal-depth tree.  The scan backend handles such inputs exactly.
    """


class EmptyDatasetError(InvalidDatasetError):
    """Raised when an operation that requires at least one point receives an
    empty dataset."""


class ServiceError(ReproError, RuntimeError):
    """Base class for errors raised by the concurrent query service layer.

    Everything the supervisor cannot hide behind a retry — a request that
    exhausted its retry budget, a worker that cannot be respawned, a closed
    service — surfaces as a subclass of this.
    """


class SnapshotError(ServiceError):
    """Raised when a session snapshot file cannot be trusted.

    Covers truncated files, checksum mismatches, unknown format versions and
    undecodable payloads.  Recovery code treats this as "snapshot absent":
    the session is rebuilt cold from authoritative data plus the write-ahead
    log, never from the suspect bytes.
    """


class FrameError(ServiceError):
    """Raised when a wire frame of the network front end cannot be trusted.

    ``recoverable`` distinguishes damage the connection can survive (an
    intact header with a bad payload — the stream re-synchronises at the
    next frame) from damage that desynchronises the stream entirely (bad
    magic, unknown protocol version), after which the connection must be
    closed.  ``kind`` carries the frame kind when the header yielded one.
    """

    def __init__(self, message: str, recoverable: bool = False, kind=None):
        super().__init__(message)
        self.recoverable = bool(recoverable)
        self.kind = kind


class ConnectionLostError(ServiceError):
    """Raised by the network client when a server connection died mid-use.

    The client retries transparently (reconnect + idempotent resend); this
    escapes to the caller only once the retry budget is spent.
    """


class ServerBusyError(ServiceError):
    """Raised when the server shed the connection (at capacity or draining).

    The client treats this as retryable with backoff; it escapes to the
    caller only once the retry budget is spent.
    """


class DeadlineExceededError(ServiceError):
    """Raised when a service request missed its per-request deadline.

    The supervisor converts worker-level deadline misses into retries (after
    respawning the worker); this escapes to the caller only once the retry
    budget is spent.
    """


class WorkerCrashError(ServiceError):
    """Raised when a shard worker died (or its pipe broke) mid-request.

    Like :class:`DeadlineExceededError` this is retried internally and only
    reaches the caller when the worker keeps dying past the retry budget.
    """
