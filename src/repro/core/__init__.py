"""PaRiS core: the paper's client, write cache, messages and metrics.

The partition server lives in the protocol engine
(:class:`repro.protocols.paris.PaRiSServer`).
"""

from .cache import WriteCache
from .client import PaRiSClient, ReadResult, TransactionHandle, TransactionStateError
from .metrics import ServerMetrics

__all__ = [
    "PaRiSClient",
    "ReadResult",
    "ServerMetrics",
    "TransactionHandle",
    "TransactionStateError",
    "WriteCache",
]
