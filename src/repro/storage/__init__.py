"""On-disk persistence for chains and light-node header files.

* Full-node chains persist through :class:`DurableStore`
  (:mod:`repro.storage.durable`): an append-only, CRC-framed record log
  with crash-atomic manifest checkpoints.  ``append_block`` and reorgs
  persist O(delta), recovery survives a kill at any byte, and
  :meth:`DurableStore.open` rebuilds the indexes and byte-checks every
  stored header.  :func:`verify_store` is the offline fsck.
* Light nodes persist only their header list through
  :func:`save_headers` / :func:`load_headers`
  (:mod:`repro.storage.chain_store`).
"""

from repro.storage.chain_store import load_headers, save_headers
from repro.storage.durable import DurableStore, StoreReport, verify_store
from repro.storage.vfs import CountingVfs, CrashPoint, CrashVfs, Vfs

__all__ = [
    "save_headers",
    "load_headers",
    "DurableStore",
    "StoreReport",
    "verify_store",
    "Vfs",
    "CountingVfs",
    "CrashVfs",
    "CrashPoint",
]
