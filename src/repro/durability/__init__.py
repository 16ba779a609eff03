"""Durable appliance state: write-ahead metadata journal, compacted
snapshots, and crash recovery (see DESIGN.md section 10).

The paper positions NeST as an *appliance*: "storage that can be
trusted" implies its promises -- lots, ACLs, the replica catalog --
must survive a crash.  This package makes every durable metadata
mutation a journal record, folds the journal into atomic snapshots,
and rebuilds the managers from snapshot + replay on restart.
"""

from repro.durability.journal import (
    FORMAT_VERSION,
    FormatVersionError,
    JournalError,
    MetadataJournal,
    ReplayResult,
)
from repro.durability.manager import DurabilityManager
from repro.durability.recovery import RecoveryReport, StorageReplayer
from repro.durability.snapshot import SnapshotError, SnapshotStore

__all__ = [
    "FORMAT_VERSION",
    "FormatVersionError",
    "JournalError",
    "MetadataJournal",
    "ReplayResult",
    "DurabilityManager",
    "RecoveryReport",
    "StorageReplayer",
    "SnapshotError",
    "SnapshotStore",
]
