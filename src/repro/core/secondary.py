"""Secondary master: master-failure tolerance (paper Appendix E).

"Since a TreeServer program is master-driven, the master is the only single
point of failure which can be strengthened by enabling a secondary master.
... the master needs to periodically synchronize the job metadata and tree
construction progress to the secondary master.  New tasks assigned since
the last synchronization will be reassigned by the secondary master, which
accepts but ignores old responses."

The implementation here:

* the primary master syncs every *completed tree* to the secondary (job
  metadata is shared at setup);
* on detected master failure the secondary takes over: it broadcasts a
  failover notice (workers drop all task state and redirect results), then
  runs a fresh :class:`~repro.core.master.MasterActor` on its own
  :class:`~repro.runtime.base.Host`, pre-seeded with the synced trees — so
  only trees incomplete at the crash are retrained, under a fresh uid
  generation that fences off stragglers.  The runtime detects the crash
  and names the machines dead by then; the standby sees nothing else of
  its substrate.

Trained models are unaffected by a failover (exact training is
deterministic), which the fault-tolerance tests assert.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..cluster.network import Message
from .config import SystemConfig
from .jobs import TrainingJob
from .master import MasterActor, _TableInfo
from .tasks import MasterFailoverMsg, TreeCompletedSync
from .tree import DecisionTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.base import Host

#: uid namespace width per master generation: fresh generations allocate
#: uids above every uid the previous generation could have issued.
UID_GENERATION_SPAN = 1_000_000_000


class SecondaryMasterActor:
    """Hot standby for the master, running on its own machine."""

    def __init__(
        self,
        host: "Host",
        table_info: _TableInfo,
        jobs: list[TrainingJob],
        system: SystemConfig,
        holders: dict[int, list[int]],
    ) -> None:
        self.host = host
        self.machine_id = host.machine_id
        self.info = table_info
        self.jobs = jobs
        self.system = system
        # Deep-copy the placement: the primary mutates its own holder
        # lists on worker crashes (`holders[c].remove(worker)`), and an
        # aliased view would double-apply those removals — the standby
        # re-derives liveness itself at failover time.
        self.holders = {c: list(ws) for c, ws in holders.items()}
        self.completed: dict[str, dict[int, DecisionTree]] = {}
        self.promoted: MasterActor | None = None

    # ------------------------------------------------------------------
    # standby duties
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        """Receive checkpoints while on standby; act as master after it."""
        payload = message.payload
        if isinstance(payload, TreeCompletedSync):
            self.completed.setdefault(payload.job_name, {})[
                payload.tree_index
            ] = DecisionTree.from_dict(payload.tree)
            return
        if self.promoted is not None:
            self.promoted.handle_message(message)
            return
        raise RuntimeError(
            f"secondary master got unexpected payload "
            f"{type(payload).__name__} while on standby"
        )

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------
    def on_master_failure(self, dead: set[int]) -> None:
        """Take over as the master, with the machines in ``dead`` gone
        (called by the failure detector)."""
        if self.promoted is not None:
            return
        fence = UID_GENERATION_SPAN
        notice = MasterFailoverMsg(
            new_master_id=self.machine_id, min_live_uid=fence
        )
        live_workers = sorted(
            {w for ws in self.holders.values() for w in ws if w not in dead}
        )
        for worker in live_workers:
            self.host.send(
                worker, "master_failover", notice, self.host.cost.control_bytes
            )
        live_holders = {
            c: [w for w in ws if w not in dead]
            for c, ws in self.holders.items()
        }
        for column, holders in live_holders.items():
            if not holders:
                raise RuntimeError(
                    f"column {column} lost all replicas before failover"
                )
        self.promoted = MasterActor(
            host=self.host,
            table_info=self.info,
            jobs=self.jobs,
            system=self.system,
            holders=live_holders,
            uid_offset=fence,
            completed=self.completed,
        )
        self.promoted.start()
