"""Test doubles. :class:`FaultyBackend` fails a session on a schedule;
the fault tests and ``serve-demo --poison-shard`` use it."""

from __future__ import annotations

from repro.core.session import UpdateStats
from repro.errors import ConfigError, SimulationError


class FaultyBackend:
    """Session proxy that injects a fault after ``fail_after`` ops.

    Wraps a real session and forwards everything; once the programmed
    operation count is reached the selected failure ``mode`` kicks in:

    - ``"wedge"`` (default, the original behaviour) -- every further
      transaction raises :class:`SimulationError` forever; the sharded
      layer poisons the shard, a replica set fences the replica.
    - ``"crash"`` -- transactions raise for a window of ``fail_ops``
      operations, then the backend recovers (a rebooted process: its
      *content is stale*, so it must be rebuilt from a peer before it
      can serve again -- exactly what the repair path does).
    - ``"diverge"`` -- updates silently drop their words while
      reporting success; nothing raises. Only the replica set's
      content-hash divergence beats catch this one.

    Snapshot/restore/reset pass through untouched (they ride
    ``__getattr__``), so a wedged or crashed replica can still be
    rebuilt from a donor snapshot.
    """

    MODES = ("wedge", "crash", "diverge")

    def __init__(self, session, fail_after: int, *, mode: str = "wedge",
                 fail_ops: int = 25) -> None:
        if mode not in self.MODES:
            raise ConfigError(
                f"fault mode must be one of {self.MODES}, got {mode!r}"
            )
        if fail_ops < 1:
            raise ConfigError(f"fail_ops must be >= 1, got {fail_ops}")
        self._session = session
        self._fail_after = fail_after
        self._mode = mode
        self._fail_ops = fail_ops
        self._ops = 0

    def heal(self) -> None:
        """Clear the injected fault (models swapping in a healthy node).

        The backend's *content* stays whatever the fault left behind, so
        a wedged/crashed replica still needs a rebuild before serving.
        """
        self._fail_after = float("inf")

    def _faulting(self) -> bool:
        if self._ops <= self._fail_after:
            return False
        if self._mode == "crash":
            return self._ops <= self._fail_after + self._fail_ops
        return True

    def _tick(self) -> None:
        self._ops += 1
        if self._mode != "diverge" and self._faulting():
            raise SimulationError(
                f"injected {self._mode} fault after {self._fail_after} ops"
            )

    def update(self, words, group=None):
        self._tick()
        if self._mode == "diverge" and self._faulting():
            # Silently lose the write but report plausible stats: the
            # replica now disagrees without ever raising.
            words = list(words)
            per_beat = self._session.words_per_beat
            beats = -(-len(words) // per_beat)
            return UpdateStats(
                words=len(words), beats=beats,
                cycles=beats + self._session.update_latency - 1,
            )
        return self._session.update(words, group=group)

    def search(self, keys, groups=None):
        self._tick()
        return self._session.search(keys, groups=groups)

    def delete(self, key):
        self._tick()
        return self._session.delete(key)

    def __getattr__(self, name):
        return getattr(self._session, name)


__all__ = ["FaultyBackend"]
