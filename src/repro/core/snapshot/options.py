"""Store-level fast-path configuration.

The snapshot store layers four accelerations over the paper's exact
cost model (Section 4.1 / Section 7): keyframe checkpoints in the RCS
archives, an LRU cache of checked-out revision texts, coalescing of
concurrent check-ins of the same URL, and append-only journal
persistence.  Every layer is independently toggleable, and — the same
differential-test discipline as ``HtmlDiffOptions`` — all of them are
required to be **output-neutral**: :meth:`StoreOptions.reference`
switches everything off and the tests assert byte-identical checkouts,
diffs, views, and reloads either way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["StoreOptions"]


@dataclass(frozen=True)
class StoreOptions:
    """Fast-path switches for :class:`~repro.core.snapshot.store.SnapshotStore`.

    * ``keyframe_interval`` — every K-th revision of each archive keeps
      a full-text checkpoint so deep checkouts walk at most K-1 reverse
      deltas; 0 restores the paper's walk-the-whole-chain cost model.
    * ``checkout_cache_size`` — LRU entry bound for the shared
      ``(url, revision) -> text`` cache under ``diff``/``view``/
      ``view_at``; 0 disables it.
    * ``coalesce_checkins`` — concurrent remembers of the same URL at
      the same instant share one fetch + one RCS check-in, fanned out
      to every requesting user's control file under a single URL-lock
      acquisition.
    * ``journal_persistence`` — ``append_store`` appends new revisions
      and stamps to a journal instead of rewriting every ``,v`` file
      and ``users.ctl``; off, it degrades to a full rewrite.
    """

    keyframe_interval: int = 16
    checkout_cache_size: int = 64
    coalesce_checkins: bool = True
    journal_persistence: bool = True

    def __post_init__(self) -> None:
        if self.keyframe_interval < 0:
            raise ValueError(
                f"keyframe_interval must be >= 0, got {self.keyframe_interval}"
            )
        if self.checkout_cache_size < 0:
            raise ValueError(
                f"checkout_cache_size must be >= 0, got {self.checkout_cache_size}"
            )

    def reference(self) -> "StoreOptions":
        """The paper's exact cost model: every fast-path layer off."""
        return replace(
            self,
            keyframe_interval=0,
            checkout_cache_size=0,
            coalesce_checkins=False,
            journal_persistence=False,
        )
