"""Durable outcome journal: a write-ahead log that makes results survive
process death.

A killed daemon or multi-worker sweep used to forfeit everything in flight —
including clips that had already finished optimization *and* passed
verification.  :class:`OutcomeJournal` is the fix: an append-only,
CRC-framed log of request admissions and verified
:class:`~repro.service.api.OptResult`\\ s.  The serving paths append a
``result`` record the moment a clip's verification lands (fsync'd before
the append returns), so after a SIGKILL the journal holds exactly the
completed prefix; :func:`resume_suite` (``python -m repro resume``)
replays it, skips the recorded clips, re-dispatches only the unfinished
ones, and merges — bit-for-bit identical to an uninterrupted run,
because every engine is deterministic from its spec.

File format
-----------

An 8-byte magic header (:data:`JOURNAL_MAGIC`), then zero or more
records, each framed as::

    u32 LE payload length | u32 LE CRC-32 of payload | payload (JSON, utf-8)

Appends are atomic-in-effect: the frame is written in one ``write`` call
and fsync'd.  A crash mid-append leaves a *torn tail* — short frame, bad
CRC, or unparseable JSON — which :meth:`OutcomeJournal.open` detects and
truncates (by design that is recovery, not an error; only a bad magic
header raises :class:`~repro.errors.JournalError`, because that means
the path is not a journal at all).

Every record carries the :meth:`~repro.service.sharding.EngineSpec.
fingerprint` of the spec that produced it.  Resume refuses a journal
whose records were computed under a different fingerprint — merging
results from a different engine, override set or litho config would
silently mix incompatible numbers.

Record types::

    {"type": "meta",   "version": 1}
    {"type": "admit",  "ticket": 7, "clip": "via_03", "engine": "mbopc",
     "fp": "1f3a..."}
    {"type": "result", "ticket": 7, "clip": "via_03", "engine": "mbopc",
     "fp": "1f3a...", "result": {...OptResult.to_dict()...}}
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from typing import Any, Mapping

from repro.errors import JournalError
from repro.geometry.layout import Clip
from repro.service.api import OptResult
from repro.service.faults import maybe_fault

JOURNAL_MAGIC = b"RJRNL001"
"""First 8 bytes of every journal file."""

JOURNAL_VERSION = 1

_FRAME = struct.Struct("<II")  # payload length, CRC-32 of payload


class OutcomeJournal:
    """Append-only, CRC-framed, fsync'd log of admissions and results.

    Thread-safe: the daemon's resolver thread and a sweep's consumer
    loop may append concurrently.  ``open()`` scans existing records
    (truncating a torn tail) so the same object serves both replay and
    append — resume opens the journal once and keeps writing to it.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._handle = None
        self._records: list[dict] = []
        self._truncated_bytes = 0
        self._open()

    # -- lifecycle -----------------------------------------------------------
    def _open(self) -> None:
        fresh = not os.path.exists(self.path) or \
            os.path.getsize(self.path) == 0
        # "a+b" would always append; we need to truncate torn tails, so
        # open r+b (creating first when missing) and seek ourselves.
        if fresh:
            with open(self.path, "wb") as handle:
                handle.write(JOURNAL_MAGIC)
                handle.flush()
                os.fsync(handle.fileno())
        self._handle = open(self.path, "r+b")
        try:
            magic = self._handle.read(len(JOURNAL_MAGIC))
            if magic != JOURNAL_MAGIC:
                raise JournalError(
                    f"{self.path!r} is not an outcome journal "
                    f"(bad magic {magic!r})"
                )
            good_end = self._scan()
        except BaseException:
            self._handle.close()
            self._handle = None
            raise
        size = os.path.getsize(self.path)
        if good_end < size:
            # Torn tail from a crash mid-append: recover by truncation.
            self._truncated_bytes = size - good_end
            self._handle.truncate(good_end)
            self._handle.flush()
            os.fsync(self._handle.fileno())
        self._handle.seek(good_end)
        if fresh:
            self.append({"type": "meta", "version": JOURNAL_VERSION})

    def _scan(self) -> int:
        """Parse records from the open handle; returns the offset just
        past the last *intact* record."""
        good_end = self._handle.tell()
        while True:
            header = self._handle.read(_FRAME.size)
            if len(header) < _FRAME.size:
                return good_end
            length, crc = _FRAME.unpack(header)
            payload = self._handle.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                return good_end
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                return good_end
            if not isinstance(record, dict):
                return good_end
            self._records.append(record)
            good_end = self._handle.tell()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "OutcomeJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- append --------------------------------------------------------------
    def append(self, record: Mapping[str, Any]) -> None:
        """Frame, write, and fsync one record; durable on return."""
        maybe_fault("journal.append", str(record.get("type", "")))
        payload = json.dumps(dict(record), sort_keys=True).encode("utf-8")
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        with self._lock:
            if self._handle is None:
                raise JournalError(
                    f"journal {self.path!r} is closed; cannot append"
                )
            self._handle.write(frame)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._records.append(dict(record))

    def log_admit(
        self, ticket: int, clip: Clip | str, engine: str, fingerprint: str,
    ) -> None:
        self.append({
            "type": "admit",
            "ticket": int(ticket),
            "clip": clip if isinstance(clip, str) else clip.name,
            "engine": engine,
            "fp": fingerprint,
        })

    def log_result(
        self, ticket: int, result: OptResult, fingerprint: str,
    ) -> None:
        self.append({
            "type": "result",
            "ticket": int(ticket),
            "clip": result.clip_name,
            "engine": result.engine,
            "fp": fingerprint,
            "result": result.to_dict(),
        })

    # -- replay --------------------------------------------------------------
    @property
    def records(self) -> tuple[dict, ...]:
        with self._lock:
            return tuple(self._records)

    @property
    def truncated_bytes(self) -> int:
        """Bytes of torn tail dropped when this journal was opened."""
        return self._truncated_bytes

    def fingerprints(self) -> tuple[str, ...]:
        """Every engine fingerprint stamped on a record, in first-seen
        order."""
        seen: dict[str, None] = {}
        for record in self.records:
            fp = record.get("fp")
            if fp:
                seen.setdefault(fp, None)
        return tuple(seen)

    def results_for(self, fingerprint: str) -> dict[str, dict]:
        """``{clip name: OptResult.to_dict()}`` of every completed clip
        recorded under ``fingerprint`` (last record wins)."""
        out: dict[str, dict] = {}
        for record in self.records:
            if (
                record.get("type") == "result"
                and record.get("fp") == fingerprint
                and isinstance(record.get("result"), dict)
            ):
                out[str(record.get("clip"))] = record["result"]
        return out

    def stats(self) -> dict[str, Any]:
        records = self.records
        return {
            "path": self.path,
            "records": len(records),
            "admitted": sum(
                1 for r in records if r.get("type") == "admit"
            ),
            "results": sum(
                1 for r in records if r.get("type") == "result"
            ),
            "truncated_bytes": self._truncated_bytes,
        }


def open_journal(journal: "OutcomeJournal | str | os.PathLike | None") \
        -> tuple[OutcomeJournal | None, bool]:
    """Normalize a ``journal=`` argument: pass instances through, open
    paths.  Returns ``(journal, owned)`` — ``owned`` says the caller
    opened it here and should close it when done."""
    if journal is None:
        return None, False
    if isinstance(journal, OutcomeJournal):
        return journal, False
    return OutcomeJournal(os.fspath(journal)), True


def resume_suite(
    service,
    engine: Any,
    clips,
    journal: "OutcomeJournal | str | os.PathLike",
    workers: int = 1,
    engine_overrides: Mapping[str, Any] | None = None,
    verify: bool = True,
    **run_kwargs,
) -> tuple[list[OptResult], int]:
    """Finish an interrupted suite from its journal.

    Builds the same :class:`~repro.service.sharding.EngineSpec` the
    original sweep would, replays the journal's completed clips under
    that spec's fingerprint, and re-dispatches only the remainder via
    ``service.run_suite(..., journal=...)`` (so the resumed run
    keeps journaling — resumable resumes).  Returns ``(results,
    replayed)``: one result per clip in suite order, and how many came
    from the journal instead of being recomputed.  Deterministic engines
    make the merge bit-for-bit identical to an uninterrupted run.

    Raises :class:`~repro.errors.JournalError` if the journal's records
    were computed under a different fingerprint — results from another
    engine, override set, or litho config must never be merged.
    """
    from repro.service.sharding import EngineSpec

    clip_list = list(clips)
    if not clip_list:
        raise JournalError("resume needs at least one clip")
    spec = EngineSpec(
        engine=engine,
        litho=service.simulator.config,
        overrides=tuple(sorted((engine_overrides or {}).items())),
    )
    fingerprint = spec.fingerprint()
    opened, owned = open_journal(journal)
    try:
        recorded_fps = opened.fingerprints()
        if recorded_fps and fingerprint not in recorded_fps:
            raise JournalError(
                f"journal {opened.path!r} was written under engine "
                f"fingerprint(s) {', '.join(recorded_fps)} but the "
                f"requested spec ({spec.label}) fingerprints as "
                f"{fingerprint}; refusing to merge results from a "
                "different engine/overrides/litho-config"
            )
        recorded = opened.results_for(fingerprint)
        remaining = [
            clip for clip in clip_list if clip.name not in recorded
        ]
        fresh: dict[str, OptResult] = {}
        if remaining:
            for result in service.run_suite(
                engine, remaining, workers=workers,
                engine_overrides=engine_overrides, verify=verify,
                journal=opened, **run_kwargs,
            ):
                fresh[result.clip_name] = result
        results = []
        replayed = 0
        for clip in clip_list:
            if clip.name in fresh:
                results.append(fresh[clip.name])
            else:
                results.append(OptResult.from_dict(recorded[clip.name]))
                replayed += 1
        return results, replayed
    finally:
        if owned:
            opened.close()
