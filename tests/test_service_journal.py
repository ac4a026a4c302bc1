"""Tests for the durable outcome journal and crash-recovery resume
(repro/service/journal.py + the ``--journal`` wiring of service.py,
daemon.py, and the ``python -m repro resume`` CLI).

The acceptance pins:

* The journal survives torn tails (crash mid-append): corrupt bytes are
  truncated on open, intact records are kept.
* A journaled sweep SIGKILLed mid-suite resumes from the journal,
  re-runs *only* the unfinished clips, and the merged results are
  bit-for-bit identical to an uninterrupted run.
* Resume refuses a journal written under a different engine fingerprint.
"""

import json
import os
import signal
import struct
import subprocess
import sys
import textwrap
import time
import zlib

import pytest

from repro.data.via_bench import generate_via_clip
from repro.errors import JournalError, ServiceError
from repro.litho.simulator import LithoConfig
from repro.service import (
    EngineSpec,
    MaskOptService,
    OptResult,
    OutcomeJournal,
    open_journal,
    resume_suite,
)
from repro.service.journal import JOURNAL_MAGIC, _FRAME

OVERRIDES = {"max_updates": 3, "initial_bias_nm": 3.0}


def _litho_config(**extra):
    return LithoConfig(pixel_nm=8.0, max_kernels=4, **extra)


def _suite():
    return [
        generate_via_clip("jv1", n_vias=2, seed=51, clip_nm=1024),
        generate_via_clip("jv2", n_vias=2, seed=52, clip_nm=1024),
        generate_via_clip("jv3", n_vias=2, seed=53, clip_nm=1024),
    ]


def _result(ticket=1, clip="jv1"):
    return OptResult(
        request_id=ticket, clip_name=clip, engine="mbopc",
        epe_nm=1.25, pvband_nm2=10.0, runtime_s=0.5, steps=3,
        early_exited=False, verified_epe_nm=1.25, outcome="verified",
    )


# -- framing / recovery units -------------------------------------------------

class TestJournalFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "a.journal")
        with OutcomeJournal(path) as journal:
            journal.log_admit(1, "jv1", "mbopc", "fp00")
            journal.log_result(1, _result(), "fp00")
        reopened = OutcomeJournal(path)
        kinds = [r["type"] for r in reopened.records]
        assert kinds == ["meta", "admit", "result"]
        assert reopened.results_for("fp00")["jv1"]["epe_nm"] == 1.25
        assert reopened.fingerprints() == ("fp00",)
        assert reopened.truncated_bytes == 0
        stats = reopened.stats()
        assert stats["admitted"] == 1 and stats["results"] == 1
        reopened.close()

    def test_torn_tail_is_truncated_not_fatal(self, tmp_path):
        path = str(tmp_path / "torn.journal")
        with OutcomeJournal(path) as journal:
            journal.log_admit(1, "jv1", "mbopc", "fp00")
            journal.log_result(1, _result(), "fp00")
        # Simulate a crash mid-append: half a frame of garbage.
        with open(path, "ab") as handle:
            handle.write(_FRAME.pack(9999, 123456))
            handle.write(b"only-part-of-the-payload")
        size_before = os.path.getsize(path)
        recovered = OutcomeJournal(path)
        assert [r["type"] for r in recovered.records] == [
            "meta", "admit", "result"
        ]
        assert recovered.truncated_bytes > 0
        assert os.path.getsize(path) < size_before
        # ...and the truncated journal keeps accepting appends.
        recovered.log_admit(2, "jv2", "mbopc", "fp00")
        recovered.close()
        with OutcomeJournal(path) as reopened:
            assert reopened.records[-1]["clip"] == "jv2"

    def test_bad_crc_stops_the_scan(self, tmp_path):
        path = str(tmp_path / "crc.journal")
        with OutcomeJournal(path) as journal:
            journal.log_admit(1, "jv1", "mbopc", "fp00")
        payload = json.dumps({"type": "admit", "ticket": 2}).encode()
        with open(path, "ab") as handle:
            handle.write(_FRAME.pack(
                len(payload), zlib.crc32(payload) ^ 0xFF
            ))
            handle.write(payload)
        recovered = OutcomeJournal(path)
        assert [r["type"] for r in recovered.records] == ["meta", "admit"]
        assert recovered.truncated_bytes > 0
        recovered.close()

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "notajournal"
        path.write_bytes(b"definitely not " + JOURNAL_MAGIC)
        with pytest.raises(JournalError, match="bad magic"):
            OutcomeJournal(str(path))

    def test_closed_journal_rejects_appends(self, tmp_path):
        journal = OutcomeJournal(str(tmp_path / "c.journal"))
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.log_admit(1, "jv1", "mbopc", "fp")

    def test_open_journal_normalizes(self, tmp_path):
        assert open_journal(None) == (None, False)
        owned, flag = open_journal(str(tmp_path / "n.journal"))
        assert isinstance(owned, OutcomeJournal) and flag is True
        passthrough, flag2 = open_journal(owned)
        assert passthrough is owned and flag2 is False
        owned.close()

    def test_result_record_round_trips_optresult(self):
        restored = OptResult.from_dict(_result().to_dict())
        assert restored == OptResult.from_dict(_result().to_dict())
        assert restored.epe_nm == 1.25
        assert restored.outcome == "verified"
        with pytest.raises(ServiceError, match="bad OptResult record"):
            OptResult.from_dict({"clip": "x"})


# -- resume semantics ---------------------------------------------------------

def test_partial_journal_resume_is_bit_for_bit(tmp_path):
    """Journal a full sweep, keep only a prefix of its records (as if
    killed mid-suite), resume: only the missing clips re-run and the
    merge equals the uninterrupted reference."""
    suite = _suite()
    reference = MaskOptService(litho_config=_litho_config()).run_suite(
        "mbopc", suite, engine_overrides=OVERRIDES,
    )

    # Build a journal holding admissions for all clips but the result of
    # only the first: exactly the state a kill after one verification
    # flush leaves behind.
    spec = EngineSpec(
        engine="mbopc", litho=_litho_config(),
        overrides=tuple(sorted(OVERRIDES.items())),
    )
    fingerprint = spec.fingerprint()
    path = str(tmp_path / "partial.journal")
    with OutcomeJournal(path) as journal:
        for index, clip in enumerate(suite):
            journal.log_admit(index, clip, "mbopc", fingerprint)
        journal.log_result(0, reference[0], fingerprint)

    service = MaskOptService(litho_config=_litho_config())
    results, replayed = resume_suite(
        service, "mbopc", suite, path, workers=2,
        engine_overrides=OVERRIDES,
    )
    assert replayed == 1
    assert [r.clip_name for r in results] == [c.name for c in suite]
    for got, ref in zip(results, reference):
        assert got.epe_nm == ref.epe_nm
        assert got.pvband_nm2 == ref.pvband_nm2
        assert got.steps == ref.steps
        assert got.verified_epe_nm == ref.verified_epe_nm
    # The resumed run journaled the remainder: a second resume replays
    # everything and runs nothing.
    results2, replayed2 = resume_suite(
        service, "mbopc", suite, path, workers=2,
        engine_overrides=OVERRIDES,
    )
    assert replayed2 == len(suite)
    assert [r.epe_nm for r in results2] == [r.epe_nm for r in results]


def test_resume_refuses_fingerprint_mismatch(tmp_path):
    path = str(tmp_path / "foreign.journal")
    with OutcomeJournal(path) as journal:
        journal.log_admit(0, "jv1", "mbopc", "feedfacefeedface")
    service = MaskOptService(litho_config=_litho_config())
    with pytest.raises(JournalError, match="refusing to merge"):
        resume_suite(
            service, "mbopc", _suite(), path,
            engine_overrides=OVERRIDES,
        )


def test_resume_needs_clips(tmp_path):
    service = MaskOptService(litho_config=_litho_config())
    with pytest.raises(JournalError, match="at least one clip"):
        resume_suite(
            service, "mbopc", [], str(tmp_path / "x.journal"),
        )


def test_fingerprint_tracks_identity_not_backend(tmp_path):
    """The engine fingerprint covers everything that changes numbers
    (engine, overrides, litho optics) and nothing that doesn't
    (array backend, store path)."""
    base = EngineSpec(engine="mbopc", litho=_litho_config(),
                      overrides=tuple(sorted(OVERRIDES.items())))
    for deployment in ({"backend": "numpy"}, {"spectra_store": str(tmp_path)}):
        same = EngineSpec(engine="mbopc", litho=_litho_config(**deployment),
                          overrides=tuple(sorted(OVERRIDES.items())))
        assert base.fingerprint() == same.fingerprint()
    other_engine = EngineSpec(engine="damo", litho=_litho_config(),
                              overrides=())
    assert base.fingerprint() != other_engine.fingerprint()
    other_overrides = EngineSpec(
        engine="mbopc", litho=_litho_config(),
        overrides=tuple(sorted({**OVERRIDES, "max_updates": 5}.items())),
    )
    assert base.fingerprint() != other_overrides.fingerprint()
    other_optics = EngineSpec(
        engine="mbopc", litho=_litho_config(defocus_nm=30.0),
        overrides=tuple(sorted(OVERRIDES.items())),
    )
    assert base.fingerprint() != other_optics.fingerprint()


def test_fingerprint_digest_is_pinned():
    """A journal stamps this digest on every record: a change to the
    spec's fields (adding or dropping one, or its rendering) must not
    change it, or every existing journal is orphaned."""
    spec = EngineSpec(
        engine="mbopc",
        litho=LithoConfig(pixel_nm=8.0, max_kernels=4, spectra_store="/x"),
        overrides=(("max_updates", 2),),
    )
    assert spec.fingerprint() == "bace075d128714bc"


# -- SIGKILL + resume smoke (the whole point) ---------------------------------

_KILLABLE_SWEEP = textwrap.dedent("""
    import sys

    from repro.litho.simulator import LithoConfig
    from repro.service import MaskOptService
    from tests.test_service_journal import OVERRIDES, _litho_config, _suite

    service = MaskOptService(litho_config=_litho_config())
    service.run_suite(
        "mbopc", _suite(), workers=2, engine_overrides=OVERRIDES,
        journal=sys.argv[1], stream_min_bin=1,
    )
    print("SWEEP-COMPLETED", flush=True)
""")


def test_sigkilled_sweep_resumes_bit_for_bit(tmp_path):
    """Run a journaled 2-worker sweep in a subprocess, SIGKILL it once the
    journal holds at least one verified result, resume in-process: only
    the unfinished clips re-run and the merge equals an uninterrupted
    reference run."""
    path = str(tmp_path / "killed.journal")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (
            os.path.join(os.path.dirname(__file__), os.pardir, "src"),
            os.path.join(os.path.dirname(__file__), os.pardir),
            env.get("PYTHONPATH", ""),
        ) if p
    )
    # A session of its own puts the sweep, its spawn workers and the
    # resource tracker in one process group, so one killpg reaches all.
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILLABLE_SWEEP, path],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        start_new_session=True,
    )
    pgid = proc.pid
    try:
        deadline = time.monotonic() + 120.0
        killed = False
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break  # finished before we could kill it — also fine
            if os.path.exists(path):
                try:
                    journal = OutcomeJournal(path)
                    results = len(
                        [r for r in journal.records
                         if r["type"] == "result"]
                    )
                    journal.close()
                except JournalError:
                    results = 0  # racing the writer's first bytes
                if results >= 1:
                    os.killpg(pgid, signal.SIGKILL)
                    killed = True
                    break
            time.sleep(0.02)
        proc.wait(timeout=60)
    finally:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=60)
        proc.stdout.close()
    deadline = time.monotonic() + 10.0
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, "sweep process group outlived it"
        time.sleep(0.05)

    reference = MaskOptService(litho_config=_litho_config()).run_suite(
        "mbopc", _suite(), engine_overrides=OVERRIDES,
    )
    service = MaskOptService(litho_config=_litho_config())
    results, replayed = resume_suite(
        service, "mbopc", _suite(), path, workers=2,
        engine_overrides=OVERRIDES,
    )
    if killed:
        assert replayed >= 1
    assert [r.clip_name for r in results] == [r.clip_name for r in reference]
    for got, ref in zip(results, reference):
        assert got.epe_nm == ref.epe_nm
        assert got.pvband_nm2 == ref.pvband_nm2
        assert got.steps == ref.steps
        assert got.verified_epe_nm == ref.verified_epe_nm
