"""Disk-persistent kernel-spectra store.

Frequency-native kernel sets build their band-limited SOCS spectra per
grid shape (:meth:`repro.litho.kernels.OpticalKernelSet.band_spectra`).
The build — a per-grid TCC factor plus an eigendecomposition of its
small Gram — costs ~10-70 ms per shape (2-core host), which is cached
in-process but paid again by every fresh worker.
:class:`KernelSpectraStore` persists the finished
:class:`~repro.litho.kernels.GridBandSpectra` to disk, keyed by an
*optics fingerprint* (every input of the build: pixel pitch, focus,
source, wavelength, NA, SOCS truncation knobs) plus the grid shape, so a
warm store turns the per-shape warmup into one ``.npz`` read.

Correctness properties:

* The spectra build is FFT-free (pure ``numpy.linalg.eigh`` over the
  TCC factor's Gram), so no transform setting enters the key.
* Stored arrays are persisted bit-for-bit (``savez``, no compression of
  the float payload semantics), so a warm load reproduces the in-process
  build exactly — simulation results do not depend on store state.
* Writes are atomic (temp file + ``os.replace``), so concurrent workers
  warming the same store can never serve a torn file.
* Unreadable, truncated, or mismatched entries are treated as misses:
  the spectra are rebuilt and the entry rewritten.

The store is opt-in: set ``LithoConfig(spectra_store="/path")``, or
export ``REPRO_SPECTRA_STORE=/path`` and let the ``python -m repro`` CLI
pick it up via :meth:`KernelSpectraStore.from_env` (library callers who
want the env fallback call ``from_env`` themselves — a
``LithographySimulator`` alone never reads the environment).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
import zipfile

import numpy as np

from repro.errors import LithoError

STORE_FORMAT_VERSION = 4
"""Bump when the on-disk layout or the spectra semantics change; entries
with another version are ignored (treated as cold).  Version 2 added a
content checksum over the array payloads — a bit-flipped entry (disk
rot, foreign tools) is detected on load and rebuilt instead of silently
corrupting every simulation that warms from it.  Version 3 truncates
SOCS only at eigenvalue-cluster boundaries, which can lower the stored
kernel count (the ``weights`` length) for the same optics.  Version 4
builds the kernels from the small Gram of the TCC's source factor
(:func:`repro.litho.tcc.socs_spectra`), which moves their bits at
round-off level, so equal fingerprints still mean bit-identical
spectra."""

ORPHAN_TMP_MAX_AGE_S = 3600.0
"""Temp files older than this are presumed orphaned by a killed writer
and swept on the next :func:`open_store` of their root (an in-flight
atomic write lives milliseconds, not an hour)."""

_OPEN_STORES: dict[str, "KernelSpectraStore"] = {}
_OPEN_LOCK = threading.Lock()


def _normalize_root(root: str) -> str:
    """Canonical identity of a store directory.

    ``expanduser`` + ``realpath`` so a ``~``-prefixed path, a symlinked
    root, or a trailing slash all resolve to one key — two spellings of
    one directory must share one singleton (and one set of stats), never
    race each other as separate instances.
    """
    return os.path.realpath(os.path.expanduser(root))


def open_store(root: str) -> "KernelSpectraStore":
    """Per-root singleton store, so every simulator pointed at one
    directory shares one stats-bearing instance (kernel sets are cached
    process-wide and would otherwise report against a stale object)."""
    key = _normalize_root(root)
    with _OPEN_LOCK:
        store = _OPEN_STORES.get(key)
        if store is None:
            store = KernelSpectraStore(key)
            _OPEN_STORES[key] = store
            created = True
        else:
            created = False
    if created:
        # First open in this process: reclaim temp files abandoned by
        # writers that died mid-save (concurrent pool workers make
        # those a real possibility, not a theoretical one).
        store.sweep_orphans()
    return store

SPECTRA_STORE_ENV = "REPRO_SPECTRA_STORE"
"""Environment variable naming a default store directory."""


def optics_fingerprint(kernel_set) -> str:
    """Hex digest of every input that determines a set's band spectra.

    Two kernel sets with equal fingerprints build bit-identical
    :class:`~repro.litho.kernels.GridBandSpectra` for every grid shape,
    so their store entries are interchangeable.  The build never runs
    a transform.
    """
    source = kernel_set.source
    payload = {
        "version": STORE_FORMAT_VERSION,
        "pixel_nm": repr(float(kernel_set.pixel_nm)),
        "defocus_nm": repr(float(kernel_set.defocus_nm)),
        "source_shape": source.shape,
        "source_sigma": repr(float(source.sigma)),
        "source_sigma_in": repr(float(source.sigma_in)),
        "source_sigma_out": repr(float(source.sigma_out)),
        "wavelength_nm": repr(float(kernel_set.wavelength_nm)),
        "numerical_aperture": repr(float(kernel_set.numerical_aperture)),
        "max_kernels": int(kernel_set.max_kernels),
        "energy_fraction": repr(float(kernel_set.energy_fraction)),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    )
    return digest.hexdigest()[:20]


def _entry_checksum(
    shape, weights, band, subgrid, compact, sub_spectra
) -> str:
    """Content digest of one store entry: every metadata field plus the
    raw bytes of both array payloads.  ``load`` recomputes and compares,
    so a bit flip anywhere in the entry reads as a miss, never as
    subtly-wrong spectra."""
    digest = hashlib.sha256()
    digest.update(json.dumps({
        "version": STORE_FORMAT_VERSION,
        "shape": [int(v) for v in shape],
        "band": [int(v) for v in band],
        "subgrid": [int(v) for v in subgrid],
        "compact": bool(compact),
    }, sort_keys=True).encode("utf-8"))
    digest.update(np.ascontiguousarray(weights, dtype=np.float64).tobytes())
    digest.update(
        np.ascontiguousarray(sub_spectra, dtype=np.complex128).tobytes()
    )
    return digest.hexdigest()


class KernelSpectraStore:
    """One directory of persisted per-(optics, shape) band spectra.

    Instances hash and compare by their (absolute) root path, so they can
    participate in :func:`repro.litho.kernels.build_kernel_set`'s cache
    key — two simulators pointing at the same directory share one kernel
    set.
    """

    def __init__(self, root: str) -> None:
        if not root:
            raise LithoError("spectra store needs a directory path")
        self.root = _normalize_root(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._stats_lock = threading.Lock()

    # -- identity -----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, KernelSpectraStore) and other.root == self.root

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.root))

    def __repr__(self) -> str:
        return f"KernelSpectraStore(root={self.root!r})"

    @classmethod
    def from_env(cls) -> "KernelSpectraStore | None":
        """Store named by ``REPRO_SPECTRA_STORE``, or ``None`` if unset."""
        root = os.environ.get(SPECTRA_STORE_ENV, "").strip()
        return open_store(root) if root else None

    # -- paths --------------------------------------------------------------
    def entry_path(self, fingerprint: str, shape: tuple[int, int]) -> str:
        return os.path.join(
            self.root, f"{fingerprint}_{int(shape[0])}x{int(shape[1])}.npz"
        )

    def stats(self) -> dict[str, int]:
        with self._stats_lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
            }

    def entry_count(self) -> int:
        """Number of persisted spectra files currently in the store
        (in-flight/orphaned ``.tmp-spectra-*`` files don't count)."""
        try:
            return sum(
                1
                for name in os.listdir(self.root)
                if name.endswith(".npz") and not name.startswith(".")
            )
        except OSError:
            return 0

    def sweep_orphans(self, max_age_s: float = ORPHAN_TMP_MAX_AGE_S) -> int:
        """Delete temp files abandoned by writers that died mid-save.

        An atomic write holds its ``.tmp-spectra-*`` file for
        milliseconds; anything older than ``max_age_s`` is an orphan
        (e.g. a pool worker killed between ``mkstemp`` and
        ``os.replace``).  Races are benign: a concurrent sweeper or the
        original writer finishing first just makes the unlink a no-op.
        Returns the number of files removed.
        """
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        now = time.time()
        removed = 0
        for name in names:
            if not name.startswith(".tmp-spectra-"):
                continue
            path = os.path.join(self.root, name)
            try:
                if now - os.path.getmtime(path) >= max_age_s:
                    os.unlink(path)
                    removed += 1
            except OSError:
                pass
        return removed

    # -- persistence --------------------------------------------------------
    def save(self, fingerprint: str, spectra) -> str:
        """Persist one built :class:`GridBandSpectra` (atomic write,
        content-checksummed)."""
        # Local import: litho must not import the service package at
        # module load (service builds on litho, not the reverse).
        from repro.service.faults import corrupt_file, maybe_fault

        os.makedirs(self.root, exist_ok=True)
        path = self.entry_path(fingerprint, spectra.shape)
        checksum = _entry_checksum(
            spectra.shape, spectra.weights, spectra.band,
            spectra.subgrid, spectra.compact, spectra.sub_spectra,
        )
        fd, tmp_path = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-spectra-", suffix=".npz"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(
                    handle,
                    version=STORE_FORMAT_VERSION,
                    shape=np.asarray(spectra.shape, dtype=np.int64),
                    weights=spectra.weights,
                    band=np.asarray(spectra.band, dtype=np.int64),
                    subgrid=np.asarray(spectra.subgrid, dtype=np.int64),
                    compact=bool(spectra.compact),
                    sub_spectra=spectra.sub_spectra,
                    checksum=checksum,
                )
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        if maybe_fault("store.save", path) is not None:
            # Mid-file lands in array payload: the kind of silent bit
            # rot only the content checksum can catch (the zip layer
            # parses fine, the numbers are just wrong).
            corrupt_file(path, offset=os.path.getsize(path) // 2)
        with self._stats_lock:
            self.writes += 1
        return path

    def load(self, fingerprint: str, shape: tuple[int, int]):
        """Reload spectra for one (optics, shape), or ``None`` on a miss.

        Any unreadable or inconsistent entry counts as a miss: the caller
        rebuilds and overwrites it.
        """
        from repro.litho.kernels import GridBandSpectra
        from repro.service.faults import maybe_fault

        maybe_fault("store.load", fingerprint)
        key = (int(shape[0]), int(shape[1]))
        path = self.entry_path(fingerprint, key)
        try:
            # np.load is handed an open file, not the path: a truncated
            # zip raises inside np.load, which would leave a file it
            # opened itself unclosed.
            with open(path, "rb") as handle, np.load(handle) as data:
                if int(data["version"]) != STORE_FORMAT_VERSION:
                    raise ValueError("store format version mismatch")
                stored_shape = tuple(int(v) for v in data["shape"])
                if stored_shape != key:
                    raise ValueError("stored shape mismatch")
                weights = np.asarray(data["weights"], dtype=np.float64)
                band = tuple(int(v) for v in data["band"])
                subgrid = tuple(int(v) for v in data["subgrid"])
                compact = bool(data["compact"])
                sub_spectra = np.asarray(
                    data["sub_spectra"], dtype=np.complex128
                )
                stored_checksum = str(data["checksum"])
            if sub_spectra.shape != (len(weights), *subgrid):
                raise ValueError("stored sub_spectra shape mismatch")
            if len(band) != 2 or len(subgrid) != 2:
                raise ValueError("stored band metadata malformed")
            if _entry_checksum(
                key, weights, band, subgrid, compact, sub_spectra
            ) != stored_checksum:
                raise ValueError("stored content checksum mismatch")
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            # Concurrent readers/writers only ever observe a complete old
            # or complete new entry (atomic replace); everything else —
            # torn copies from foreign tools, version skew, deleted files
            # — lands here and is rebuilt.
            with self._stats_lock:
                self.misses += 1
            return None
        with self._stats_lock:
            self.hits += 1
        return GridBandSpectra.assemble(
            key, weights, band, subgrid, compact, sub_spectra
        )
