"""One array/device backend for the whole numerical core.

Every hot-path array operation in the litho engine and the sparse EPE
pipeline routes through a single :class:`ArrayBackend` — array
construction, the 2-D FFT entry points, host/device movement, and
the dtype policy all live here, so the entire screening/verification
stack switches execution substrate behind one knob:

* ``"numpy"`` (the default) — ``np.fft`` + host BLAS; bit-for-bit
  reproducible on any host, and the backend the committed golden images
  were generated with.  It is the one host transform: a table's numbers
  belong to the engine, not to the core count or the installed
  libraries.
* ``"torch"`` — arrays live as ``torch.Tensor`` on ``device`` (CPU
  always; CUDA when available).  All work runs in explicit
  float64/complex128 — ``torch.set_default_dtype`` can never leak in —
  so CPU parity with numpy is ~1e-12 (EPE parity gated at <= 1e-9 nm by
  ``benchmarks/bench_backend.py``).  Requested explicitly only.

torch is imported when its backend is first resolved, never at ``import
repro``, so a numpy process never loads it.  No tensor exists before
torch is imported, so :meth:`ArrayBackend.to_host` never imports it.

Backends are resolved once per ``(name, device)`` pair and shared.
Cached artifacts downstream (device-resident kernel spectra) key on
:attr:`ArrayBackend.identity`, so swapping the backend can never serve
arrays resident on the wrong device.

Dtype policy
------------

All real arrays are float64 and all spectra are complex128, explicitly,
on every backend.  The numpy backend inherits this from the engine's
literal dtypes; the torch adapter pins ``dtype=torch.float64`` /
``torch.complex128`` at every tensor creation and conversion, so the
process-global ``torch.set_default_dtype`` (float32 out of the box) has
no effect on any value this package computes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from repro.errors import LithoError

BACKEND_NAMES = ("numpy", "torch")


@cache
def _torch():
    """``torch``, imported on the first call; ``None`` without torch (the
    torch backend then refuses to resolve)."""
    try:
        import torch
    except ImportError:  # pragma: no cover - depends on the environment
        return None
    return torch


def _is_5_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= ``n`` (fast FFT length), by an
    upward scan.

    Subgrid sizes are part of the numerical contract, so the answer
    depends on ``n`` alone.  The kernel build calls it once per band
    axis, on lengths of a few dozen.
    """
    if n < 1:
        raise LithoError(f"FFT length must be positive, got {n}")
    while not _is_5_smooth(n):
        n += 1
    return n


def torch_available() -> bool:
    """Whether the torch backend can actually be constructed (imports
    torch on the first call)."""
    return _torch() is not None


@dataclass(frozen=True)
class ArrayBackend:
    """Array namespace + FFT entry points + device policy, as one value.

    ``device`` is ``"cpu"`` for numpy and ``"cpu"``/``"cuda"``/
    ``"cuda:N"`` for torch.
    """

    name: str
    device: str = "cpu"

    # -- identity ------------------------------------------------------------
    @property
    def identity(self) -> tuple:
        """Cache identity: array library + device.  Key caches of
        backend-resident arrays with this."""
        return (self.name, self.device)

    @property
    def is_numpy(self) -> bool:
        """True when arrays are host numpy."""
        return self.name == "numpy"

    # -- dtype policy (explicit everywhere; see module docstring) ------------
    @property
    def float64(self):
        return _torch().float64 if self.name == "torch" else np.float64

    @property
    def complex128(self):
        return _torch().complex128 if self.name == "torch" else np.complex128

    @property
    def int64(self):
        return _torch().int64 if self.name == "torch" else np.int64

    # -- host/device movement ------------------------------------------------
    def to_device(self, a):
        """Move an array to this backend's native representation.

        Numpy: a passthrough for ndarrays (same object, same
        bits).  Torch: ``torch.Tensor`` on :attr:`device`, preserving
        the numpy dtype (float64 -> torch.float64, complex128 ->
        torch.complex128).
        """
        if self.name == "torch":
            torch = _torch()
            if isinstance(a, torch.Tensor):
                return a if str(a.device) == self.device else a.to(self.device)
            return torch.as_tensor(np.ascontiguousarray(a), device=self.device)
        if isinstance(a, np.ndarray):
            return a
        return np.asarray(self.to_host(a))

    def to_host(self, a):
        """The host-numpy view/copy of an array (ndarray passthrough).

        A tensor can only exist once torch is imported, so torch is
        looked up in ``sys.modules`` rather than imported here."""
        if isinstance(a, np.ndarray):
            return a
        torch = sys.modules.get("torch")
        if torch is not None and isinstance(a, torch.Tensor):
            return a.detach().cpu().numpy()
        return np.asarray(a)

    def index(self, a: np.ndarray):
        """An integer index array usable for advanced indexing here.

        Numpy: the array itself.  Torch: an int64 index tensor on
        :attr:`device` (CUDA tensors cannot be fancy-indexed with host
        arrays).
        """
        if self.name == "torch":
            return _torch().as_tensor(
                np.ascontiguousarray(a), dtype=self.int64, device=self.device,
            )
        return a

    def asarray_f64(self, a):
        """``a`` as this backend's native float64 array (no-copy when
        already native float64)."""
        if self.name == "torch":
            t = self.to_device(a)
            return t if t.dtype == self.float64 else t.to(self.float64)
        return np.asarray(self.to_host(a), dtype=np.float64)

    # -- construction / namespace ops ---------------------------------------
    def zeros(self, shape, dtype):
        if self.name == "torch":
            return _torch().zeros(tuple(shape), dtype=dtype, device=self.device)
        return np.zeros(shape, dtype)

    def empty(self, shape, dtype):
        if self.name == "torch":
            return _torch().empty(tuple(shape), dtype=dtype, device=self.device)
        return np.empty(shape, dtype)

    def concat(self, arrays, axis: int = 0):
        if self.name == "torch":
            return _torch().cat(list(arrays), dim=axis)
        return np.concatenate(arrays, axis=axis)

    # -- FFT entry points ----------------------------------------------------
    def fft2(self, a, axes: tuple[int, int] = (-2, -1)):
        if self.name == "torch":
            return _torch().fft.fft2(self.to_device(a), dim=axes)
        return np.fft.fft2(a, axes=axes)

    def ifft2(self, a, axes: tuple[int, int] = (-2, -1)):
        if self.name == "torch":
            return _torch().fft.ifft2(self.to_device(a), dim=axes)
        return np.fft.ifft2(a, axes=axes)

    def rfft2(self, a, axes: tuple[int, int] = (-2, -1)):
        """Real-input forward transform (half-width spectrum along the
        last axis).  The sparse EPE path pairs this with a Hermitian
        band gather — roughly halving the forward-transform cost that
        dominates its runtime."""
        if self.name == "torch":
            return _torch().fft.rfft2(
                self.asarray_f64(a), dim=axes
            )
        return np.fft.rfft2(a, axes=axes)

    def irfft2(self, a, s: tuple[int, int], axes: tuple[int, int] = (-2, -1)):
        """Inverse of :meth:`rfft2`: a real ``s``-shaped image from its
        half-width spectrum.  The dense intensity resample runs on it, so
        a real aerial never passes through a complex inverse transform."""
        if self.name == "torch":
            return _torch().fft.irfft2(self.to_device(a), s=s, dim=axes)
        return np.fft.irfft2(a, s=s, axes=axes)


@lru_cache(maxsize=16)
def resolve_backend(
    name: str = "numpy", device: str | None = None
) -> ArrayBackend:
    """Build (and cache) the array backend for a configuration name.

    Args:
        name: One of :data:`BACKEND_NAMES`.  ``"torch"`` raises when
            torch is absent — a device request degrading silently to
            host would invalidate the caller's throughput assumptions.
        device: Torch device string (``"cpu"``, ``"cuda"``,
            ``"cuda:1"``); ``None`` picks CUDA when available, else CPU.
            numpy accepts only ``None``/``"cpu"``.
    """
    if name not in BACKEND_NAMES:
        raise LithoError(
            f"unknown array backend {name!r}; choose one of {BACKEND_NAMES}"
        )
    if name == "torch":
        torch = _torch()
        if torch is None:
            raise LithoError(
                "backend 'torch' requested but torch is not importable; "
                "install CPU torch or choose numpy"
            )
        if device is None:
            device = "cuda" if torch.cuda.is_available() else "cpu"
        if device.startswith("cuda") and not torch.cuda.is_available():
            raise LithoError(
                f"torch device {device!r} requested but CUDA is not available"
            )
        return ArrayBackend(name="torch", device=device)
    if device not in (None, "cpu"):
        raise LithoError(
            f"backend {name!r} is host-only; device={device!r} is not valid"
        )
    return ArrayBackend(name=name)
