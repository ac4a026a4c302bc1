"""Module system: parameter registration, state dicts, containers."""

from __future__ import annotations

import hashlib
import os
import tempfile
from typing import Iterator

import numpy as np

from repro.errors import NNError
from repro.nn.tensor import Tensor

#: On-disk checkpoint format version.  Bump when the layout of the npz
#: payload changes incompatibly; ``load_checkpoint`` rejects mismatches.
CHECKPOINT_FORMAT_VERSION = 1

_META_PREFIX = "__repro_ckpt_"
_EXTRA_PREFIX = _META_PREFIX + "x_"


def _state_fingerprint(state: dict[str, np.ndarray]) -> str:
    """Order-independent sha256 over parameter names, shapes, and bytes."""
    digest = hashlib.sha256()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name], dtype=np.float64)
        digest.update(name.encode())
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def save_checkpoint(
    path: str,
    state: dict[str, np.ndarray],
    extra: dict[str, object] | None = None,
) -> None:
    """Atomically persist a state dict as a versioned, fingerprinted npz.

    The write goes to a temp file in the destination directory and lands
    via ``os.replace`` (same convention as ``litho/store.py``), so readers
    never observe a torn checkpoint.  Alongside the parameters the npz
    carries a format-version entry, a sha256 fingerprint of the parameter
    payload (verified on load — bit rot fails loudly instead of serving a
    corrupted model), and optional ``extra`` metadata scalars/arrays.
    ``numpy.savez_compressed`` is byte-deterministic, so identical state
    yields identical checkpoint bytes.
    """
    payload: dict[str, np.ndarray] = {
        name: np.ascontiguousarray(value, dtype=np.float64)
        for name, value in state.items()
    }
    for name in payload:
        if name.startswith(_META_PREFIX):
            raise NNError(f"parameter name collides with checkpoint meta: {name}")
    meta: dict[str, np.ndarray] = {
        _META_PREFIX + "version": np.array(CHECKPOINT_FORMAT_VERSION),
        _META_PREFIX + "fingerprint": np.array(_state_fingerprint(payload)),
    }
    for key, value in (extra or {}).items():
        meta[_EXTRA_PREFIX + key] = np.asarray(value)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(handle, **payload, **meta)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Load ``(state, extra)`` from a checkpoint written by :func:`save_checkpoint`.

    Verifies the format version and the parameter fingerprint.  An npz
    without them (not written by :func:`save_checkpoint`) is refused:
    there is nothing to check its contents against.
    """
    with np.load(path) as data:
        state: dict[str, np.ndarray] = {}
        meta: dict[str, np.ndarray] = {}
        extra: dict[str, np.ndarray] = {}
        for key in data.files:
            if key.startswith(_EXTRA_PREFIX):
                extra[key[len(_EXTRA_PREFIX) :]] = data[key]
            elif key.startswith(_META_PREFIX):
                meta[key[len(_META_PREFIX) :]] = data[key]
            else:
                state[key] = data[key]
    if "version" not in meta or "fingerprint" not in meta:
        raise NNError(
            f"not a checkpoint: no format version or fingerprint: {path}"
        )
    version = int(meta["version"])
    if version != CHECKPOINT_FORMAT_VERSION:
        raise NNError(
            f"checkpoint format version {version} unsupported "
            f"(expected {CHECKPOINT_FORMAT_VERSION}): {path}"
        )
    expected = str(meta["fingerprint"][()])
    actual = _state_fingerprint(state)
    if actual != expected:
        raise NNError(
            f"checkpoint fingerprint mismatch (corrupt or tampered): {path}"
        )
    return state, extra


class Parameter(Tensor):
    """A tensor that is always trainable."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class: attribute assignment auto-registers parameters/children."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # -- traversal -----------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        yield from self._parameters.values()
        for child in self._modules.values():
            yield from child.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- persistence ------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise NNError(
                f"state dict mismatch: missing {sorted(missing)}, "
                f"unexpected {sorted(unexpected)}"
            )
        for name, param in own.items():
            if param.data.shape != state[name].shape:
                raise NNError(
                    f"shape mismatch for {name}: "
                    f"{param.data.shape} vs {state[name].shape}"
                )
            param.data = state[name].astype(np.float64).copy()

    def save(self, path: str) -> None:
        save_checkpoint(path, self.state_dict())

    def load(self, path: str) -> None:
        state, _ = load_checkpoint(path)
        self.load_state_dict(state)

    # -- call protocol ------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Chains modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = list(modules)
        for index, module in enumerate(modules):
            setattr(self, f"layer{index}", module)

    def forward(self, x):
        for module in self.layers:
            x = module(x)
        return x
