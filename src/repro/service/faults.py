"""Deterministic, seed-driven fault injection for the serving stack.

Every recovery path PR 7 adds — re-dispatch of a crashed worker's task,
stall detection, result dedup, journal resume, corrupt-store rebuild —
must be exercised by ordinary pytest tests, not by luck.  This module is
the injection plane: a picklable :class:`FaultPlan` carries a list of
:class:`FaultRule`\\ s, each naming an **injection point** (a string like
``"worker.before_result"``), an action, and a deterministic firing
condition.  Production code calls :func:`maybe_fault` at each point;
with no plan installed that is a single ``None`` check.

Injection points (the set is open — any string works — but these are
the ones wired into the stack):

========================  =====================================================
``worker.build``          in a pool worker, around the engine build; context
                          ``"w{worker_id}g{generation}"`` (generation counts
                          revivals, so ``g1`` targets the *first revival*)
``worker.optimize``       in a pool worker, after the claim is written and
                          before ``engine.optimize``; context
                          ``"{clip}@{attempt}"``
``worker.before_result``  after the optimize finished, before the result hits
                          the pipe (a crash here loses completed work — the
                          retry must recompute it)
``worker.after_result``   after the result's synchronous pipe write returned
                          (a crash here must NOT trigger a recompute — the
                          parent already holds the payload)
``pipe.frame``            instead of the result: write a torn/garbage frame
                          to the result pipe and die (``corrupt`` action)
``verifier.add``          in :meth:`ShapeBinScheduler.add`, before a mask is
                          planned and queued; context is the clip name
``verifier.flush``        in :meth:`ShapeBinScheduler._flush_keys`, before a
                          bin is measured; context ``str(bin_key)``
``store.save``            after a spectra entry is atomically written;
                          a ``corrupt`` rule flips one byte of the entry
``store.load``            before a spectra entry is read; context is the path
``journal.append``        before a journal record is framed and written
========================  =====================================================

Determinism
-----------

Two firing modes, both reproducible:

* **Hit-count** (``at=(1, 3)``): the rule fires on the 1st and 3rd
  *matching* arrival at its point, counted per plan instance (so per
  process — a retried task arriving at a fresh worker starts that
  worker's counters at zero, which is why contexts carry the attempt
  number: ``match="boom@0"`` crashes attempt 0 wherever it lands and
  leaves attempt 1 alone).  ``at=()`` with no ``rate`` fires on every
  matching hit.
* **Seeded rate** (``rate=0.3``): fires iff
  ``sha256(seed | point | context)`` maps below the rate — a pure
  function of the plan seed and the context, identical in every
  process and on every run.  This is what the CI chaos matrix sweeps:
  a given seed yields one fixed fault pattern, so a passing seed can
  never flake.

Plans cross the spawn boundary two ways: explicitly (``WorkStealingPool
(fault_plan=...)`` forwards the plan to its workers, the route tests
use) or via the ``$REPRO_FAULT_PLAN`` environment variable holding
``plan.to_json()`` (the route for chaos-testing a real deployment from
the outside — spawned children inherit the environment).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import FaultInjected, ServiceError

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"
"""Environment variable holding a JSON-serialized fault plan."""

FAULT_ACTIONS = ("crash", "stall", "raise", "corrupt")
"""``crash``: ``os._exit(exit_code)`` — only meaningful in worker
processes.  ``stall``: sleep ``stall_s`` (hold the claim; the stall
detector's kill is the only way out).  ``raise``: raise
:class:`FaultInjected`.  ``corrupt``: no inline effect — the call site
receives the rule back and applies its own corruption (torn pipe frame,
flipped store byte)."""

FAULT_EXIT_CODE = 75
"""Default exit code for ``crash`` actions (EX_TEMPFAIL: transient)."""


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault: where, what, and when it fires."""

    point: str
    action: str
    match: str = ""
    at: tuple[int, ...] = ()
    rate: float | None = None
    stall_s: float = 3600.0
    exit_code: int = FAULT_EXIT_CODE

    def __post_init__(self) -> None:
        if not self.point:
            raise ServiceError("FaultRule.point must be non-empty")
        if self.action not in FAULT_ACTIONS:
            raise ServiceError(
                f"FaultRule.action must be one of {FAULT_ACTIONS}, "
                f"got {self.action!r}"
            )
        if self.rate is not None and not 0.0 <= self.rate <= 1.0:
            raise ServiceError(
                f"FaultRule.rate must be in [0, 1], got {self.rate}"
            )
        if any(n < 1 for n in self.at):
            raise ServiceError("FaultRule.at counts are 1-based (>= 1)")

    def to_dict(self) -> dict[str, Any]:
        return {
            "point": self.point,
            "action": self.action,
            "match": self.match,
            "at": list(self.at),
            "rate": self.rate,
            "stall_s": self.stall_s,
            "exit_code": self.exit_code,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        return cls(
            point=data["point"],
            action=data["action"],
            match=data.get("match", ""),
            at=tuple(int(n) for n in data.get("at", ())),
            rate=data.get("rate"),
            stall_s=float(data.get("stall_s", 3600.0)),
            exit_code=int(data.get("exit_code", FAULT_EXIT_CODE)),
        )


def _seeded_decision(seed: int, point: str, context: str, rate: float) -> bool:
    """Pure function of (seed, point, context): same inputs, same fault,
    in every process, forever — a chaos seed that passes cannot flake."""
    digest = hashlib.sha256(
        f"{seed}|{point}|{context}".encode("utf-8")
    ).digest()
    unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return unit < rate


@dataclass
class FaultPlan:
    """A picklable set of fault rules plus per-process firing state."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0
    _hits: dict[tuple[int, str], int] = field(
        default_factory=dict, repr=False, compare=False
    )
    _fired: dict[str, int] = field(
        default_factory=dict, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __init__(
        self, rules: Iterable[FaultRule] = (), seed: int = 0
    ) -> None:
        self.rules = tuple(rules)
        self.seed = int(seed)
        self._hits = {}
        self._fired = {}
        self._lock = threading.Lock()

    # Counters are per-process state; a pickled copy starts fresh in the
    # spawned worker (hit counts must not leak across the boundary).
    def __getstate__(self) -> dict:
        return {"rules": self.rules, "seed": self.seed}

    def __setstate__(self, state: dict) -> None:
        self.__init__(rules=state["rules"], seed=state["seed"])

    # -- matching ------------------------------------------------------------
    def check(self, point: str, context: str = "") -> FaultRule | None:
        """The first rule firing at this (point, context) arrival, if
        any.  Counts the hit either way (rule ``at`` indices are counted
        per matching rule, under a lock — the verifier and collector
        threads share the parent-side plan)."""
        fired = None
        with self._lock:
            for index, rule in enumerate(self.rules):
                if rule.point != point:
                    continue
                if rule.match and rule.match not in context:
                    continue
                count = self._hits.get((index, point), 0) + 1
                self._hits[(index, point)] = count
                if fired is not None:
                    continue  # keep sibling counters advancing
                if rule.rate is not None:
                    if _seeded_decision(self.seed, point, context, rule.rate):
                        fired = rule
                elif not rule.at or count in rule.at:
                    fired = rule
            if fired is not None:
                self._fired[point] = self._fired.get(point, 0) + 1
        return fired

    def fired(self, point: str | None = None) -> int:
        """How many faults fired (at ``point``, or in total) in this
        process — test introspection."""
        with self._lock:
            if point is not None:
                return self._fired.get(point, 0)
            return sum(self._fired.values())

    # -- serialization -------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse either the full ``{"seed": ..., "rules": [...]}`` form
        or a bare rule list (seed 0)."""
        try:
            data = json.loads(text)
            if isinstance(data, list):
                data = {"rules": data}
            rules = tuple(
                FaultRule.from_dict(entry) for entry in data.get("rules", ())
            )
            return cls(rules=rules, seed=int(data.get("seed", 0)))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ServiceError(f"bad fault plan JSON: {exc}") from exc

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """Plan named by ``$REPRO_FAULT_PLAN``, or ``None`` if unset."""
        text = os.environ.get(FAULT_PLAN_ENV, "").strip()
        return cls.from_json(text) if text else None


# -- process-global plan (the store/scheduler/journal hook) -------------------
_ACTIVE_PLAN: FaultPlan | None = None
_ENV_CHECKED = False


def install_fault_plan(plan: FaultPlan | None) -> None:
    """Install ``plan`` as this process's active plan (``None`` clears
    it, and suppresses the env fallback until re-installed).  Pool
    workers call this with the plan their pool forwarded; tests call it
    to arm parent-side points (store, verifier, journal)."""
    global _ACTIVE_PLAN, _ENV_CHECKED
    _ACTIVE_PLAN = plan
    _ENV_CHECKED = True


def clear_fault_plan() -> None:
    """Remove any active plan and re-arm the env fallback (test
    teardown)."""
    global _ACTIVE_PLAN, _ENV_CHECKED
    _ACTIVE_PLAN = None
    _ENV_CHECKED = False


def active_fault_plan() -> FaultPlan | None:
    """The installed plan, falling back to ``$REPRO_FAULT_PLAN`` once."""
    global _ACTIVE_PLAN, _ENV_CHECKED
    if _ACTIVE_PLAN is None and not _ENV_CHECKED:
        _ENV_CHECKED = True
        _ACTIVE_PLAN = FaultPlan.from_env()
    return _ACTIVE_PLAN


def maybe_fault(point: str, context: str = "") -> FaultRule | None:
    """Fire any matching fault at a named injection point.

    ``crash`` / ``stall`` / ``raise`` actions execute inline (the crash
    via ``os._exit`` — no cleanup, exactly like the real fault it
    models).  A ``corrupt`` rule is *returned* so the call site can
    apply its own, site-specific corruption; ``None`` means no fault.
    With no plan installed this is one global read and a ``None`` check.
    """
    plan = active_fault_plan()
    if plan is None:
        return None
    rule = plan.check(point, context)
    if rule is None:
        return None
    if rule.action == "crash":
        os._exit(rule.exit_code)
    if rule.action == "stall":
        time.sleep(rule.stall_s)
        return None
    if rule.action == "raise":
        raise FaultInjected(
            f"injected fault at {point} (context {context!r})"
        )
    return rule  # "corrupt": the call site applies it


def corrupt_file(path: str, offset: int = -128) -> None:
    """Flip one byte of ``path`` in place (the ``corrupt`` helper for
    on-disk targets).  ``offset`` indexes from the end when negative;
    clamped into range, no-op on an empty file."""
    size = os.path.getsize(path)
    if size == 0:
        return
    position = offset if offset >= 0 else size + offset
    position = min(max(position, 0), size - 1)
    with open(path, "r+b") as handle:
        handle.seek(position)
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes([byte[0] ^ 0xFF]))
