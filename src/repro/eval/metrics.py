"""Result records for the comparison tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.service.api import OptResult


@dataclass
class SuiteResult:
    """One engine's results over a whole benchmark suite: the service's
    :class:`~repro.service.api.OptResult` per clip, in suite order (a
    cell triple of Tables 1/2 each, with its verification outcome)."""

    engine: str
    rows: list[OptResult] = field(default_factory=list)

    def add(self, row: OptResult) -> None:
        self.rows.append(row)

    @property
    def epe_sum(self) -> float:
        return sum(r.epe_nm for r in self.rows)

    @property
    def pvband_sum(self) -> float:
        return sum(r.pvband_nm2 for r in self.rows)

    @property
    def runtime_sum(self) -> float:
        return sum(r.runtime_s for r in self.rows)

    def row_for(self, clip_name: str) -> OptResult:
        for row in self.rows:
            if row.clip_name == clip_name:
                return row
        raise KeyError(clip_name)
