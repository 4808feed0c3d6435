"""Typed dataset queries: one filter vocabulary for every read path.

:class:`Query` is the single description of "which data points do I
want" shared by the whole system:

* :meth:`repro.core.dataset.Dataset.filter` builds one and evaluates it
  in memory (the paper's "data filter");
* the :mod:`repro.store` backends accept one and *push it down* —
  :class:`~repro.store.sqlite.SqliteStore` translates the scalar
  clauses to indexed SQL ``WHERE``/``LIMIT``/``OFFSET``, so a filtered
  advice query over a 100k-point corpus never deserializes the corpus;
* the service router parses one from ``GET /v1/datapoints`` query
  parameters, and the CLI's ``data`` command from flags.

Both evaluation strategies are property-tested to return identical
results, so callers can treat "filter in memory" and "filter in the
store" as the same operation at different speeds.

This module sits below ``repro.core.dataset`` and depends only on the
leaf :mod:`repro.errors`; ``matches`` duck-types over anything with
the :class:`~repro.core.dataset.DataPoint` attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError


@dataclass(frozen=True)
class Query:
    """A declarative data-point filter plus an optional result window.

    Filter semantics mirror the historical ``Dataset.filter`` contract:

    * ``appname`` / ``capacity`` — exact match;
    * ``sku`` — case-insensitive, accepting the bare name or its
      ``standard_``-prefixed form (like the CLI ``--sku``);
    * ``nnodes`` — membership in the given node counts (empty = all);
    * ``min_nodes`` / ``max_nodes`` — inclusive bounds;
    * ``ppn`` — exact match;
    * ``appinputs`` / ``tags`` — every given key must map to the given
      value (keys and values are held as strings);
    * ``include_predicted=False`` — drop sampler-predicted points.

    ``limit``/``offset`` window the *filtered* sequence in dataset
    order (append order), which is what the paginated listings serve.
    """

    appname: Optional[str] = None
    sku: Optional[str] = None
    nnodes: Tuple[int, ...] = ()
    ppn: Optional[int] = None
    min_nodes: Optional[int] = None
    max_nodes: Optional[int] = None
    appinputs: Dict[str, str] = field(default_factory=dict)
    tags: Dict[str, str] = field(default_factory=dict)
    capacity: Optional[str] = None
    include_predicted: bool = True
    limit: Optional[int] = None
    offset: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "nnodes",
                           tuple(int(n) for n in self.nnodes))
        # Stored mapping keys and values are strings (DataPoint holds
        # them so), and every evaluator compares strings: the SQL
        # pushdown, ``matches`` and the snapshot masks.
        for name in ("appinputs", "tags"):
            object.__setattr__(self, name, {
                str(k): str(v)
                for k, v in dict(getattr(self, name) or {}).items()})
        if self.limit is not None and self.limit < 0:
            raise ConfigError(f"limit must be >= 0, got {self.limit}")
        if self.offset < 0:
            raise ConfigError(f"offset must be >= 0, got {self.offset}")

    # -- evaluation -------------------------------------------------------------

    @property
    def sku_candidates(self) -> Optional[Tuple[str, str]]:
        """Lower-cased SKU names the filter accepts (None = no filter)."""
        if self.sku is None:
            return None
        lowered = self.sku.lower()
        return (lowered, f"standard_{lowered}")

    def matches(self, point: Any) -> bool:
        """Does one data point pass the filter (window ignored)?"""
        if self.appname is not None and point.appname != self.appname:
            return False
        candidates = self.sku_candidates
        if candidates is not None and point.sku.lower() not in candidates:
            return False
        if self.nnodes and point.nnodes not in self.nnodes:
            return False
        if self.ppn is not None and point.ppn != self.ppn:
            return False
        if self.min_nodes is not None and point.nnodes < self.min_nodes:
            return False
        if self.max_nodes is not None and point.nnodes > self.max_nodes:
            return False
        for key, value in self.appinputs.items():
            if point.appinputs.get(key) != value:
                return False
        for key, value in self.tags.items():
            if point.tags.get(key) != value:
                return False
        if not self.include_predicted and point.predicted:
            return False
        if self.capacity is not None and point.capacity != self.capacity:
            return False
        return True

    def apply(self, points: Sequence[Any]) -> List[Any]:
        """Filter ``points`` and apply the ``offset``/``limit`` window."""
        kept = [p for p in points if self.matches(p)]
        return self._window(kept)

    def _window(self, kept: List[Any]) -> List[Any]:
        if self.offset:
            kept = kept[self.offset:]
        if self.limit is not None:
            kept = kept[:self.limit]
        return kept

    def without_window(self) -> "Query":
        """The same filter with no pagination (for total counts)."""
        if self.limit is None and self.offset == 0:
            return self
        return replace(self, limit=None, offset=0)

    # -- wire round-tripping -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "appname": self.appname,
            "sku": self.sku,
            "nnodes": list(self.nnodes),
            "ppn": self.ppn,
            "min_nodes": self.min_nodes,
            "max_nodes": self.max_nodes,
            "appinputs": dict(self.appinputs),
            "tags": dict(self.tags),
            "capacity": self.capacity,
            "include_predicted": self.include_predicted,
            "limit": self.limit,
            "offset": self.offset,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Query":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown Query key(s): {', '.join(sorted(map(str, unknown)))}"
            )
        kwargs = dict(data)
        if "nnodes" in kwargs and kwargs["nnodes"] is not None:
            kwargs["nnodes"] = tuple(kwargs["nnodes"])
        return cls(**{k: v for k, v in kwargs.items() if v is not None
                      or k in ("appname", "sku", "ppn", "min_nodes",
                               "max_nodes", "capacity", "limit")})
