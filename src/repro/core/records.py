"""Columnar storage for per-round metric records.

:class:`RecordTable` replaces the per-round list of
:class:`~repro.core.simulator.RoundRecord` objects with preallocated numpy
columns — one array per Section VI metric — so that

* recording a round is a handful of scalar stores instead of an object
  allocation,
* :meth:`~repro.core.simulator.SimulationResult.series` returns a zero-copy
  view instead of rebuilding a Python list per call, and
* batched engines (:mod:`repro.engines`) can write whole ``(rounds, B)``
  metric blocks and slice per-replica tables out without touching Python
  objects.

The canonical field set (:data:`RECORD_FIELDS`) is shared with the CSV
exporter in :mod:`repro.viz.series` and the JSON archiver in
:mod:`repro.io.results`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "RECORD_FIELDS",
    "FLOAT_FIELDS",
    "DYNAMIC_FIELDS",
    "DYNAMIC_FLOAT_FIELDS",
    "RecordTable",
    "DynamicRecordTable",
    "StreamingStats",
]

#: Every column of a record table, in canonical export order.
RECORD_FIELDS = (
    "round_index",
    "scheme",
    "max_minus_avg",
    "min_minus_avg",
    "max_local_diff",
    "potential_per_node",
    "min_load",
    "min_transient",
    "total_load",
    "round_traffic",
)

#: The float64 metric columns (everything except round index and scheme).
FLOAT_FIELDS = tuple(f for f in RECORD_FIELDS if f not in ("round_index", "scheme"))

#: Every column of a dynamic (online-arrival) record table.  Unlike the
#: static fields, the imbalance metrics are measured against the *current*
#: average — the natural target when the total changes over time — and the
#: per-round token accounting (``arrived``/``departed``/``clamped``) makes
#: totals exactly reconstructible:
#: ``total[t] == total[t-1] + arrived[t] - departed[t]``, with ``clamped``
#: the departure volume that was requested but refused because the node had
#: no (non-negative) load left to consume.
DYNAMIC_FIELDS = (
    "round_index",
    "total_load",
    "arrived",
    "departed",
    "clamped",
    "max_minus_avg",
    "max_local_diff",
    "potential_per_node",
)

#: The float64 columns of a dynamic record table.
DYNAMIC_FLOAT_FIELDS = tuple(f for f in DYNAMIC_FIELDS if f != "round_index")

_SCHEME_DTYPE = "<U32"


class StreamingStats:
    """Running aggregates of record columns: min / max / sum / last per field.

    The streaming counterpart of keeping a dense ``(rounds, width)`` column
    block: each :meth:`update` folds one recorded round into ``O(fields x
    width)`` state, so memory is independent of how many rounds are recorded.
    ``width`` is the replica count for batched engines (each aggregate is a
    ``(width,)`` array).  Sums accumulate row by row — the same order
    :meth:`RecordTable.summary` uses — so a streaming run and a dense table
    reduce to bit-identical aggregates.
    """

    __slots__ = (
        "fields",
        "width",
        "count",
        "first_round",
        "last_round",
        "mins",
        "maxs",
        "sums",
        "last",
    )

    def __init__(self, fields, width: int):
        self.fields = tuple(fields)
        self.width = int(width)
        self.count = 0
        self.first_round = -1
        self.last_round = -1
        self.mins = {f: np.full(self.width, np.inf) for f in self.fields}
        self.maxs = {f: np.full(self.width, -np.inf) for f in self.fields}
        self.sums = {f: np.zeros(self.width) for f in self.fields}
        self.last = {f: np.full(self.width, np.nan) for f in self.fields}

    def update(self, round_index: int, values: Dict[str, np.ndarray]) -> None:
        """Fold one recorded round (``values[field]`` is ``(width,)``) in."""
        if self.count == 0:
            self.first_round = int(round_index)
        self.last_round = int(round_index)
        self.count += 1
        for name in self.fields:
            v = np.asarray(values[name], dtype=np.float64)
            np.minimum(self.mins[name], v, out=self.mins[name])
            np.maximum(self.maxs[name], v, out=self.maxs[name])
            self.sums[name] += v
            self.last[name][...] = v

    @classmethod
    def concat(cls, parts: Sequence["StreamingStats"]) -> "StreamingStats":
        """Width-concatenate per-shard stats into one batch-wide object.

        The worker-shard merge step: each worker streams its own
        replica columns through a :class:`StreamingStats`, and because
        every aggregate is per-replica (no cross-replica reduction ever
        happens), concatenating the aggregate arrays reproduces exactly
        the object a single-process run over the full batch would hold.
        All parts must describe the same record grid (same fields, same
        round count and first/last round) — anything else means the shards
        ran different workloads, which raises.
        """
        parts = list(parts)
        if not parts:
            raise ConfigurationError("concat needs at least one StreamingStats")
        first = parts[0]
        for other in parts[1:]:
            if (
                other.fields != first.fields
                or other.count != first.count
                or other.first_round != first.first_round
                or other.last_round != first.last_round
            ):
                raise ConfigurationError(
                    "cannot concatenate StreamingStats with different "
                    "fields or record grids"
                )
        merged = cls(first.fields, sum(p.width for p in parts))
        merged.count = first.count
        merged.first_round = first.first_round
        merged.last_round = first.last_round
        for name in first.fields:
            for store in ("mins", "maxs", "sums", "last"):
                getattr(merged, store)[name] = np.concatenate(
                    [getattr(p, store)[name] for p in parts]
                )
        return merged

    def take(self, idx) -> "StreamingStats":
        """The aggregates of replica columns ``idx`` (repeats allowed), as
        a new object over the same record grid."""
        idx = np.asarray(idx, dtype=np.int64)
        out = type(self)(self.fields, idx.size)
        out.count = self.count
        out.first_round = self.first_round
        out.last_round = self.last_round
        for store in ("mins", "maxs", "sums", "last"):
            setattr(out, store, {k: v[idx] for k, v in getattr(self, store).items()})
        return out

    def replica_summary(self, b: int, all_fields=None) -> Dict[str, float]:
        """One replica's aggregates as the flat :meth:`RecordTable.summary`
        dict; fields outside the tracked set come back as NaN."""
        out: Dict[str, object] = {
            "rows": self.count,
            "first_round": self.first_round,
            "last_round": self.last_round,
        }
        for name in all_fields if all_fields is not None else self.fields:
            if name in self.sums and self.count:
                out[f"{name}_min"] = float(self.mins[name][b])
                out[f"{name}_max"] = float(self.maxs[name][b])
                out[f"{name}_sum"] = float(self.sums[name][b])
                out[f"{name}_mean"] = float(self.sums[name][b]) / self.count
                out[f"{name}_last"] = float(self.last[name][b])
            else:
                for suffix in ("min", "max", "sum", "mean", "last"):
                    out[f"{name}_{suffix}"] = float("nan")
        return out


def _column_summary(
    fields, rows: int, column, round_index: np.ndarray
) -> Dict[str, object]:
    """Flat aggregate dict over a dense table's columns.

    Sums accumulate row by row to match :class:`StreamingStats` bit for bit.
    """
    out: Dict[str, object] = {
        "rows": rows,
        "first_round": int(round_index[0]) if rows else -1,
        "last_round": int(round_index[-1]) if rows else -1,
    }
    for name in fields:
        if rows:
            col = column(name)
            acc = 0.0
            for i in range(rows):
                acc += float(col[i])
            out[f"{name}_min"] = float(col.min())
            out[f"{name}_max"] = float(col.max())
            out[f"{name}_sum"] = acc
            out[f"{name}_mean"] = acc / rows
            out[f"{name}_last"] = float(col[-1])
        else:
            for suffix in ("min", "max", "sum", "mean", "last"):
                out[f"{name}_{suffix}"] = float("nan")
    return out


class RecordTable:
    """Preallocated columnar table of per-round records.

    Parameters
    ----------
    capacity:
        Number of rows to preallocate.  The table grows automatically when
        more rows are appended, but sizing it correctly up front
        (``rounds // record_every + 2``) avoids reallocation entirely.
    """

    __slots__ = ("_capacity", "_size", "_round_index", "_scheme", "_floats", "_summary")

    def __init__(self, capacity: int = 16):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._size = 0
        self._round_index = np.empty(self._capacity, dtype=np.int64)
        self._scheme = np.empty(self._capacity, dtype=_SCHEME_DTYPE)
        self._floats: Dict[str, np.ndarray] = {
            name: np.empty(self._capacity, dtype=np.float64) for name in FLOAT_FIELDS
        }
        #: pre-aggregated summary of a streaming-mode run (None = dense table)
        self._summary: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def _grow(self) -> None:
        self._capacity *= 2
        self._round_index = np.resize(self._round_index, self._capacity)
        self._scheme = np.resize(self._scheme, self._capacity)
        for name, col in self._floats.items():
            self._floats[name] = np.resize(col, self._capacity)

    def append(self, round_index: int, scheme: str, **values: float) -> None:
        """Append one row; ``values`` must cover every float field."""
        i = self._size
        if i == self._capacity:
            self._grow()
        self._round_index[i] = round_index
        self._scheme[i] = scheme
        floats = self._floats
        for name in FLOAT_FIELDS:
            floats[name][i] = values[name]
        self._size = i + 1

    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """Read-only view of one column, trimmed to the filled rows."""
        if name == "round_index":
            out = self._round_index[: self._size]
        elif name == "scheme":
            out = self._scheme[: self._size]
        else:
            try:
                out = self._floats[name][: self._size]
            except KeyError:
                raise ConfigurationError(
                    f"unknown record field {name!r}; known: {RECORD_FIELDS}"
                ) from None
        out = out.view()
        out.setflags(write=False)
        return out

    def row(self, index: int) -> Dict[str, object]:
        """One row as a plain field -> value dict."""
        if not -self._size <= index < self._size:
            raise IndexError(f"row {index} out of range for table of {self._size}")
        if index < 0:
            index += self._size
        row: Dict[str, object] = {
            "round_index": int(self._round_index[index]),
            "scheme": str(self._scheme[index]),
        }
        for name in FLOAT_FIELDS:
            row[name] = float(self._floats[name][index])
        return row

    def to_columns(self) -> Dict[str, np.ndarray]:
        """All columns (trimmed views) keyed by field name, export order."""
        return {name: self.column(name) for name in RECORD_FIELDS}

    def iter_rows(self) -> Iterator[Dict[str, object]]:
        for i in range(self._size):
            yield self.row(i)

    def summary(self) -> Dict[str, object]:
        """Aggregates per float field: ``<field>_{min,max,sum,mean,last}``
        plus ``rows`` / ``first_round`` / ``last_round``.

        A streaming table (:meth:`from_summary`) returns its stored running
        aggregates; a dense table reduces its columns on the fly with the
        same accumulation order, so both modes agree bit for bit.
        """
        if self._summary is not None:
            return dict(self._summary)
        return _column_summary(
            FLOAT_FIELDS, self._size, self.column, self._round_index
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_summary(
        cls,
        last_round: int,
        last_scheme: str,
        last_values: Dict[str, float],
        summary: Dict[str, object],
    ) -> "RecordTable":
        """Build a streaming (single-row) table from running aggregates.

        The one stored row is the *last* recorded round, so terminal-state
        consumers (``records[-1]``, final-value reductions) keep working;
        the full per-round history was never materialised.  Float fields
        missing from ``last_values`` are stored as NaN.
        """
        table = cls(capacity=1)
        table.append(
            int(last_round),
            last_scheme,
            **{
                name: float(last_values.get(name, float("nan")))
                for name in FLOAT_FIELDS
            },
        )
        table._summary = dict(summary)
        return table

    @classmethod
    def from_columns(
        cls,
        round_index: np.ndarray,
        scheme: np.ndarray,
        floats: Dict[str, np.ndarray],
    ) -> "RecordTable":
        """Build a table directly from complete column arrays.

        Used by the batched engine, which computes whole metric columns at
        once instead of appending row by row.
        """
        round_index = np.asarray(round_index, dtype=np.int64)
        size = round_index.shape[0]
        missing = set(FLOAT_FIELDS) - set(floats)
        if missing:
            raise ConfigurationError(f"missing record columns: {sorted(missing)}")
        table = cls(capacity=max(size, 1))
        table._round_index[:size] = round_index
        table._scheme[:size] = np.asarray(scheme, dtype=_SCHEME_DTYPE)
        for name in FLOAT_FIELDS:
            col = np.asarray(floats[name], dtype=np.float64)
            if col.shape != (size,):
                raise ConfigurationError(
                    f"column {name!r} has shape {col.shape}, expected ({size},)"
                )
            table._floats[name][:size] = col
        table._size = size
        return table


class DynamicRecordTable:
    """Preallocated columnar table of dynamic (online-arrival) round records.

    Same storage discipline as :class:`RecordTable` — one numpy column per
    :data:`DYNAMIC_FIELDS` entry, preallocated and trimmed on read — but for
    the dynamic regime: no scheme column (the dynamic core does not switch
    schemes mid-run) and one row per *executed* round (there is no round-0
    row; the interesting state is always post-arrival, post-balance).
    """

    __slots__ = ("_capacity", "_size", "_round_index", "_floats", "_summary")

    def __init__(self, capacity: int = 16):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._size = 0
        self._round_index = np.empty(self._capacity, dtype=np.int64)
        self._floats: Dict[str, np.ndarray] = {
            name: np.empty(self._capacity, dtype=np.float64)
            for name in DYNAMIC_FLOAT_FIELDS
        }
        #: pre-aggregated summary of a streaming-mode run (None = dense table)
        self._summary: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def _grow(self) -> None:
        self._capacity *= 2
        self._round_index = np.resize(self._round_index, self._capacity)
        for name, col in self._floats.items():
            self._floats[name] = np.resize(col, self._capacity)

    def append(self, round_index: int, **values: float) -> None:
        """Append one row; ``values`` must cover every float field."""
        i = self._size
        if i == self._capacity:
            self._grow()
        self._round_index[i] = round_index
        floats = self._floats
        for name in DYNAMIC_FLOAT_FIELDS:
            floats[name][i] = values[name]
        self._size = i + 1

    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """Read-only view of one column, trimmed to the filled rows."""
        if name == "round_index":
            out = self._round_index[: self._size]
        else:
            try:
                out = self._floats[name][: self._size]
            except KeyError:
                raise ConfigurationError(
                    f"unknown dynamic record field {name!r}; "
                    f"known: {DYNAMIC_FIELDS}"
                ) from None
        out = out.view()
        out.setflags(write=False)
        return out

    def row(self, index: int) -> Dict[str, object]:
        """One row as a plain field -> value dict."""
        if not -self._size <= index < self._size:
            raise IndexError(f"row {index} out of range for table of {self._size}")
        if index < 0:
            index += self._size
        row: Dict[str, object] = {"round_index": int(self._round_index[index])}
        for name in DYNAMIC_FLOAT_FIELDS:
            row[name] = float(self._floats[name][index])
        return row

    def to_columns(self) -> Dict[str, np.ndarray]:
        """All columns (trimmed views) keyed by field name, export order."""
        return {name: self.column(name) for name in DYNAMIC_FIELDS}

    def iter_rows(self) -> Iterator[Dict[str, object]]:
        for i in range(self._size):
            yield self.row(i)

    def summary(self) -> Dict[str, object]:
        """Aggregates per float field — see :meth:`RecordTable.summary`."""
        if self._summary is not None:
            return dict(self._summary)
        return _column_summary(
            DYNAMIC_FLOAT_FIELDS, self._size, self.column, self._round_index
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_summary(
        cls,
        last_round: int,
        last_values: Dict[str, float],
        summary: Dict[str, object],
    ) -> "DynamicRecordTable":
        """Build a streaming (single-row) table from running aggregates."""
        table = cls(capacity=1)
        table.append(
            int(last_round),
            **{
                name: float(last_values.get(name, float("nan")))
                for name in DYNAMIC_FLOAT_FIELDS
            },
        )
        table._summary = dict(summary)
        return table

    @classmethod
    def from_columns(
        cls, round_index: np.ndarray, floats: Dict[str, np.ndarray]
    ) -> "DynamicRecordTable":
        """Build a table directly from complete column arrays.

        Used by the batched engine, which computes whole ``(rounds, B)``
        dynamic metric blocks and slices per-replica tables out at the end.
        """
        round_index = np.asarray(round_index, dtype=np.int64)
        size = round_index.shape[0]
        missing = set(DYNAMIC_FLOAT_FIELDS) - set(floats)
        if missing:
            raise ConfigurationError(
                f"missing dynamic record columns: {sorted(missing)}"
            )
        table = cls(capacity=max(size, 1))
        table._round_index[:size] = round_index
        for name in DYNAMIC_FLOAT_FIELDS:
            col = np.asarray(floats[name], dtype=np.float64)
            if col.shape != (size,):
                raise ConfigurationError(
                    f"column {name!r} has shape {col.shape}, expected ({size},)"
                )
            table._floats[name][:size] = col
        table._size = size
        return table
