"""Append-only JSON-lines store for measured policy results.

Layout (schema version 2): the first line is a header carrying the
schema version; every further line is one stored trial, a JSON object
with the fields ``kind`` (``"record"``), ``id``, ``inserted_at``, ``key``
(dataset, model, optimizer), ``summary``, ``crc`` and ``payload``:

- ``summary`` holds the trial's scalar fields: task, model, policy,
  optimizer, seed, budget, eval cadence, divergence, peak accuracy and
  its iteration, and final loss;
- ``payload`` is the rest of the trial document -- its metric series,
  lr trace and, when kept, wall-clock ``meta`` -- as one JSON text held
  in a string, so reading the line does not parse the numbers in it;
- ``crc`` is the CRC-32 of the payload's UTF-8 bytes.

Open decodes ids, keys, insertion times and summaries, and checks every
payload against its CRC without parsing it.  A record's payload is
decoded the first time its :attr:`DbRecord.record` is read.  ``len``,
:meth:`PolicyDb.query`, :meth:`PolicyDb.query_partial` and ranking by
``peak_top1`` or ``final_loss`` decode no payload; ranking by
``iters_to_target`` decodes the rows it ranks.  A handle keeps each row
exactly as the file holds it, so what a handle reads back after a
``put`` equals what a fresh open reads.

A stored trial document is ``record_to_doc(record, series_cap=SERIES_CAP)``:
its metric series and lr trace are thinned to at most :data:`SERIES_CAP`
points (the peak entry always survives thinning, and kept wall times
follow the kept entries); peak and final fields are exact regardless.

Concurrency: any number of handles in any processes may read and write
one file.  Writers serialize on one advisory lock (``flock``) on the
file.  Holding it, a ``put`` or ``import_`` takes its ids from the
file's last complete line, truncates a torn fragment an interrupted
append left behind, and writes all its lines with one ``os.write`` on an
``O_APPEND`` descriptor (repeated only after a short write).  Readers
take no lock and never write: a line counts once its newline is on disk,
so an unterminated final line -- an append in flight or one cut short --
is skipped with a warning and left for the next writer to repair.  A
handle does not see records that other handles append after it opened;
open the store again to see them.  Corruption anywhere else (invalid
JSON, a malformed record, a payload that fails its CRC) refuses to open,
naming the line.
"""
from __future__ import annotations

import json
import os
import time
import warnings
import zlib
from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import DbError
from .schedules import LRPolicy, policy_from_doc
from .training import TrialRecord, record_from_doc, record_to_doc
from .tuning import rank_policies, iterations_to_target, RANK_METRICS

try:
    import fcntl
except ImportError:  # non-POSIX: no advisory lock, one writer at a time assumed
    fcntl = None

__all__ = ["DbKey", "DbRecord", "TrialSummary", "PolicyDb", "SCHEMA_VERSION", "SERIES_CAP"]

SCHEMA_VERSION = 2
SERIES_CAP = 512
_PAYLOAD_FIELDS = ("series", "lr_trace", "meta")
_HEADER = json.dumps({"kind": "header", "schema_version": SCHEMA_VERSION}) + "\n"
_TAIL_BLOCK = 1 << 16


@dataclass(frozen=True)
class DbKey:
    """Identity of a measurement context; every component non-empty."""

    dataset_id: str
    model_id: str
    optimizer_id: str

    def __post_init__(self) -> None:
        for name in ("dataset_id", "model_id", "optimizer_id"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise DbError(f"DbKey.{name} must be a non-empty string, got {value!r}")

    def to_doc(self) -> dict:
        return {"dataset_id": self.dataset_id, "model_id": self.model_id,
                "optimizer_id": self.optimizer_id}

    @classmethod
    def from_doc(cls, doc: dict) -> "DbKey":
        try:
            return cls(dataset_id=doc["dataset_id"], model_id=doc["model_id"],
                       optimizer_id=doc["optimizer_id"])
        except (KeyError, TypeError) as exc:
            raise DbError(f"malformed key document: {doc!r}") from exc


@dataclass(frozen=True)
class TrialSummary:
    """The scalar fields of a stored trial: what queries and ranking read."""

    task_id: str
    model_id: str
    policy: LRPolicy
    optimizer: str
    seed: int
    budget_iters: int
    eval_every: int
    diverged: bool
    peak_top1: float | None
    iter_at_peak: int | None
    final_loss: float

    @classmethod
    def from_doc(cls, doc: dict) -> "TrialSummary":
        return cls(task_id=doc["task_id"], model_id=doc["model_id"],
                   policy=policy_from_doc(doc["policy"]), optimizer=doc["optimizer"],
                   seed=doc["seed"], budget_iters=doc["budget_iters"],
                   eval_every=doc["eval_every"], diverged=doc["diverged"],
                   peak_top1=doc["peak_top1"], iter_at_peak=doc["iter_at_peak"],
                   final_loss=float(doc["final_loss"]))  # non-finite losses are stored as text


@dataclass(frozen=True)
class DbRecord:
    """One stored trial: store id, key, insertion time, summary and payload.

    ``summary_doc`` and ``payload`` are the stored summary document and
    payload text; :attr:`record` decodes the full trial on first access.
    """

    id: int
    key: DbKey
    inserted_at: float
    summary: TrialSummary
    summary_doc: dict = field(repr=False)
    payload: str = field(repr=False)

    @cached_property
    def record(self) -> TrialRecord:
        """The stored trial with its (thinned) series and lr trace."""
        return record_from_doc({**self.summary_doc, **json.loads(self.payload)})


def _check_consistency(doc: dict) -> None:
    series = doc["series"]
    tops = [(m["top1"], m["iteration"]) for m in series if m.get("top1") is not None]
    peak, peak_iter = doc["peak_top1"], doc["iter_at_peak"]
    if not tops:
        if peak is not None or peak_iter is not None:
            raise DbError("record claims a peak but its series has no accuracy")
        return
    best = max(v for v, _ in tops)
    if peak != best:
        raise DbError(f"record peak_top1={peak!r} but series max is {best!r}")
    if not any(i == peak_iter and v == best for v, i in tops):
        raise DbError(f"record iter_at_peak={peak_iter!r} does not attain the peak")


def _crc(payload: str) -> int:
    return zlib.crc32(payload.encode("utf-8"))


def _new_row(key: DbKey, inserted_at: float, doc: dict) -> DbRecord:
    """An unnumbered row holding a (thinned) trial document, split into summary and payload."""
    body = {name: doc.pop(name) for name in _PAYLOAD_FIELDS if name in doc}
    return DbRecord(id=0, key=key, inserted_at=float(inserted_at),
                    summary=TrialSummary.from_doc(doc), summary_doc=doc,
                    payload=json.dumps(body, separators=(",", ":")))


def _record_line(row: DbRecord) -> str:
    return json.dumps({"kind": "record", "id": row.id, "inserted_at": row.inserted_at,
                       "key": row.key.to_doc(), "summary": row.summary_doc,
                       "crc": _crc(row.payload), "payload": row.payload}) + "\n"


def _parse_line(line, path: str, lineno: int):
    try:
        return json.loads(line)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise DbError(f"{path} line {lineno}: invalid JSON: {exc}") from exc


def _check_header(line, path: str) -> None:
    header = _parse_line(line, path, 1)
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise DbError(f"{path} line 1: expected a header line")
    if header.get("schema_version") != SCHEMA_VERSION:
        raise DbError(f"{path}: schema_version {header.get('schema_version')!r} "
                      f"unsupported (want {SCHEMA_VERSION})")


def _row_from_line(line, path: str, lineno: int) -> DbRecord:
    """Decode one record line, checking its payload's CRC but not parsing the payload."""
    doc = _parse_line(line, path, lineno)
    try:
        if not isinstance(doc, dict) or doc.get("kind") != "record":
            raise DbError("expected a record line")
        payload = doc["payload"]
        if _crc(payload) != doc["crc"]:
            raise DbError("payload fails its CRC check")
        summary_doc = doc["summary"]
        return DbRecord(id=int(doc["id"]), key=DbKey.from_doc(doc["key"]),
                        inserted_at=float(doc["inserted_at"]),
                        summary=TrialSummary.from_doc(summary_doc),
                        summary_doc=summary_doc, payload=payload)
    except DbError as exc:
        raise DbError(f"{path} line {lineno}: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DbError(f"{path} line {lineno}: malformed record: {exc!r}") from exc


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class PolicyDb:
    """Open (creating if needed) a policy store at ``path``."""

    def __init__(self, path: str):
        self.path = str(path)
        self._rows: list[DbRecord] = []
        if not os.path.exists(self.path):
            self._append([])  # creates the file and writes its header
        self._load()

    # -- file plumbing ------------------------------------------------------

    def _load(self) -> None:
        try:
            with open(self.path, "rb") as f:
                data = f.read()
        except OSError as exc:
            raise DbError(f"cannot read store at {self.path!r}: {exc}") from exc
        lines = data.split(b"\n")
        if lines.pop():
            warnings.warn(f"{self.path}: skipping truncated final line {len(lines) + 1}")
        if not lines:
            return
        _check_header(lines[0], self.path)
        self._rows = [_row_from_line(line, self.path, i)
                      for i, line in enumerate(lines[1:], start=2)]

    def _last_line(self, fd: int, size: int) -> tuple[int, int]:
        """(end offset, id) of the last complete line in the file's first ``size`` bytes.

        The header counts as id 0; a file with no complete line gives (0, 0).
        """
        buf, start = b"", size
        while start > 0:
            stop, start = start, max(0, start - _TAIL_BLOCK)
            os.lseek(fd, start, os.SEEK_SET)  # reads only: O_APPEND writes ignore the offset
            buf = os.read(fd, stop - start) + buf
            nl = buf.rfind(b"\n")
            if nl < 0:
                continue
            begin = buf.rfind(b"\n", 0, nl) + 1
            if begin > 0 or start == 0:
                try:
                    doc = json.loads(buf[begin:nl])
                    last_id = 0 if doc["kind"] == "header" else int(doc["id"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise DbError(f"{self.path}: last complete line is malformed, "
                                  f"refusing to append: {exc!r}") from exc
                return start + nl + 1, last_id
        return 0, 0

    def _append(self, rows: list[DbRecord]) -> list[DbRecord]:
        """Append ``rows`` under the write lock, numbered on from the file's last id.

        Writes the header first into a file with no complete line, and
        truncates a torn final fragment before writing.
        """
        try:
            fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        except OSError as exc:
            raise DbError(f"cannot write store at {self.path!r}: {exc}") from exc
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)  # released when fd is closed
            size = os.fstat(fd).st_size
            end, last_id = self._last_line(fd, size)
            if end < size:
                os.ftruncate(fd, end)
            rows = [replace(row, id=last_id + i) for i, row in enumerate(rows, start=1)]
            data = (("" if end else _HEADER)
                    + "".join(_record_line(row) for row in rows)).encode("utf-8")
            _write_all(fd, data)
        except OSError as exc:
            raise DbError(f"cannot append to store at {self.path!r}: {exc}") from exc
        finally:
            os.close(fd)
        self._rows.extend(rows)
        return rows

    # -- operations ---------------------------------------------------------

    def put(self, key: DbKey, record: TrialRecord, *, stable: bool = False,
            inserted_at: float | None = None) -> int:
        """Store one trial; returns its id, one past the file's last."""
        if not isinstance(key, DbKey):
            raise DbError(f"key must be a DbKey, got {type(key).__name__}")
        doc = record_to_doc(record, stable=stable, series_cap=SERIES_CAP)
        _check_consistency(doc)
        if inserted_at is None:
            inserted_at = 0.0 if stable else time.time()
        (row,) = self._append([_new_row(key, inserted_at, doc)])
        return row.id

    def __len__(self) -> int:
        return len(self._rows)

    def query(self, key: DbKey) -> list[DbRecord]:
        """Records under exactly ``key``, in insertion order."""
        return [r for r in self._rows if r.key == key]

    def query_partial(self, dataset_id: str | None = None, model_id: str | None = None,
                      optimizer_id: str | None = None) -> list[DbRecord]:
        """Records matching every given component (None matches all)."""
        out = []
        for r in self._rows:
            if dataset_id is not None and r.key.dataset_id != dataset_id:
                continue
            if model_id is not None and r.key.model_id != model_id:
                continue
            if optimizer_id is not None and r.key.optimizer_id != optimizer_id:
                continue
            out.append(r)
        return out

    def top_n(self, key: DbKey, n: int, metric: str = "peak_top1",
              target_top1: float | None = None) -> list[tuple[LRPolicy, float]]:
        """Best ``n`` stored trials under ``key`` by ``metric``.

        The result for ``n`` is always a prefix of the result for
        ``n + 1`` because ranking is total and deterministic.  Only
        ``iters_to_target`` reads the series, so only it decodes payloads.
        """
        if n < 1:
            raise DbError(f"n must be >= 1, got {n}")
        if metric not in RANK_METRICS:
            raise DbError(f"unknown metric {metric!r}; expected one of {RANK_METRICS}")
        rows = self.query(key)
        if not rows:
            return []
        if metric == "iters_to_target":
            matches = [r.record for r in rows]
        else:
            matches = [r.summary for r in rows]
        ranked = rank_policies(matches, metric=metric, target_top1=target_top1)

        def value(rec) -> float:
            if metric == "peak_top1":
                return rec.peak_top1
            if metric == "final_loss":
                return rec.final_loss
            it = iterations_to_target(rec, target_top1)
            return float("inf") if it is None else float(it)

        return [(rec.policy, value(rec)) for rec in ranked[:n]]

    def export(self, path: str) -> int:
        """Write the whole store to ``path``; returns the record count."""
        if os.path.abspath(path) == os.path.abspath(self.path):
            raise DbError("export target must differ from the store file")
        try:
            with open(path, "w", encoding="utf-8") as f:
                f.write(_HEADER)
                f.writelines(_record_line(row) for row in self._rows)
        except OSError as exc:
            raise DbError(f"cannot export to {path!r}: {exc}") from exc
        return len(self._rows)

    def import_(self, path: str) -> int:
        """Append every record from an exported file; all-or-nothing.

        Every line is checked first, payloads fully decoded, and any
        malformed line aborts with an error naming it, leaving both the
        store file and memory untouched.  The records are then written by
        one locked append.  Imported records get fresh ids; keys,
        payloads, and insertion times are preserved.
        """
        try:
            with open(path, "r", encoding="utf-8") as f:
                lines = [ln for ln in f.read().split("\n") if ln != ""]
        except (OSError, UnicodeDecodeError) as exc:
            raise DbError(f"cannot read import file {path!r}: {exc}") from exc
        if not lines:
            raise DbError(f"import file {path!r} is empty")
        _check_header(lines[0], path)
        incoming = []
        for i, line in enumerate(lines[1:], start=2):
            row = _row_from_line(line, path, i)
            try:
                doc = {**row.summary_doc, **json.loads(row.payload)}
                _check_consistency(doc)
                record_from_doc(doc)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise DbError(f"{path} line {i}: malformed payload: {exc}") from exc
            incoming.append(row)
        if incoming:
            self._append(incoming)
        return len(incoming)
