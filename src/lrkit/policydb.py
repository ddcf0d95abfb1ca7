"""Append-only JSON-lines store for measured policy results.

Layout (schema version 3): a header line carrying the schema version,
then one line per stored trial: its head JSON, a tab, and its payload
JSON.  ``json.dumps`` writes both in ASCII with every tab and newline
escaped, so the first tab splits a line.  The head holds ``kind``
(``"record"``), ``id``, ``inserted_at``, ``key`` (dataset, model,
optimizer), ``summary`` (the trial's scalar fields: task, model, policy,
optimizer, seed, budget, eval cadence, divergence, peak accuracy and its
iteration, final loss) and ``crc``, the CRC-32 of the payload bytes.  The
payload is the rest of the trial document: its metric series, lr trace
and, when kept, wall-clock ``meta``.  Files of schema versions 1 and 2
are refused.

Open reads the file once, decodes every head and checks every payload
against its CRC in place, neither parsed nor copied; a payload is decoded
the first time its :attr:`DbRecord.record` is read.  ``len``,
:meth:`PolicyDb.query`, :meth:`PolicyDb.query_partial` and ranking by
``peak_top1`` or ``final_loss`` decode no payload; ranking by
``iters_to_target`` decodes the rows it ranks.  A handle keeps each row
exactly as the file holds it, so what a handle reads back after a
``put`` equals what a fresh open reads.

A stored trial document is ``record_to_doc(record, series_cap=SERIES_CAP)``:
its metric series and lr trace are thinned to at most :data:`SERIES_CAP`
points (up to half of them keep the entries that raise the best top-1,
the peak among them, and kept wall times follow the kept entries); peak
and final fields are exact regardless.

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

from .errors import DbError, check_count
from .schedules import LRPolicy, policy_from_doc
from .training import TrialRecord, record_from_doc, record_to_doc
from .tuning import RANK_METRICS, metric_value, rank_policies

try:
    import fcntl
except ImportError:  # non-POSIX: no advisory lock, one writer at a time assumed
    fcntl = None

__all__ = ["DbKey", "DbRecord", "TrialSummary", "PolicyDb", "SCHEMA_VERSION", "SERIES_CAP"]

SCHEMA_VERSION = 3
SERIES_CAP = 512
_PAYLOAD_FIELDS = ("series", "lr_trace", "meta")
_HEADER = json.dumps({"kind": "header", "schema_version": SCHEMA_VERSION}).encode() + b"\n"
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

    ``summary_doc`` is the stored summary document and ``payload`` the stored
    payload JSON bytes, a view of the file as read or a copy; :attr:`record`
    decodes the full trial on first access.
    """

    id: int
    key: DbKey
    inserted_at: float
    summary: TrialSummary
    summary_doc: dict = field(repr=False)
    payload: bytes | memoryview = field(repr=False)

    @cached_property
    def record(self) -> TrialRecord:
        """The stored trial with its (thinned) series and lr trace."""
        return record_from_doc({**self.summary_doc, **json.loads(str(self.payload, "utf-8"))})


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


def _new_row(key: DbKey, inserted_at: float, doc: dict) -> DbRecord:
    """An unnumbered row holding a (thinned) trial document, split into summary and payload."""
    body = {name: doc.pop(name) for name in _PAYLOAD_FIELDS if name in doc}
    return DbRecord(id=0, key=key, inserted_at=float(inserted_at),
                    summary=TrialSummary.from_doc(doc), summary_doc=doc,
                    payload=json.dumps(body, separators=(",", ":")).encode())


def _record_line(row: DbRecord) -> bytes:
    head = json.dumps({"kind": "record", "id": row.id, "inserted_at": row.inserted_at,
                       "key": row.key.to_doc(), "summary": row.summary_doc,
                       "crc": zlib.crc32(row.payload)})
    return b"".join((head.encode(), b"\t", row.payload, b"\n"))


def _read(path: str, what: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise DbError(f"cannot read {what} {path!r}: {exc}") from exc


def _check_header(line: bytes) -> None:
    header = json.loads(line)  # invalid JSON raises a ValueError; the caller names the line
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise DbError("expected a header line")
    if header.get("schema_version") != SCHEMA_VERSION:
        raise DbError(f"schema_version {header.get('schema_version')!r} "
                      f"unsupported (want {SCHEMA_VERSION})")


def _row_from_line(data: bytes, view: memoryview, start: int, stop: int) -> DbRecord:
    """The record on line ``data[start:stop]``, its payload CRC-checked, unparsed, in ``view``."""
    tab = data.find(b"\t", start, stop)
    try:
        if tab < 0:
            raise DbError("no tab between the head and the payload")
        head = json.loads(data[start:tab])
        if not isinstance(head, dict) or head.get("kind") != "record":
            raise DbError("expected a record line")
        payload = view[tab + 1:stop]
        if zlib.crc32(payload) != head["crc"]:
            raise DbError("payload fails its CRC check")
        summary_doc = head["summary"]
        return DbRecord(id=int(head["id"]), key=DbKey.from_doc(head["key"]),
                        inserted_at=float(head["inserted_at"]),
                        summary=TrialSummary.from_doc(summary_doc),
                        summary_doc=summary_doc, payload=payload)
    except DbError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # invalid JSON too
        raise DbError(f"malformed record: {exc!r}") from exc


def _read_rows(data: bytes, path: str) -> tuple[list[DbRecord], int]:
    """The records of a file's complete lines and the number of a torn last line, or 0."""
    view, rows, start, lineno = memoryview(data), [], 0, 0
    while (stop := data.find(b"\n", start)) >= 0:
        lineno += 1
        try:
            if lineno == 1:
                _check_header(data[:stop])
            else:
                rows.append(_row_from_line(data, view, start, stop))
        except ValueError as exc:  # a DbError, or a header that is not JSON
            raise DbError(f"{path} line {lineno}: {exc}") from exc
        start = stop + 1
    return rows, (lineno + 1 if start < len(data) else 0)


def _same_file(a: str, b: str) -> bool:
    # True also for a symlink or a hard link to the other name.
    return os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)


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
        self._rows, torn = _read_rows(_read(self.path, "store at"), self.path)
        if torn:
            warnings.warn(f"{self.path}: skipping truncated final line {torn}")

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
                try:  # the file's first line is its header: id 0
                    last_id = (_row_from_line(buf, memoryview(buf), begin, nl).id
                               if start + begin else 0)
                except DbError as exc:
                    raise DbError(f"{self.path}: last complete line is malformed, "
                                  f"refusing to append: {exc}") from exc
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
            _write_all(fd, b"".join([b"" if end else _HEADER, *map(_record_line, rows)]))
        except OSError as exc:
            raise DbError(f"cannot append to store at {self.path!r}: {exc}") from exc
        finally:
            os.close(fd)
        self._rows.extend(rows)
        return rows

    # -- operations ---------------------------------------------------------

    def put(self, key: DbKey, record: TrialRecord, *, stable: bool = False) -> int:
        """Store one trial; returns its id, one past the file's last.

        Its ``inserted_at`` is 0.0 when ``stable``, else the wall time.  A
        record it cannot encode raises :class:`DbError` before the file is touched.
        """
        if not isinstance(key, DbKey):
            raise DbError(f"key must be a DbKey, got {type(key).__name__}")
        try:
            doc = record_to_doc(record, stable=stable, series_cap=SERIES_CAP)
            _check_consistency(doc)
            row = _new_row(key, 0.0 if stable else time.time(), doc)
            json.dumps(row.summary_doc)  # the one part of its line not yet encoded
        except TypeError as exc:  # a field JSON or a float cannot take
            raise DbError(f"cannot store the record of task {record.task_id!r}, "
                          f"seed {record.seed!r}: {exc}") from exc
        return self._append([row])[0].id

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
        check_count(DbError, "n", n)
        if metric not in RANK_METRICS:
            raise DbError(f"unknown metric {metric!r}; expected one of {RANK_METRICS}")
        rows = self.query(key)
        if not rows:
            return []
        ranked = rank_policies([r.record if metric == "iters_to_target" else r.summary
                                for r in rows], metric=metric, target_top1=target_top1)
        return [(rec.policy, metric_value(rec, metric, target_top1)) for rec in ranked[:n]]

    def export(self, path: str) -> int:
        """Write the whole store to ``path``, not the store itself; returns the record count."""
        if _same_file(path, self.path):
            raise DbError("export target must differ from the store file")
        try:
            with open(path, "wb") as f:
                f.write(_HEADER)
                f.writelines(_record_line(row) for row in self._rows)
        except OSError as exc:
            raise DbError(f"cannot export to {path!r}: {exc}") from exc
        return len(self._rows)

    def import_(self, path: str) -> int:
        """Append every record from an exported file; all-or-nothing.

        Every line is checked and every payload decoded first; a malformed
        line aborts with an error naming it, leaving the store file and
        memory untouched.  The records are then written by one locked
        append, with fresh ids; keys, payloads and insertion times are kept.
        """
        if _same_file(path, self.path):
            raise DbError("import file must differ from the store file")
        data = _read(path, "import file")
        if not data:
            raise DbError(f"import file {path!r} is empty")
        incoming, torn = _read_rows(data, path)
        if torn:
            raise DbError(f"{path} line {torn}: unterminated final line")
        for i, row in enumerate(incoming, start=2):
            try:
                doc = {**row.summary_doc, **json.loads(str(row.payload, "utf-8"))}
                _check_consistency(doc)
                record_from_doc(doc)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise DbError(f"{path} line {i}: malformed payload: {exc}") from exc
        if incoming:
            self._append(incoming)
        return len(incoming)
