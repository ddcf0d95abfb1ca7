"""Append-only JSON-lines store for measured policy results.

Layout (schema version 3): a header line carrying the schema version,
then one line per stored trial: its head JSON, a tab, and its payload
JSON.  ``json.dumps`` writes both in ASCII with every tab and newline
escaped, so the first tab splits a line.  The head holds ``kind``
(``"record"``), ``id``, ``inserted_at``, ``key`` (dataset, model,
optimizer), ``summary`` (the trial's scalar fields: task, model, policy,
optimizer, seed, budget, eval cadence, divergence, peak accuracy and its
iteration, final loss) and ``crc``, the CRC-32 of the payload bytes.  The
summary reads back as a :class:`lrkit.training.TrialSummary`.  The
payload is the rest of the trial document: its metric series, lr trace
and, when kept, wall-clock ``meta``.  Files of schema versions 1 and 2
are refused.

Open reads the file's lines once through one buffered reader of 1 MiB,
which also takes a longer line whole.  It decodes the heads (each
distinct key and policy once) that the process's last open or import did
not read: a memo keeps that scan's heads, one file's at most, with no
file identity or invalidation, as a head's fields depend only on its
bytes.  It checks every payload against its CRC in place, neither parsed
nor kept: a row holds where its payload lies in the file, and
:attr:`DbRecord.payload` reads it from there at each access and checks
it against the head's CRC again.  So a handle's memory scales with its
rows, not its file.  A handle holds one descriptor, open for reading,
which closes once the handle and every row read through it are gone; its
rows read on from it after the path is unlinked or replaced.  A summary
is built on the first read of :attr:`DbRecord.summary`, a payload
decoded on that of :attr:`DbRecord.record`.  ``len``,
:meth:`PolicyDb.query`, :meth:`PolicyDb.query_partial` and ranking by
``peak_top1`` or ``final_loss`` read no payload; ranking by
``iters_to_target`` decodes the rows it ranks.  A row a ``put`` or
``import_`` appends points at its line in the file it was written to, so
what a handle reads back after a ``put`` equals what a fresh open reads.

A stored trial document is ``record_to_doc(record, series_cap=SERIES_CAP)``:
its metric series and lr trace are thinned to at most :data:`SERIES_CAP`
points (up to half of them keep the entries that raise the best top-1,
the peak among them, and kept wall times follow the kept entries); peak
and final fields are exact regardless.

Concurrency: any number of handles in any processes may read and write
one file.  Writers serialize on one advisory lock (``flock``) on the
file.  Holding it, a ``put`` or ``import_`` creates a missing file, takes
its ids from the file's last complete line, truncates a torn fragment an
interrupted append left behind, and writes all its lines with one
``os.write`` on an ``O_APPEND`` descriptor (repeated only after a short
write).  Readers take no lock and never write: a line counts once its
newline is on disk, so an unterminated final line -- an append in flight
or one cut short -- is skipped with a warning and left for the next
writer to repair.  A handle does not see records that other handles
append after it opened; open the store again to see them.  A handle
appends to the file its path names at the time, so after the path is
replaced its new rows read from the new file and its older rows from the
old one.  Corruption anywhere else (invalid JSON, a malformed record, a
payload that fails its CRC) refuses to open, naming the line; a payload
changed after the open fails its CRC when it is read, naming the record id.
"""
from __future__ import annotations

import json
import os
import stat
import threading
import time
import warnings
import weakref
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import count

from .errors import DbError, PolicyFormatError, check_count
from .schedules import LRPolicy, policy_from_doc
from .training import TrialRecord, TrialSummary, _summary_values, record_from_doc, record_to_doc
from .tuning import _check_metric, metric_value, rank_policies

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
_SCAN_BLOCK = 1 << 20
_DECODER = json.JSONDecoder()
# The heads the last scan read: each one's bytes -> where its entry starts in ``_memo[3]``,
# the keys and policies of those heads by text (see _decoded), then the entries end to end,
# each the row's fields but its place, the texts of its key and policy, and the head's bytes.
# One list of entries, not a tuple each, so that a cold scan leaves the collector no more
# objects to track.
_memo: tuple[dict, dict, dict, list] = ({}, {}, {}, [])


class _File:
    """A store or import file open for reading, shared by a handle and the rows read through
    it; the descriptor is closed once none of them refers to this object."""

    def __init__(self, raw, name: str):
        self.raw, self.name = raw, name
        self._lock = nullcontext() if hasattr(os, "pread") else threading.Lock()
        weakref.finalize(self, raw.close)

    def read(self, offset: int, length: int) -> bytes:
        """``length`` bytes at ``offset``, or fewer at the end of the file."""
        with self._lock:
            return _pread(self.raw.fileno(), length, offset)


def _pread(fd: int, length: int, offset: int) -> bytes:
    if hasattr(os, "pread"):
        return os.pread(fd, length, offset)
    os.lseek(fd, offset, os.SEEK_SET)  # reads only: O_APPEND writes ignore the offset
    return os.read(fd, length)


def _open(path: str, what: str) -> _File:
    try:
        raw = open(path, "rb", buffering=0)
    except OSError as exc:
        raise DbError(f"cannot read {what} {path!r}: {exc}") from exc
    file = _File(raw, path)
    if not stat.S_ISREG(os.fstat(raw.fileno()).st_mode):  # payloads are read again by offset
        raise DbError(f"cannot read {what} {path!r}: not a regular file")
    return file


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
class DbRecord:
    """One stored trial: store id, key, insertion time, policy, summary and payload CRC.

    ``policy`` is the decoded policy of the stored ``summary_doc``; rows of one open with equal
    documents share one key and policy object.  A row holds where its payload lies in a file,
    not the payload: :attr:`payload` reads it at each access, and :attr:`summary` and
    :attr:`record` are built on first read.
    """

    id: int
    key: DbKey
    inserted_at: float
    policy: LRPolicy
    summary_doc: dict = field(repr=False)
    crc: int = field(repr=False)
    _at: tuple = field(repr=False, compare=False)  # (_File, offset, length) of the payload

    @property
    def payload(self) -> bytes:
        """The payload JSON bytes, read from the file and checked against ``crc``."""
        file, offset, length = self._at
        try:
            data = file.read(offset, length)
        except OSError as exc:
            raise DbError(f"{file.name}: cannot read the payload of record {self.id}: "
                          f"{exc}") from exc
        if zlib.crc32(data) != self.crc:
            raise DbError(f"{file.name}: record {self.id}: payload fails its CRC check")
        return data

    @cached_property
    def summary(self) -> TrialSummary:
        """The stored trial's scalar fields."""
        return TrialSummary.from_doc(self.summary_doc, self.policy)

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


def _decoded(memo: dict, last: dict, doc, decode):
    """``decode(doc)`` and its text ``repr(doc)`` (1, 1.0 and True differ): one object per text,
    kept in ``memo`` or taken from ``last``, unless ``doc`` holds a NaN, which can make a policy
    unequal to itself: each row keeps its own."""
    if (value := memo.get(text := repr(doc))) is None:
        value = last.get(text) or decode(doc)  # a key or a policy is never false
        if "nan" not in text:  # exact for a policy: no name or type tag of one holds "nan"
            memo[text] = value
    return value, text


def _new_row(key: DbKey, inserted_at: float, doc: dict) -> tuple[DbRecord, bytes]:
    """An unnumbered, unplaced row of a (thinned) trial document, and its payload bytes."""
    body = {name: doc.pop(name) for name in _PAYLOAD_FIELDS if name in doc}
    payload = json.dumps(body, separators=(",", ":")).encode()
    return DbRecord(id=0, key=key, inserted_at=float(inserted_at),
                    policy=TrialSummary.from_doc(doc).policy, summary_doc=doc,
                    crc=zlib.crc32(payload), _at=()), payload


def _record_line(row_id: int, row: DbRecord, payload: bytes) -> bytes:
    head = json.dumps({"kind": "record", "id": row_id, "inserted_at": row.inserted_at,
                       "key": row.key.to_doc(), "summary": row.summary_doc, "crc": row.crc})
    return b"".join((head.encode(), b"\t", payload, b"\n"))


def _check_header(line: bytes) -> None:
    header = json.loads(line)  # invalid JSON raises a ValueError; the caller names the line
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise DbError("expected a header line")
    if header.get("schema_version") != SCHEMA_VERSION:
        raise DbError(f"schema_version {header.get('schema_version')!r} "
                      f"unsupported (want {SCHEMA_VERSION})")


def _row_from_line(line: bytes, file: _File | None, base: int, last, memo=None) -> DbRecord:
    """The record on ``line``, which ends in its newline and lies at ``base`` in ``file``,
    its payload CRC-checked in place and kept as a place in ``file``.  A head that ``last``, a
    scan's memo (see :data:`_memo`), holds is not decoded again; ``memo`` takes the line's."""
    heads, keys, policies, flat = memo or ({}, {}, {}, [])
    tab = line.find(b"\t")
    try:
        if tab < 0:
            raise DbError("no tab between the head and the payload")
        if (at := last[0].get(raw := line[:tab])) is None:
            try:  # one raw decode of an ASCII head that takes it all; else json.loads, which
                # sets what is accepted (whitespace, a BOM) and every error message
                head, end = _DECODER.raw_decode(text := str(raw, "ascii"))
                if end < len(text):
                    raise ValueError("extra data")
            except ValueError:
                head = json.loads(raw)
            if not isinstance(head, dict) or head.get("kind") != "record":
                raise DbError("expected a record line")
        if (crc := zlib.crc32(memoryview(line)[tab + 1:-1])) != (
                head["crc"] if at is None else last[3][at + 5]):
            raise DbError("payload fails its CRC check")
        if at is None:
            summary_doc = head["summary"]
            row_id = int(head["id"])
            key, key_text = _decoded(keys, last[1], head["key"], DbKey.from_doc)
            inserted_at = float(head["inserted_at"])
            # The checks of TrialSummary.from_doc, in its order, with the policy from the memo.
            _, _, policy_doc, *_, final_loss = _summary_values(summary_doc)
            policy, policy_text = _decoded(policies, last[2], policy_doc, policy_from_doc)
            float(final_loss)
            fields = row_id, key, inserted_at, policy, summary_doc, crc, key_text, policy_text, raw
        else:  # its key and policy are shared on, with rows decoded here and by the next scan
            fields = last[3][at:at + 9]
            keys[fields[6]], policies[fields[7]] = fields[1], fields[3]
        if policies.get(fields[7]) is fields[3]:  # not a NaN policy, which is decoded per row
            heads[fields[8]] = len(flat)  # the first scan's bytes, so that scans share them
            flat += fields
        return DbRecord(*fields[:6], (file, base + tab + 1, len(line) - tab - 2))
    except DbError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # invalid JSON too
        raise DbError(f"malformed record: {exc!r}") from exc


def _scan(file: _File, what: str) -> tuple[list[DbRecord], int]:
    """The records of a file's complete lines, read through one buffered reader of
    :data:`_SCAN_BLOCK` bytes, and the number of a torn last line, or 0.  Heads found in
    :data:`_memo` are not decoded again, and the scan replaces it with the heads it read."""
    global _memo
    rows, memo, last, offset = [], ({}, {}, {}, []), _memo, 0
    try:
        with open(file.raw.fileno(), "rb", buffering=_SCAN_BLOCK, closefd=False) as reader:
            for lineno, line in enumerate(reader, start=1):
                if not line.endswith(b"\n"):  # torn: an append in flight or cut short
                    return rows, lineno
                try:
                    if lineno == 1:
                        _check_header(line[:-1])
                    else:
                        rows.append(_row_from_line(line, file, offset, last, memo))
                except ValueError as exc:  # a DbError, or a header that is not JSON
                    raise DbError(f"{file.name} line {lineno}: {exc}") from exc
                offset += len(line)
    except OSError as exc:
        raise DbError(f"cannot read {what} {file.name!r}: {exc}") from exc
    finally:
        _memo = memo
    return rows, 0


def _path(value, what: str) -> str:
    # The store's own path rule: a str or an os.PathLike of one, so an int is never read
    # as an open file descriptor.
    path = os.fspath(value) if isinstance(value, os.PathLike) else value
    if not isinstance(path, str):
        raise DbError(f"{what} path must be a str or an os.PathLike of one, got {value!r}")
    return path


def _same_file(a: str, b: str) -> bool:
    # True also for a symlink or a hard link to the other name.
    return os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class PolicyDb:
    """A policy store at ``path``, a str or an os.PathLike of one; opening it never writes."""

    def __init__(self, path: str | os.PathLike):
        self.path = _path(path, "store")
        self._rows: list[DbRecord] = []
        self._file: _File | None = None
        if os.path.exists(self.path):
            self._file = _open(self.path, "store at")
            self._rows, torn = _scan(self._file, "store at")
            if torn:
                warnings.warn(f"{self.path}: skipping truncated final line {torn}")

    # -- file plumbing ------------------------------------------------------

    def _last_line(self, fd: int, size: int) -> tuple[int, int]:
        """(end offset, id) of the last complete line in the file's first ``size`` bytes.

        The header counts as id 0; a file with no complete line gives (0, 0).
        """
        buf, start = b"", size
        while start > 0:
            stop, start = start, max(0, start - _TAIL_BLOCK)
            buf = _pread(fd, stop - start, start) + buf
            nl = buf.rfind(b"\n")
            if nl < 0:
                continue
            begin = buf.rfind(b"\n", 0, nl) + 1
            if begin > 0 or start == 0:
                try:  # the file's first line is its header: id 0
                    last_id = (_row_from_line(buf[begin:nl + 1], None, start + begin, _memo).id
                               if start + begin else 0)
                except DbError as exc:
                    raise DbError(f"{self.path}: last complete line is malformed, "
                                  f"refusing to append: {exc}") from exc
                return start + nl + 1, last_id
        return 0, 0

    def _append(self, rows: list[DbRecord], payloads: list[bytes]) -> list[DbRecord]:
        """Append ``rows`` with their ``payloads`` under the write lock, numbered on from the
        file's last id; each appended row points at its payload in the file written to.

        Writes the header first into a file with no complete line, and
        truncates a torn final fragment before writing.
        """
        try:
            fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        except OSError as exc:
            raise DbError(f"cannot write store at {self.path!r}: {exc}") from exc
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            size = os.fstat(fd).st_size
            end, last_id = self._last_line(fd, size)
            if end < size:
                os.ftruncate(fd, end)
            file = self._file
            if file is None or not os.path.sameopenfile(file.raw.fileno(), fd):  # new or replaced
                file = _File(open(os.dup(fd), "rb", buffering=0), self.path)
            offset, lines, placed = end or len(_HEADER), [], []
            for row_id, row, payload in zip(count(last_id + 1), rows, payloads):
                lines.append(line := _record_line(row_id, row, payload))
                offset += len(line)
                placed.append(replace(row, id=row_id,
                                      _at=(file, offset - len(payload) - 1, len(payload))))
            _write_all(fd, b"".join([b"" if end else _HEADER, *lines]))
        except OSError as exc:
            raise DbError(f"cannot append to store at {self.path!r}: {exc}") from exc
        finally:
            if fcntl is not None:  # unlocked here, as the handle may keep a dup of fd
                fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
        self._file = file
        self._rows.extend(placed)
        return placed

    # -- operations ---------------------------------------------------------

    def put(self, key: DbKey, record: TrialRecord, *, stable: bool = False) -> int:
        """Store one trial; returns its id, one past the file's last.

        Its ``inserted_at`` is 0.0 when ``stable``, else the wall time.  A
        record it cannot encode raises :class:`DbError` before the file is touched.
        """
        if not isinstance(key, DbKey):
            raise DbError(f"key must be a DbKey, got {type(key).__name__}")
        if not isinstance(record, TrialRecord):
            raise DbError(f"record must be a TrialRecord, got {type(record).__name__}")
        try:
            doc = record_to_doc(record, stable=stable, series_cap=SERIES_CAP)
            _check_consistency(doc)
            row, payload = _new_row(key, 0.0 if stable else time.time(), doc)
            json.dumps(row.summary_doc)  # the one part of its line not yet encoded
        except (TypeError, PolicyFormatError) as exc:  # JSON or a float cannot take a field,
            # or the policy does not read back, as an empty or nested COMPOSITE does not
            raise DbError(f"cannot store the record of task {record.task_id!r}, "
                          f"seed {record.seed!r}: {exc}") from exc
        return self._append([row], [payload])[0].id

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
        _check_metric(metric, target_top1, DbError)
        rows = self.query(key)
        if not rows:
            return []
        ranked = rank_policies([r.record if metric == "iters_to_target" else r.summary
                                for r in rows], metric=metric, target_top1=target_top1)
        return [(rec.policy, metric_value(rec, metric, target_top1)) for rec in ranked[:n]]

    def export(self, path: str | os.PathLike) -> int:
        """Write the whole store to ``path``, not the store itself; returns the record count."""
        path = _path(path, "export")
        if _same_file(path, self.path):
            raise DbError("export target must differ from the store file")
        try:
            with open(path, "wb") as f:
                f.write(_HEADER)
                f.writelines(_record_line(row.id, row, row.payload) for row in self._rows)
        except OSError as exc:
            raise DbError(f"cannot export to {path!r}: {exc}") from exc
        return len(self._rows)

    def import_(self, path: str | os.PathLike) -> int:
        """Append every record from an exported file; all-or-nothing.

        Every line is checked and every payload decoded first; a malformed
        line aborts with an error naming it, leaving the store file and
        memory untouched.  The records are then written by one locked
        append, with fresh ids; keys, payloads and insertion times are kept.
        """
        path = _path(path, "import")
        if _same_file(path, self.path):
            raise DbError("import file must differ from the store file")
        file = _open(path, "import file")
        if not os.fstat(file.raw.fileno()).st_size:
            raise DbError(f"import file {path!r} is empty")
        incoming, torn = _scan(file, "import file")
        if torn:
            raise DbError(f"{path} line {torn}: unterminated final line")
        payloads = []
        for i, row in enumerate(incoming, start=2):
            payloads.append(payload := row.payload)
            try:
                doc = {**row.summary_doc, **json.loads(str(payload, "utf-8"))}
                _check_consistency(doc)
                record_from_doc(doc)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise DbError(f"{path} line {i}: malformed payload: {exc}") from exc
        if incoming:
            self._append(incoming, payloads)
        return len(incoming)
