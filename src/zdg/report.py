"""Machine-readable run reports: ordered JSON plus RFC-4180 CSV sidecars.

A report is a flat list of check records, each carrying a status in
{pass, fail, info}; "info" marks measurements that are reported rather
than adjudicated.  Field order in the JSON is fixed so reports diff
cleanly across runs.  Large numeric tables never go inline; they are
written as CSV sidecars next to the JSON file, headed by the column names
their rows carry, so each column is named once.  A sidecar is streamed in
blocks of rows, formatted a column at a time, and written atomically: it
appears under its name only once its last row is written.  The bytes are
those csv.writer would write for the same cells.
"""

import contextlib
import hashlib
import itertools
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

STATUSES = ("pass", "fail", "info")


def build_identifier():
    """Short content hash of the installed package sources."""
    root = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    names = sorted(name for name in os.listdir(root)
                   if name.endswith(".py"))
    for name in names:
        digest.update(name.encode())
        with open(os.path.join(root, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:12]


def _json_safe(value):
    """(value, finite): value with plain python scalars and non-finite
    floats replaced by their names, which strict JSON can hold, and
    whether it had no non-finite float."""
    if isinstance(value, dict):
        pairs = [(str(k), _json_safe(v)) for k, v in value.items()]
        return ({k: v for k, (v, _) in pairs},
                all(ok for _, (_, ok) in pairs))
    if isinstance(value, (list, tuple)):
        items = [_json_safe(v) for v in value]
        return [v for v, _ in items], all(ok for _, ok in items)
    if not (value is None or isinstance(value, (bool, int, float, str))):
        value = value.item() if hasattr(value, "item") else str(value)
    if isinstance(value, float) and not math.isfinite(value):
        return str(value), False
    return value, True


@dataclass
class Report:
    """Accumulates check records for one command invocation."""

    command: str
    config: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    started: float = field(default_factory=time.perf_counter)
    created: str = field(default_factory=lambda: datetime.now(
        timezone.utc).isoformat(timespec="seconds"))
    build_id: str = field(default_factory=build_identifier)

    def add(self, name, status, value=None, tolerance=None, detail="",
            seconds=None):
        if status not in STATUSES:
            raise ValueError(f"record status must be one of {STATUSES}, "
                             f"got {status!r}")
        value, value_ok = _json_safe(value)
        tolerance, tolerance_ok = _json_safe(tolerance)
        if not (value_ok and tolerance_ok):
            status = "fail"
            detail = (f"{detail}; " if detail else "") + "non-finite value"
        record = {
            "name": name,
            "status": status,
            "value": value,
            "tolerance": tolerance,
            "detail": detail,
        }
        if seconds is not None:
            record["seconds"] = round(float(seconds), 6)
        self.records.append(record)
        return record

    def add_check(self, name, value, tolerance, detail="", seconds=None):
        """Pass/fail record: pass when value <= tolerance."""
        return self.add(name, "pass" if value <= tolerance else "fail",
                        value=value, tolerance=tolerance, detail=detail,
                        seconds=seconds)

    @property
    def all_pass(self):
        return not any(r["status"] == "fail" for r in self.records)

    def to_json_dict(self):
        counts = {status: sum(1 for r in self.records
                              if r["status"] == status)
                  for status in STATUSES}
        return {
            "command": self.command,
            "created": self.created,
            "build_id": self.build_id,
            "elapsed_seconds": round(time.perf_counter() - self.started, 3),
            "config": _json_safe(self.config)[0],
            "summary": {
                "records": len(self.records),
                "pass": counts["pass"],
                "fail": counts["fail"],
                "info": counts["info"],
                "all_pass": self.all_pass,
            },
            "records": self.records,
        }

    def write(self, out_dir):
        """Write the report as <command>.json, - as _; returns its path."""
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, self.command.replace("-", "_") + ".json")
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, allow_nan=False)
            fh.write("\n")
        return path


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # numpy float64 too, without its type name
        return float.__repr__(value)
    if hasattr(value, "item"):
        return _cell(value.item())
    return str(value)


_BLOCK_ROWS = 2048  # rows formatted and written per step of write_table


class Columns:
    """Table rows over named equal-length array columns, as plain python
    scalars: Columns({name: array, ...}) heads its table with its names.

    Each pass converts _BLOCK_ROWS rows at a time with .tolist(), so
    write_table holds one block of rows, never the whole table; len is the
    row count, which benchmark/trace_child.py reads off write_table's rows.
    """

    def __init__(self, columns):
        if len(set(map(len, columns.values()))) > 1:
            raise ValueError("table columns differ in length")
        self.columns = columns

    def __len__(self):
        return len(next(iter(self.columns.values()), ()))

    def __iter__(self):
        for lo in range(0, len(self), _BLOCK_ROWS):
            yield from zip(*(col[lo:lo + _BLOCK_ROWS].tolist()
                             for col in self.columns.values()))


def _field(text, lone):
    """A cell as csv.writer's minimal quoting writes it; a row's lone empty
    cell is quoted so the row is not read back as blank."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return '""' if lone and not text else text


def _column(values, lone):
    """The written cells of one column of a block: a column of only floats
    or only ints is formatted in one pass (no quoting can apply), anything
    else cell by cell."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return map(repr, values)
    if kinds == {int}:
        return map(str, values)
    return [_field(_cell(v), lone) for v in values]


def _blocks(stem, rows):
    """The CSV text of a table, one string per block of rows, headed by the
    names of a Columns or by the keys of a list's first mapping."""
    columnar = isinstance(rows, Columns)
    first = rows.columns if columnar else rows[0] if rows else {}
    header = list(first) if isinstance(first, dict) else []
    refusal = ValueError(f"table {stem}: every row must be a mapping with "
                         f"the first row's keys, one key at least")
    if not header:
        raise refusal
    lone, names = len(header) == 1, set(header)
    yield ",".join(_field(str(name), lone) for name in header) + "\r\n"
    rows = iter(rows)
    while block := [row if columnar
                    else [row[name] for name in header]
                    if isinstance(row, dict) and row.keys() == names
                    else None
                    for row in itertools.islice(rows, _BLOCK_ROWS)]:
        if any(row is None for row in block):
            raise refusal
        columns = [_column(col, lone) for col in zip(*block)]
        yield "\r\n".join(map(",".join, zip(*columns))) + "\r\n"


def write_table(out_dir, stem, *, rows):
    """Write one CSV sidecar (RFC-4180 quoting); returns its path.

    rows is a Columns, headed by its names, or a list of mappings, headed
    by the first one's keys in order; a later mapping with other keys, a
    row that is not a mapping and an empty list are refused (ValueError).
    Floats are written with full repr precision so reruns diff exactly.
    Rows are taken _BLOCK_ROWS at a time into a temporary file that
    replaces <stem>.csv only after the last one, so a refused row or a
    crash leaves no partial sidecar; a refusal or any other exception also
    removes the temporary file.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{stem}.csv")
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.writelines(_blocks(stem, rows))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    return path
