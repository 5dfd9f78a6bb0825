"""External trace ingestion: files in, :class:`TraceDataset`-ready out.

Lets the feature encoders and every model family run on workloads the
in-repo VMs never generated.  Two on-disk formats, both gzip-friendly
(a ``.gz`` suffix switches transparently) and both streamed line by
line:

**JSONL** — one object per dynamic instruction::

    {"pc": 4096, "op": "lw", "srcs": ["a0"], "dsts": ["a1"],
     "addr": 1048576, "taken": null, "target": -1, "fault": false}

**CSV** — header ``pc,op,srcs,dsts,addr,taken,target,fault``; the
``srcs``/``dsts`` cells join operands with ``;``.

Field semantics (JSONL keys == CSV columns):

===========  =========================================================
field        meaning
===========  =========================================================
``pc``       instruction address (required, non-negative int)
``op``       mnemonic in the ``--isa`` frontend's vocabulary, or a
             canonical opcode id given as an int
``srcs``     source operands: register tokens (``"a0"``, ``"r5"``) or
             canonical register ids (ints); at most 8
``dsts``     destination operands, same encoding; at most 6
``addr``     effective memory address (default -1 = not a memory op)
``taken``    ``true``/``false`` for branches, ``null``/empty otherwise
``target``   resolved control-transfer target pc (default -1)
``fault``    execution-fault flag (default false)
===========  =========================================================

Opcode and register names resolve through the ``isa`` frontend's
vocabulary (:meth:`Frontend.operation_id` / :meth:`register_id`), so a
trace recorded against either ISA maps onto the shared operation
classes.  Every malformed input — truncated file, unknown opcode,
out-of-range register, corrupt gzip — raises :class:`TraceImportError`
rendering ``path:line: message``; the file is parsed *completely* before
anything is written, so a failed import never leaves a cache artifact.

Published artifacts live under ``<cache>/imported/<name>/`` as
``trace.npz`` plus a ``manifest.json`` recording the source digest —
re-importing an unchanged file is a cache hit and changes nothing.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import os
import tempfile
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.cache import imported_trace_dir
from repro.core.errors import UnknownExperimentError
from repro.isa.instructions import MAX_DST_SLOTS, MAX_SRC_SLOTS
from repro.isa.opcodes import NUM_OPCODES, OPCODE_BY_ID
from repro.isa.registers import NUM_REGS, REG_NONE
from repro.vm.trace import Trace, TraceBuilder

#: Bumped when the on-disk npz/manifest layout changes.
SCHEMA_VERSION = 1

_CSV_FIELDS = ("pc", "op", "srcs", "dsts", "addr", "taken", "target", "fault")


class TraceImportError(ValueError):
    """Malformed external trace, located as ``path:line: message``."""

    def __init__(
        self, message: str, path: str | None = None, lineno: int | None = None
    ):
        self.path = path
        self.lineno = lineno
        where = ""
        if path is not None:
            where = f"{path}:{lineno}: " if lineno is not None else f"{path}: "
        super().__init__(where + message)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------
def _open_text(path: str) -> io.TextIOBase:
    if path.endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _operand_ids(values, frontend, what: str, limit: int, path, lineno):
    if values is None:
        return ()
    if not isinstance(values, (list, tuple)):
        raise TraceImportError(f"{what} must be a list", path, lineno)
    if len(values) > limit:
        raise TraceImportError(
            f"too many {what} operands ({len(values)} > {limit})", path, lineno
        )
    ids = []
    for value in values:
        if isinstance(value, bool):
            raise TraceImportError(f"bad {what} operand {value!r}", path, lineno)
        if isinstance(value, int):
            reg = value
        elif isinstance(value, str):
            try:
                reg = frontend.register_id(value)
            except ValueError:
                raise TraceImportError(
                    f"unknown register {value!r} in {what}", path, lineno
                ) from None
        else:
            raise TraceImportError(f"bad {what} operand {value!r}", path, lineno)
        if not 0 <= reg < NUM_REGS:
            raise TraceImportError(
                f"register id {reg} out of range [0, {NUM_REGS}) in {what}",
                path,
                lineno,
            )
        ids.append(reg)
    return tuple(ids)


def _int_field(record: dict, key: str, default: int, path, lineno) -> int:
    value = record.get(key, default)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise TraceImportError(f"field {key!r} must be an int", path, lineno)
    return value


def _append_record(
    builder: TraceBuilder, record: dict, frontend, path: str, lineno: int
) -> None:
    pc = record.get("pc")
    if isinstance(pc, bool) or not isinstance(pc, int) or pc < 0:
        raise TraceImportError("field 'pc' must be a non-negative int", path, lineno)

    op = record.get("op")
    if isinstance(op, int) and not isinstance(op, bool):
        opid = op
        if not 0 <= opid < NUM_OPCODES:
            raise TraceImportError(
                f"opcode id {opid} out of range [0, {NUM_OPCODES})", path, lineno
            )
    elif isinstance(op, str):
        try:
            opid = frontend.operation_id(op)
        except KeyError:
            raise TraceImportError(
                f"unknown opcode {op!r} for isa {frontend.name!r}", path, lineno
            ) from None
    else:
        raise TraceImportError("field 'op' must be a mnemonic or int id", path, lineno)

    srcs = _operand_ids(
        record.get("srcs"), frontend, "srcs", MAX_SRC_SLOTS, path, lineno
    )
    dsts = _operand_ids(
        record.get("dsts"), frontend, "dsts", MAX_DST_SLOTS, path, lineno
    )
    taken = record.get("taken")
    if taken is not None and not isinstance(taken, bool):
        raise TraceImportError("field 'taken' must be a bool or null", path, lineno)
    fault = record.get("fault", False)
    if not isinstance(fault, bool):
        raise TraceImportError("field 'fault' must be a bool", path, lineno)

    builder.append(
        pc,
        opid,
        srcs + (REG_NONE,) * (MAX_SRC_SLOTS - len(srcs)),
        dsts + (REG_NONE,) * (MAX_DST_SLOTS - len(dsts)),
        mem_addr=_int_field(record, "addr", -1, path, lineno),
        taken=-1 if taken is None else int(taken),
        target=_int_field(record, "target", -1, path, lineno),
        fault=fault,
    )


def _jsonl_records(lines: Iterable[str], path: str) -> Iterator[tuple[int, dict]]:
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceImportError(
                f"invalid JSON ({exc.msg}) — truncated file?", path, lineno
            ) from None
        if not isinstance(record, dict):
            raise TraceImportError("each line must be a JSON object", path, lineno)
        yield lineno, record


def _csv_operands(cell: str) -> list:
    cell = (cell or "").strip()
    if not cell:
        return []
    out: list = []
    for token in cell.split(";"):
        token = token.strip()
        try:
            out.append(int(token, 0))
        except ValueError:
            out.append(token)
    return out


def _csv_records(lines: Iterable[str], path: str) -> Iterator[tuple[int, dict]]:
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        return
    header = [cell.strip().lower() for cell in header]
    missing = [f for f in ("pc", "op") if f not in header]
    if missing:
        raise TraceImportError(
            f"CSV header missing required column(s) {missing}", path, 1
        )
    unknown = [cell for cell in header if cell not in _CSV_FIELDS]
    if unknown:
        raise TraceImportError(f"CSV header has unknown column(s) {unknown}", path, 1)
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise TraceImportError(
                f"expected {len(header)} columns, got {len(row)} — truncated file?",
                path,
                lineno,
            )
        record: dict = {}
        for key, cell in zip(header, row):
            cell = cell.strip()
            if key in ("srcs", "dsts"):
                record[key] = _csv_operands(cell)
            elif key == "op":
                try:
                    record[key] = int(cell, 0)
                except ValueError:
                    record[key] = cell
            elif key == "taken":
                record[key] = None if cell == "" else cell.lower() in ("1", "true")
            elif key == "fault":
                record[key] = cell.lower() in ("1", "true")
            elif cell == "":
                continue
            else:
                try:
                    record[key] = int(cell, 0)
                except ValueError:
                    raise TraceImportError(
                        f"column {key!r} must be an int, got {cell!r}", path, lineno
                    ) from None
        yield lineno, record


def _base_format(path: str) -> str:
    base = path[:-3] if path.endswith(".gz") else path
    ext = os.path.splitext(base)[1].lower()
    if ext in (".jsonl", ".ndjson", ".json"):
        return "jsonl"
    if ext == ".csv":
        return "csv"
    raise TraceImportError(
        f"cannot infer format from extension {ext!r} (use .jsonl/.csv[.gz])", path
    )


def parse_trace(
    path: str,
    isa: str = "mini-asm",
    name: str | None = None,
    fmt: str | None = None,
    streaming: bool = True,
) -> Trace:
    """Parse an external trace file into a canonical :class:`Trace`.

    ``streaming=False`` reads the whole file into memory before parsing
    (measured against streaming by ``benchmarks/bench_frontend.py``);
    both modes produce identical traces.
    """
    from repro.frontends import get_frontend

    frontend = get_frontend(isa)
    if not frontend.has_vocabulary:
        raise TraceImportError(
            f"isa {isa!r} has no instruction vocabulary to map against "
            "(use a concrete ISA frontend such as 'mini-asm' or 'rv')",
            path,
        )
    fmt = fmt or _base_format(path)
    builder = TraceBuilder(name or _default_name(path))
    try:
        with _open_text(path) as handle:
            lines: Iterable[str] = handle if streaming else handle.read().splitlines()
            records = (
                _jsonl_records(lines, path)
                if fmt == "jsonl"
                else _csv_records(lines, path)
            )
            for lineno, record in records:
                _append_record(builder, record, frontend, path, lineno)
    except FileNotFoundError:
        raise TraceImportError("no such file", path) from None
    except (OSError, EOFError, zlib.error) as exc:
        # gzip.BadGzipFile is an OSError; mid-stream truncation is
        # EOFError; a corrupt deflate payload surfaces as zlib.error
        raise TraceImportError(
            f"unreadable input ({exc}) — corrupt gzip?", path, len(builder) + 1
        ) from None
    except UnicodeDecodeError:
        raise TraceImportError(
            "not valid UTF-8 text — corrupt or binary input?", path
        ) from None
    if len(builder) == 0:
        raise TraceImportError("trace contains no instructions", path)
    return builder.finalize()


def _default_name(path: str) -> str:
    base = os.path.basename(path)
    if base.endswith(".gz"):
        base = base[:-3]
    return os.path.splitext(base)[0]


# ---------------------------------------------------------------------------
# publishing (the import cache)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ImportResult:
    """Outcome of one :func:`import_trace` call."""

    name: str
    path: str  # published artifact directory
    rows: int
    digest: str  # sha256 of the source file bytes
    isa: str
    cache_hit: bool


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                h.update(chunk)
    except FileNotFoundError:
        raise TraceImportError("no such file", path) from None
    return h.hexdigest()


def _manifest_path(artifact_dir: str) -> str:
    return os.path.join(artifact_dir, "manifest.json")


def import_trace(
    path: str,
    name: str | None = None,
    isa: str = "mini-asm",
    cache_dir: str | None = None,
    fmt: str | None = None,
    streaming: bool = True,
) -> ImportResult:
    """Validate, parse and publish an external trace under the cache.

    The source is parsed *fully* before any artifact is created, so a
    malformed file never leaves a partial import behind.  Re-importing a
    byte-identical source under the same name and isa is a no-op cache
    hit.  Unknown ``isa`` names raise
    :class:`~repro.core.errors.UnknownExperimentError` with suggestions.
    """
    name = name or _default_name(path)
    root = imported_trace_dir(cache_dir)
    artifact_dir = os.path.join(root, name)
    digest = _file_digest(path)

    manifest = _read_manifest(artifact_dir)
    if (
        manifest is not None
        and manifest.get("source_digest") == digest
        and manifest.get("isa") == isa
        and manifest.get("schema_version") == SCHEMA_VERSION
    ):
        return ImportResult(
            name, artifact_dir, int(manifest["rows"]), digest, isa, cache_hit=True
        )

    trace = parse_trace(path, isa=isa, name=name, fmt=fmt, streaming=streaming)

    os.makedirs(artifact_dir, exist_ok=True)
    _atomic_write(
        os.path.join(artifact_dir, "trace.npz"),
        lambda fh: np.savez_compressed(
            fh,
            pc=trace.pc,
            opid=trace.opid,
            src_slots=trace.src_slots,
            dst_slots=trace.dst_slots,
            mem_addr=trace.mem_addr,
            branch_taken=trace.branch_taken,
            branch_target=trace.branch_target,
            fault=trace.fault,
        ),
        binary=True,
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "isa": isa,
        "rows": len(trace),
        "source": os.path.abspath(path),
        "source_digest": digest,
    }
    # manifest last: its presence is what marks the artifact published
    _atomic_write(
        _manifest_path(artifact_dir),
        lambda fh: fh.write(json.dumps(payload, indent=2, sort_keys=True)),
    )
    return ImportResult(name, artifact_dir, len(trace), digest, isa, cache_hit=False)


def _atomic_write(path: str, writer, binary: bool = False) -> None:
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path), prefix=os.path.basename(path) + ".tmp"
    )
    try:
        with os.fdopen(fd, "wb" if binary else "w") as handle:
            writer(handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_manifest(artifact_dir: str) -> dict | None:
    try:
        with open(_manifest_path(artifact_dir), "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def list_imported(cache_dir: str | None = None) -> tuple[str, ...]:
    """Names of every published imported trace, sorted."""
    root = imported_trace_dir(cache_dir)
    if not os.path.isdir(root):
        return ()
    names = [
        entry
        for entry in os.listdir(root)
        if _read_manifest(os.path.join(root, entry)) is not None
    ]
    return tuple(sorted(names))


def load_imported(name: str, cache_dir: str | None = None) -> Trace:
    """Load a published imported trace by name."""
    root = imported_trace_dir(cache_dir)
    manifest = _read_manifest(os.path.join(root, name))
    if manifest is None:
        raise UnknownExperimentError(
            name, list_imported(cache_dir), kind="imported trace"
        )
    with np.load(os.path.join(root, name, "trace.npz")) as data:
        return Trace(
            name=name,
            pc=data["pc"],
            opid=data["opid"],
            src_slots=data["src_slots"],
            dst_slots=data["dst_slots"],
            mem_addr=data["mem_addr"],
            branch_taken=data["branch_taken"],
            branch_target=data["branch_target"],
            fault=data["fault"],
        )


# ---------------------------------------------------------------------------
# the frontend over published imports
# ---------------------------------------------------------------------------
from repro.frontends.base import Frontend  # noqa: E402  (after helpers on purpose)


class ImportedFrontend(Frontend):
    """Trace source backed by the published import cache.

    Benchmark names are the published import names; ``trace`` loads the
    stored arrays and truncates to the instruction cap.  Imports carry
    no instruction vocabulary of their own (their opcodes were already
    mapped at import time), so ``has_vocabulary`` is False and the
    importer refuses ``--isa imported``.
    """

    name = "imported"
    description = "externally produced traces ingested by `repro trace import`"
    has_vocabulary = False

    def benchmarks(self) -> tuple[str, ...]:
        return list_imported()

    def trace(
        self, benchmark: str, max_instructions: int, seed: int | None = None,
        memo: bool = True,
    ) -> Trace:
        trace = load_imported(benchmark)  # read from disk: there is no memo
        if max_instructions < len(trace):
            return trace.head(max_instructions)
        return trace


# ---------------------------------------------------------------------------
# export (round-trips + example generation)
# ---------------------------------------------------------------------------
def export_trace(trace: Trace, path: str, fmt: str | None = None) -> int:
    """Write ``trace`` to ``path`` in the import schema; returns rows.

    Opcodes are written as canonical mnemonics and registers as
    canonical ids, so the output re-imports under any vocabulary
    frontend (the mini-ASM vocabulary *is* the canonical one).
    """
    fmt = fmt or _base_format(path)
    opener = (
        (lambda: io.TextIOWrapper(gzip.open(path, "wb"), encoding="utf-8"))
        if path.endswith(".gz")
        else (lambda: open(path, "w", encoding="utf-8"))
    )
    taken_map = {-1: None, 0: False, 1: True}
    with opener() as handle:
        if fmt == "csv":
            writer = csv.writer(handle)
            writer.writerow(_CSV_FIELDS)
        for i in range(len(trace)):
            srcs = [int(r) for r in trace.src_slots[i] if r != REG_NONE]
            dsts = [int(r) for r in trace.dst_slots[i] if r != REG_NONE]
            record = {
                "pc": int(trace.pc[i]),
                "op": OPCODE_BY_ID[int(trace.opid[i])].mnemonic,
                "srcs": srcs,
                "dsts": dsts,
                "addr": int(trace.mem_addr[i]),
                "taken": taken_map[int(trace.branch_taken[i])],
                "target": int(trace.branch_target[i]),
                "fault": bool(trace.fault[i]),
            }
            if fmt == "jsonl":
                handle.write(json.dumps(record) + "\n")
            else:
                writer.writerow(
                    [
                        record["pc"],
                        record["op"],
                        ";".join(str(r) for r in srcs),
                        ";".join(str(r) for r in dsts),
                        record["addr"],
                        "" if record["taken"] is None else str(record["taken"]).lower(),
                        record["target"],
                        str(record["fault"]).lower(),
                    ]
                )
    return len(trace)
