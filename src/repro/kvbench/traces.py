"""Trace-driven workloads: a versioned, line-oriented op-log format.

Every figure so far drives the devices with static synthetic
distributions (:class:`~repro.kvbench.workload.WorkloadSpec`).  A
*trace* decouples the workload from its generator: Twitter/Meta-style
key-value op logs — one operation per line with an arrival timestamp —
can be replayed against any store adapter, and any existing spec can be
*exported* as a trace, so synthetic and recorded workloads flow through
one replay path.

Format (``KVT`` version 1)::

    #kvtrace v1
    # free-form comments anywhere after the header
    <timestamp_us> <op> <key> <size> [<ttl_us>]

* ``timestamp_us`` — arrival time in microseconds, non-decreasing down
  the file (closed-loop replay ignores it);
* ``op`` — one of ``insert update read delete scan``;
* ``key`` — the key bytes, percent-escaped so arbitrary bytes survive a
  text file (ASCII ``0x21–0x7e`` except ``%`` is literal);
* ``size`` — value bytes for writes, ``0`` for reads/deletes, and the
  scan limit for ``scan`` records;
* ``ttl_us`` — optional time-to-live; ``0``/absent means none.  TTLs are
  advisory on replay (the expiry generator materializes the deletes).

The parser is strict: a truncated line, an unknown op code, a version
mismatch, or an out-of-order timestamp raises
:class:`~repro.errors.WorkloadError` naming the offending line — a trace
that parses is a trace that replays deterministically.
"""

from __future__ import annotations

import heapq
import math
import re
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter, le, methodcaller
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import WorkloadError
from repro.kvbench.workload import (
    Operation,
    OpType,
    WorkloadSpec,
    generate_operations,
)
from repro.kvftl.population import KeyScheme

#: Header line opening every trace file.
TRACE_MAGIC = "#kvtrace"
#: The format version this module reads and writes.
TRACE_VERSION = 1
#: Recognized record op codes (superset of OpType: scans have no
#: first-class OpType; the replay driver expands them).
OP_CODES = ("insert", "update", "read", "delete", "scan")
#: Parsed op field -> the one :data:`OP_CODES` string every record shares.
_OP_CODE = {op: op for op in OP_CODES}
#: The four codes that are an OpType, looked up per replayed record.
_OP_TYPES = {op.value: op for op in OpType}

#: Synthetic inter-arrival gap of an exported spec and of the generated
#: churn and scan-mix streams (10k ops/s).
INTERARRIVAL_US = 100.0
#: Lines (or operations) the codec takes at a time: bounds its transient
#: lists while a chunk's columns convert in C.
_CHUNK = 1024


class _TraceFields(NamedTuple):
    timestamp_us: float
    #: Op code from :data:`OP_CODES` (a plain string, not OpType, so the
    #: record can express scans).
    op: str
    key: bytes
    #: Value bytes for writes, 0 for reads/deletes, scan limit for scans.
    size: int
    #: Time-to-live; 0.0 = none.
    ttl_us: float = 0.0


class TraceRecord(_TraceFields):
    """One parsed trace line (a tuple, as :class:`Operation` is: one is
    built per record).

    Every way of building one by hand validates it; the parser builds a
    chunk of records with ``tuple.__new__`` once it has proven each check.
    """

    __slots__ = ()

    def __new__(
        cls, timestamp_us: float, op: str, key: bytes, size: int,
        ttl_us: float = 0.0,
    ) -> "TraceRecord":
        # A NaN fails every comparison: one chained test refuses what
        # the parser would (negative, NaN, infinite).
        if not 0.0 <= timestamp_us < math.inf:
            raise WorkloadError(
                f"trace timestamp must be >= 0, got {timestamp_us}"
                if timestamp_us < 0.0 else
                f"trace timestamp must be finite, got {timestamp_us}"
            )
        if op not in OP_CODES:
            raise WorkloadError(
                f"unknown trace op {op!r}; choose from {OP_CODES}"
            )
        if not key:
            raise WorkloadError("trace key must be non-empty")
        if size < 0:
            raise WorkloadError(f"trace size must be >= 0, got {size}")
        if op == "scan" and size < 1:
            raise WorkloadError(f"scan limit must be >= 1, got {size}")
        if not 0.0 <= ttl_us < math.inf:
            raise WorkloadError(
                f"ttl must be >= 0, got {ttl_us}" if ttl_us < 0.0
                else f"ttl must be finite, got {ttl_us}"
            )
        return tuple.__new__(cls, (timestamp_us, op, key, size, ttl_us))

    @classmethod
    def _make(cls, iterable: Iterable) -> "TraceRecord":
        # ``_replace`` builds through here too: validated like the rest.
        return cls(*iterable)


# ---------------------------------------------------------------------------
# Key escaping: arbitrary bytes <-> one whitespace-free ASCII token
# ---------------------------------------------------------------------------


#: Bytes that stand for themselves in a key token: printable, not '%'.
_LITERAL = bytes(b for b in range(0x21, 0x7F) if b != 0x25)
#: Byte value -> its token text.
_ESCAPED = [chr(b) if b in _LITERAL else f"%{b:02X}" for b in range(256)]


def escape_key(key: bytes) -> str:
    """Percent-escape ``key`` into a single whitespace-free token."""
    if not key.translate(None, _LITERAL):  # nothing left: all literal
        return key.decode()
    return "".join(map(_ESCAPED.__getitem__, key))


def unescape_key(token: str) -> bytes:
    """Inverse of :func:`escape_key`; raises WorkloadError on bad input."""
    if token.isascii():
        key = token.encode()
        if not key.translate(None, _LITERAL):
            return key
    out = bytearray()
    i = 0
    while i < len(token):
        ch = token[i]
        if ch == "%":
            hex_part = token[i + 1:i + 3]
            if len(hex_part) != 2:
                raise WorkloadError(f"truncated key escape in {token!r}")
            try:
                out.append(int(hex_part, 16))
            except ValueError:
                raise WorkloadError(f"bad key escape %{hex_part} in {token!r}")
            i += 3
        else:
            code = ord(ch)
            if not 0x21 <= code <= 0x7E:
                raise WorkloadError(
                    f"unescaped byte {code:#04x} in key token {token!r}"
                )
            out.append(code)
            i += 1
    return bytes(out)


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _tokens(keys: Sequence[bytes]) -> Iterator[str]:
    """Each key's token: the key itself when every byte of the chunk is
    literal (one ``translate`` proves it), else :func:`escape_key`'s."""
    if b"".join(keys).translate(None, _LITERAL):
        return map(escape_key, keys)
    return map(bytes.decode, keys)


def _lines(
    stamps: Iterable[float], ops: Iterable[str], tokens: Iterable[str],
    sizes: Iterable[int], ttls: Sequence[float] = (),
) -> str:
    """The lines of a chunk of records, each ending in a newline: the
    one formatter of every writer.  ``repr`` floats round-trip exactly;
    a record's TTL is written when it is > 0."""
    lines = map(" ".join, zip(map(repr, stamps), ops, tokens, map(str, sizes)))
    if any(map((0.0).__lt__, ttls)):
        lines = map(_with_ttl, lines, ttls)
    return "\n".join(lines) + "\n"


def _with_ttl(line: str, ttl: float) -> str:
    return f"{line} {ttl!r}" if ttl > 0.0 else line


def format_record(record: TraceRecord) -> str:
    """One trace line (no newline)."""
    timestamp, op, key, size, ttl = record
    return _lines((timestamp,), (op,), (escape_key(key),), (size,), (ttl,))[:-1]


def write_trace(path: str, records: Iterable[TraceRecord]) -> int:
    """Write ``records`` to ``path``.

    Returns the record count.  Timestamps must be non-decreasing — the
    writer enforces the same invariant the parser does, so anything
    written here is guaranteed to parse back.
    """
    records = iter(records)
    count = 0
    previous = 0.0
    with open(path, "w", encoding="ascii") as handle:
        write = handle.write
        write(f"{TRACE_MAGIC} v{TRACE_VERSION}\n")
        for chunk in iter(lambda: list(islice(records, _CHUNK)), []):
            stamps, ops, keys, sizes, ttls = zip(*chunk)
            if not (previous <= stamps[0]
                    and all(map(le, stamps, islice(stamps, 1, None)))):
                for position, stamp in enumerate(stamps, count + 1):
                    if stamp < previous:
                        raise WorkloadError(
                            f"record {position}: timestamp {stamp} "
                            f"goes backwards (previous {previous})"
                        )
                    previous = stamp
            previous = stamps[-1]
            write(_lines(stamps, ops, _tokens(keys), sizes, ttls))
            count += len(chunk)
    return count


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _fail(source: str, lineno: int, message: str) -> WorkloadError:
    return WorkloadError(f"{source}:{lineno}: {message}")


def _parse_header(line: str, source: str) -> None:
    parts = line.strip().split()
    if len(parts) != 2 or parts[0] != TRACE_MAGIC:
        raise _fail(source, 1, f"not a kvtrace file (expected "
                               f"'{TRACE_MAGIC} v{TRACE_VERSION}' header)")
    version = parts[1]
    if not version.startswith("v") or not version[1:].isdigit():
        raise _fail(source, 1, f"malformed trace version {version!r}")
    if int(version[1:]) != TRACE_VERSION:
        raise _fail(
            source, 1,
            f"trace version mismatch: file is {version}, "
            f"this reader supports v{TRACE_VERSION}",
        )


#: Every character ``repr(float)`` emits for a finite value.  ``float()``
#: alone also takes ``1_0.0``, ``1E3`` and other scripts' digits.
_FLOAT_CHARS = "0123456789.e+-"


def _parse_float(text: str, what: str, source: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _fail(source, lineno, f"bad {what} {text!r}")
    if not math.isfinite(value):
        raise _fail(source, lineno, f"non-finite {what} {text!r}")
    if text.strip(_FLOAT_CHARS):
        raise _fail(source, lineno, f"bad {what} {text!r}")
    return value


def parse_trace(
    lines: Iterable[str], source: str = "<trace>"
) -> List[TraceRecord]:
    """Parse trace lines strictly; every error names ``source:lineno``.

    The first line must be the version header.  Later ``#`` lines are
    comments.  Records must carry 4 or 5 fields with non-decreasing
    timestamps; anything else raises :class:`WorkloadError` — a corrupt
    trace is never silently skipped over.

    Lines are taken :data:`_CHUNK` at a time.  A chunk of canonical
    lines converts column by column in C (:func:`_parse_canonical`);
    any other chunk goes line by line through :func:`_parse_lines`,
    which accepts the same records and words every error.
    """
    lines = iter(lines)
    header = next(lines, None)
    if header is None:
        raise _fail(source, 1, "empty trace (missing header)")
    _parse_header(header, source)
    records: List[TraceRecord] = []
    previous = 0.0
    lineno = 2
    for chunk in iter(lambda: list(islice(lines, _CHUNK)), []):
        last = _parse_canonical(chunk, previous, records)
        if last is None:
            last = _parse_lines(chunk, lineno, previous, source, records)
        previous = last
        lineno += len(chunk)
    return records


#: A chunk of canonical lines: four fields split by single spaces — a
#: timestamp of :data:`_FLOAT_CHARS`, a point op (a scan's limit has its
#: own range check), a key of :data:`_LITERAL` bytes, a size of ASCII
#: digits — each ending in a newline: no comment, blank line or TTL.
_CANONICAL = re.compile(
    r"(?:[0-9.e+-]+ (?:insert|update|read|delete) [!-$&-~]+ [0-9]+\n)*"
)
#: A line's last character ("" for an empty line).
_LAST = itemgetter(slice(-1, None))


def _parse_canonical(
    lines: List[str], previous: float, records: List[TraceRecord]
) -> Optional[float]:
    """Append the records of ``lines`` and return the last timestamp, if
    each string is one :data:`_CANONICAL` line and the timestamps are
    finite and not below ``previous`` or the one before.  Else append
    nothing and return None.  That is every check :func:`_parse_lines`
    makes of such a line, so both accept the same records.
    """
    count = len(lines)
    text = "".join(lines)
    newlines = text.count("\n")
    # The pattern's lines are the strings if each string ends in a
    # newline and holds no other, or if none holds one (a list of lines
    # without their ends).
    if newlines == 0:
        text = "\n".join(lines) + "\n"
    elif newlines != count or "".join(map(_LAST, lines)) != "\n" * count:
        return None
    if not _CANONICAL.fullmatch(text):
        return None
    fields = text.split()
    try:
        times = list(map(float, fields[0::4]))
    except ValueError:
        return None
    # Non-decreasing from ``previous`` and finite at the end is finite
    # throughout; no NaN is spelled in ``_FLOAT_CHARS``.
    if not (previous <= times[0] and times[-1] < math.inf
            and all(map(le, times, islice(times, 1, None)))):
        return None
    # One int object per distinct size, shared by its records.
    size_texts = fields[3::4]
    sizes = {size: int(size) for size in set(size_texts)}
    columns = zip(
        times, map(_OP_CODE.__getitem__, fields[1::4]),
        map(str.encode, fields[2::4]), map(sizes.__getitem__, size_texts),
        repeat(0.0),
    )
    records.extend(map(tuple.__new__, repeat(TraceRecord), columns))
    return times[-1]


def _parse_lines(
    lines: Iterable[str], lineno: int, previous: float, source: str,
    records: List[TraceRecord],
) -> float:
    """Append the records of ``lines`` (the first is line ``lineno``),
    checking each field of each line; returns the last timestamp."""
    append = records.append
    new_record = tuple.__new__
    for lineno, raw in enumerate(lines, start=lineno):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        count = len(fields)
        if count < 4:
            raise _fail(
                source, lineno,
                f"truncated record: {count} of 4+ fields "
                f"(timestamp op key size [ttl])",
            )
        if count > 5:
            raise _fail(source, lineno, f"too many fields ({count}; max 5)")
        timestamp = _parse_float(fields[0], "timestamp", source, lineno)
        if timestamp < previous:
            raise _fail(
                source, lineno,
                f"out-of-order timestamp {timestamp} "
                f"(previous record at {previous})",
            )
        if fields[1] not in _OP_CODE:
            raise _fail(
                source, lineno,
                f"unknown op code {fields[1]!r}; choose from {OP_CODES}",
            )
        op = _OP_CODE[fields[1]]
        try:
            key = unescape_key(fields[2])
        except WorkloadError as exc:
            raise _fail(source, lineno, str(exc))
        text = fields[3]
        digits = text[1:] if text[0] == "-" else text
        if not (digits.isascii() and digits.isdigit()):
            raise _fail(source, lineno, f"bad size {text!r}")
        size = int(text)
        ttl = 0.0
        if count == 5:
            ttl = _parse_float(fields[4], "ttl", source, lineno)
        if (size < 1 and (size < 0 or op == "scan")) or ttl < 0.0:
            # Out of range: the record's own validation words the error.
            try:
                TraceRecord(timestamp, op, key, size, ttl)
            except WorkloadError as exc:
                raise _fail(source, lineno, str(exc))
        # Every check of ``TraceRecord.__new__`` is proven above.
        append(new_record(TraceRecord, (timestamp, op, key, size, ttl)))
        previous = timestamp
    return previous


def read_trace(path: str) -> List[TraceRecord]:
    """Parse the trace file at ``path``."""
    # A non-ASCII byte reaches the parser as a lone surrogate, which no
    # field accepts: it is reported with its line, not raised mid-decode.
    with open(path, encoding="ascii", errors="surrogateescape") as handle:
        return parse_trace(handle, source=str(path))


# ---------------------------------------------------------------------------
# Exporting specs as traces
# ---------------------------------------------------------------------------


def spec_to_records(spec: WorkloadSpec) -> Iterator[TraceRecord]:
    """The spec's exact operation stream as trace records.

    Timestamps are a synthetic constant-rate clock from 0, one record
    every :data:`INTERARRIVAL_US` (specs carry no arrival process); the
    *operations* are byte-identical to :func:`generate_operations`, so
    replaying the export reproduces the spec's run result exactly.
    """
    return _as_records(generate_operations(spec), 0)


def _as_records(
    operations: Iterable[Operation], first: int
) -> Iterator[TraceRecord]:
    """``operations`` as the records of positions ``first`` on."""
    for position, op in enumerate(operations, first):
        yield TraceRecord(
            timestamp_us=position * INTERARRIVAL_US,
            op=op.op.value,
            key=op.key,
            size=op.value_bytes,
        )


#: An OpType's record op code, read in C (``.value`` is a Python-level
#: property and hashing a member a Python-level ``__hash__``).
_CODE_OF = attrgetter("_value_")


def export_spec(spec: WorkloadSpec, path: str) -> int:
    """Write ``spec``'s operation stream to ``path``; returns the count.

    The bytes of ``write_trace(path, spec_to_records(spec))``, formatted
    a chunk of operations at a time straight through :func:`_lines`,
    with no record built.  The writer's guarantees hold per chunk:
    timestamps rise with the position by construction; each op is an
    OpType, each key non-empty and each size >= 0, else the chunk goes
    through the records, whose validation words the error.
    """
    operations = generate_operations(spec)
    count = 0
    with open(path, "w", encoding="ascii") as handle:
        write = handle.write
        write(f"{TRACE_MAGIC} v{TRACE_VERSION}\n")
        for chunk in iter(lambda: list(islice(operations, _CHUNK)), []):
            kinds, keys, _indices, sizes, _scans, _rmws = zip(*chunk)
            if (all(map(isinstance, kinds, repeat(OpType)))
                    and all(keys) and min(sizes) >= 0):
                codes = map(_CODE_OF, kinds)
            else:  # off the generator's contract: the records check it
                _stamps, codes, keys, sizes, _ttls = zip(*_as_records(chunk, count))
            stamps = map(INTERARRIVAL_US.__rmul__, range(count, count + len(chunk)))
            write(_lines(stamps, codes, _tokens(keys), sizes))
            count += len(chunk)
    return count


def merge_traces(*streams: Iterable[TraceRecord]) -> List[TraceRecord]:
    """Merge record streams into one timestamp-ordered trace.

    Each input stream must already be timestamp-ordered (every generator
    in this package is).  Ties break by stream position, then by arrival
    order within a stream — never by hash or id order, so merges are
    deterministic across interpreters.
    """
    def _keyed(
        index: int, stream: Iterable[TraceRecord]
    ) -> Iterator[Tuple[Tuple[float, int, int], TraceRecord]]:
        for seq, record in enumerate(stream):
            yield (record.timestamp_us, index, seq), record

    iterators = [_keyed(index, stream) for index, stream in enumerate(streams)]
    return [record for _key, record in heapq.merge(*iterators)]


# ---------------------------------------------------------------------------
# Replay adapter
# ---------------------------------------------------------------------------


class TraceWorkload:
    """Adapter from parsed records to runner-compatible operation streams.

    * :meth:`operations` (and plain iteration) yields
      :class:`~repro.kvbench.workload.Operation` items —
      ``generate_operations``-compatible, so the closed-loop runner, the
      sweep cells, and the cluster router consume traces unchanged.
      ``scan`` records come out as reads with a positive
      ``scan_length``; drive those through
      :class:`~repro.kvbench.ycsb.YCSBDriver`.

    ``key_scheme`` recovers each key's index when the trace was produced
    by a scheme (exported specs round-trip exactly); foreign keys get
    deterministic first-seen indices, which keeps block-device offsets
    and replays stable.
    """

    def __init__(
        self,
        records: Sequence[TraceRecord],
        key_scheme: Optional[KeyScheme] = None,
    ) -> None:
        if not records:
            raise WorkloadError("a trace workload needs at least one record")
        self.records: Tuple[TraceRecord, ...] = tuple(records)
        self.key_scheme = key_scheme
        self._interned: Dict[bytes, int] = {}

    @property
    def n_ops(self) -> int:
        return len(self.records)

    @property
    def duration_us(self) -> float:
        """Span from the first arrival to the last."""
        return self.records[-1].timestamp_us - self.records[0].timestamp_us

    def _index_for(self, key: bytes) -> int:
        if self.key_scheme is not None:
            index = self.key_scheme.index_of(key)
            if index is not None:
                return index
        interned = self._interned.get(key)
        if interned is None:
            interned = len(self._interned)
            self._interned[key] = interned
        return interned

    def _operation(self, record: TraceRecord) -> Operation:
        index = self._index_for(record.key)
        if record.op == "scan":
            return Operation(
                OpType.READ, record.key, index, 0, scan_length=record.size
            )
        op = _OP_TYPES.get(record.op)
        if op is None:
            raise WorkloadError(f"unknown trace op {record.op!r}")
        return Operation(op, record.key, index, record.size)

    def _indices(self, keys: Sequence[bytes]) -> Iterator[int]:
        """Each key's index: parsed in C when every key of the chunk is
        the scheme's (its length, its prefix, then digits), else
        :meth:`_index_for` each."""
        scheme = self.key_scheme
        if scheme is not None:
            digits = list(map(itemgetter(slice(len(scheme.prefix), None)), keys))
            if (set(map(len, keys)) == {scheme.key_bytes}
                    and all(map(methodcaller("startswith", scheme.prefix), keys))
                    and b"".join(digits).isdigit()):
                return map(int, digits)
        return map(self._index_for, keys)

    def _chunk_operations(
        self, records: Sequence[TraceRecord]
    ) -> Iterator[Operation]:
        """The operations of a chunk of records, built in C when every op
        is an OpType's; a scan or an unknown op goes record by record."""
        _stamps, ops, keys, sizes, _ttls = zip(*records)
        if not _OP_TYPES.keys() >= set(ops):
            return map(self._operation, records)
        fields = zip(map(_OP_TYPES.__getitem__, ops), keys, self._indices(keys),
                     sizes, repeat(0), repeat(False))
        return map(tuple.__new__, repeat(Operation), fields)

    def operations(self) -> Iterator[Operation]:
        """The trace's operation stream, in arrival order."""
        records = self.records
        chunks = (records[start:start + _CHUNK]
                  for start in range(0, len(records), _CHUNK))
        return chain.from_iterable(map(self._chunk_operations, chunks))

    def __iter__(self) -> Iterator[Operation]:
        return self.operations()

    def has_scans(self) -> bool:
        return any(record.op == "scan" for record in self.records)
