"""Trace format, generators, and replay determinism (ISSUE 10).

Three layers of pinning:

* properties — write→parse round-trip is identity for arbitrary
  records, key escaping is lossless, merges stay ordered;
* replay identity — an exported spec replays to a byte-identical
  ``RunResult`` fingerprint, the contract that makes traces and specs
  interchangeable everywhere downstream;
* error paths — every malformed-trace shape raises ``WorkloadError``
  naming ``source:lineno``, so a corrupt trace can never be silently
  replayed as a different workload.

Hash-seed independence of the generators is checked with the
sanitizer's subprocess collector (same machinery as the planted-bug
localization tests).
"""

from __future__ import annotations

import cProfile
import dataclasses
import hashlib
import json
import pickle
import pstats
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiment import build_kv_rig, lab_geometry
from repro.errors import WorkloadError
from repro.kvbench.generators import (
    SCAN_MIX_LENGTH,
    ChurnSpec,
    ExpirySpec,
    ScanMixSpec,
    generate_churn,
    generate_expiry,
    generate_scan_mix,
)
from repro.kvbench.runner import execute_workload
from repro.kvbench.traces import (
    OP_CODES,
    TRACE_MAGIC,
    TRACE_VERSION,
    TraceRecord,
    TraceWorkload,
    escape_key,
    export_spec,
    format_record,
    merge_traces,
    parse_trace,
    read_trace,
    spec_to_records,
    unescape_key,
    write_trace,
)
from repro.kvbench.workload import (
    Operation,
    OpType,
    Pattern,
    WorkloadSpec,
    generate_operations,
)
from repro.kvftl.population import KeyScheme
from repro.lint.sanitizer import collect_in_subprocess, localize

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures"
SAMPLE_TRACE = FIXTURES / "sample_trace.kvt"

HEADER = f"{TRACE_MAGIC} v{TRACE_VERSION}"


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_sizes = st.floats(min_value=0.0, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
_keys = st.binary(min_size=1, max_size=24)


@st.composite
def trace_record_lists(draw, min_size: int = 1, max_size: int = 30):
    """Valid record lists: arbitrary keys, non-decreasing timestamps."""
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    now = 0.0
    records = []
    for _ in range(count):
        now += draw(_sizes)
        op = draw(st.sampled_from(OP_CODES))
        if op == "scan":
            size = draw(st.integers(min_value=1, max_value=4096))
        elif op in ("read", "delete"):
            size = 0
        else:
            size = draw(st.integers(min_value=0, max_value=1 << 20))
        ttl = 0.0
        if op in ("insert", "update"):
            ttl = draw(st.floats(min_value=0.0, max_value=1e7,
                                 allow_nan=False, allow_infinity=False))
        records.append(TraceRecord(now, op, draw(_keys), size, ttl))
    return records


# ---------------------------------------------------------------------------
# Round-trip properties
# ---------------------------------------------------------------------------


def _reference_escape_key(key: bytes) -> str:
    """The per-byte escaper the table-driven one replaced, kept verbatim
    as its reference."""
    out = []
    for byte in key:
        if 0x21 <= byte <= 0x7E and byte != 0x25:  # printable, not '%'
            out.append(chr(byte))
        else:
            out.append(f"%{byte:02X}")
    return "".join(out)


class TestRoundTrip:
    @given(key=st.binary(min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_key_escape_is_lossless_and_token_safe(self, key: bytes):
        token = escape_key(key)
        assert token.isascii()
        assert not any(ch.isspace() for ch in token)
        assert unescape_key(token) == key

    @given(key=st.one_of(
        st.binary(max_size=64),
        st.text(alphabet="fil0123456789-_~!", min_size=1, max_size=64)
        .map(str.encode),
        st.integers(1, 64).map(lambda n: b"%" * n),
        st.integers(1, 64).map(lambda n: b"\xff" * n),
        st.tuples(st.binary(max_size=4), st.sampled_from([b"", b" ", b"%"]),
                  st.binary(max_size=4)).map(b"key".join),
    ))
    @settings(max_examples=300, deadline=None)
    def test_escape_matches_the_per_byte_reference(self, key: bytes):
        token = escape_key(key)
        assert token == _reference_escape_key(key)
        if key:
            assert unescape_key(token) == key

    def test_every_byte_value_escapes_as_the_reference_does(self):
        for byte in range(256):
            key = bytes([byte])
            assert escape_key(key) == _reference_escape_key(key)
            assert escape_key(b"a" + key + b"z") == \
                _reference_escape_key(b"a" + key + b"z")

    @given(records=trace_record_lists())
    @settings(max_examples=60, deadline=None)
    def test_format_parse_identity(self, records):
        lines = [HEADER] + [format_record(r) for r in records]
        assert parse_trace(lines) == records

    def test_file_roundtrip(self, tmp_path):
        records = [
            TraceRecord(0.0, "insert", b"\x00binary\xffkey %", 512, 90.5),
            TraceRecord(0.25, "read", b"plain-key", 0),
            TraceRecord(0.25, "scan", b"pref-000", 16),
            TraceRecord(7.5, "delete", b"\x00binary\xffkey %", 0),
        ]
        path = str(tmp_path / "trace.kvt")
        assert write_trace(path, records) == len(records)
        assert read_trace(path) == records

    def test_comments_and_blank_lines_are_skipped(self):
        lines = [HEADER, "", "# a comment", "1.0 read abc 0",
                 "   # indented comment", "2.0 update abc 64"]
        parsed = parse_trace(lines)
        assert [r.op for r in parsed] == ["read", "update"]


# ---------------------------------------------------------------------------
# Malformed traces: every error names source:lineno
# ---------------------------------------------------------------------------


class TestMalformed:
    def _lines(self, *records: str):
        return [HEADER, *records]

    def test_missing_header(self):
        with pytest.raises(WorkloadError, match=r"<trace>:1: not a kvtrace"):
            parse_trace(["1.0 read abc 0"])

    def test_version_mismatch(self):
        with pytest.raises(WorkloadError,
                           match=r"<trace>:1: trace version mismatch"):
            parse_trace([f"{TRACE_MAGIC} v{TRACE_VERSION + 1}"])

    def test_malformed_version_token(self):
        with pytest.raises(WorkloadError, match=r":1: malformed trace version"):
            parse_trace([f"{TRACE_MAGIC} vX"])

    def test_empty_input(self):
        with pytest.raises(WorkloadError, match=r"<trace>:1: empty trace"):
            parse_trace([])

    def test_truncated_record(self):
        with pytest.raises(WorkloadError, match=r"<trace>:2: truncated record"):
            parse_trace(self._lines("1.0 read abc"))

    def test_too_many_fields(self):
        with pytest.raises(WorkloadError, match=r":3: too many fields"):
            parse_trace(self._lines("1.0 read abc 0",
                                    "2.0 read abc 0 5.0 extra"))

    def test_unknown_op_code(self):
        with pytest.raises(WorkloadError, match=r":2: unknown op code 'frob'"):
            parse_trace(self._lines("1.0 frob abc 0"))

    def test_out_of_order_timestamp(self):
        with pytest.raises(WorkloadError,
                           match=r":3: out-of-order timestamp 1.0"):
            parse_trace(self._lines("5.0 read abc 0", "1.0 read abc 0"))

    def test_bad_timestamp(self):
        with pytest.raises(WorkloadError, match=r":2: bad timestamp 'soon'"):
            parse_trace(self._lines("soon read abc 0"))

    def test_non_finite_timestamp(self):
        with pytest.raises(WorkloadError, match=r":2: non-finite timestamp"):
            parse_trace(self._lines("nan read abc 0"))

    def test_bad_size(self):
        with pytest.raises(WorkloadError, match=r":2: bad size '12q'"):
            parse_trace(self._lines("1.0 read abc 12q"))

    def test_negative_size(self):
        with pytest.raises(WorkloadError, match=r":2: .*size must be >= 0"):
            parse_trace(self._lines("1.0 update abc -4"))

    def test_bad_ttl(self):
        with pytest.raises(WorkloadError, match=r":2: bad ttl 'later'"):
            parse_trace(self._lines("1.0 insert abc 64 later"))

    def test_zero_limit_scan(self):
        with pytest.raises(WorkloadError, match=r":2: scan limit must be >= 1"):
            parse_trace(self._lines("1.0 scan abcd 0"))

    def test_bad_key_escape(self):
        with pytest.raises(WorkloadError, match=r":2: bad key escape %G1"):
            parse_trace(self._lines("1.0 read a%G1b 0"))

    def test_truncated_key_escape(self):
        with pytest.raises(WorkloadError, match=r":2: truncated key escape"):
            parse_trace(self._lines("1.0 read abc%2 0"))

    # Every message below is the text the per-byte, validate-twice
    # parser produced, recorded before the codec was rewritten; the last
    # five are inputs that parser let through as raw exceptions or
    # silently (size '--5' and '²', other scripts' digits, '1_0.0').
    @pytest.mark.parametrize("lines, message", [
        (["1.0 read abc 0"],
         "<trace>:1: not a kvtrace file (expected '#kvtrace v1' header)"),
        (["#kvtrace"],
         "<trace>:1: not a kvtrace file (expected '#kvtrace v1' header)"),
        (["#kvtrace v2"],
         "<trace>:1: trace version mismatch: file is v2, "
         "this reader supports v1"),
        (["#kvtrace vX"], "<trace>:1: malformed trace version 'vX'"),
        ([], "<trace>:1: empty trace (missing header)"),
        ([HEADER, "1.0 read abc"],
         "<trace>:2: truncated record: 3 of 4+ fields "
         "(timestamp op key size [ttl])"),
        ([HEADER, "1.0 read abc 0", "2.0 read abc 0 5.0 extra"],
         "<trace>:3: too many fields (6; max 5)"),
        ([HEADER, "1.0 frob abc 0"],
         "<trace>:2: unknown op code 'frob'; choose from "
         "('insert', 'update', 'read', 'delete', 'scan')"),
        ([HEADER, "5.0 read abc 0", "1.0 read abc 0"],
         "<trace>:3: out-of-order timestamp 1.0 (previous record at 5.0)"),
        ([HEADER, "-1.0 read abc 0"],
         "<trace>:2: out-of-order timestamp -1.0 (previous record at 0.0)"),
        ([HEADER, "soon read abc 0"], "<trace>:2: bad timestamp 'soon'"),
        ([HEADER, "0x10 read abc 0"], "<trace>:2: bad timestamp '0x10'"),
        ([HEADER, "nan read abc 0"], "<trace>:2: non-finite timestamp 'nan'"),
        ([HEADER, "infinity read abc 0"],
         "<trace>:2: non-finite timestamp 'infinity'"),
        ([HEADER, "1.0 read abc 12q"], "<trace>:2: bad size '12q'"),
        ([HEADER, "1.0 read abc +5"], "<trace>:2: bad size '+5'"),
        ([HEADER, "1.0 read abc 1_0"], "<trace>:2: bad size '1_0'"),
        ([HEADER, "1.0 update abc -4"],
         "<trace>:2: trace size must be >= 0, got -4"),
        ([HEADER, "1.0 scan abcd 0"],
         "<trace>:2: scan limit must be >= 1, got 0"),
        ([HEADER, "1.0 insert abc 64 later"], "<trace>:2: bad ttl 'later'"),
        ([HEADER, "1.0 insert abc 64 -inf"], "<trace>:2: non-finite ttl '-inf'"),
        ([HEADER, "1.0 insert abc 64 -2.5"],
         "<trace>:2: ttl must be >= 0, got -2.5"),
        ([HEADER, "1.0 read a%G1b 0"],
         "<trace>:2: bad key escape %G1 in 'a%G1b'"),
        ([HEADER, "1.0 read abc%2 0"],
         "<trace>:2: truncated key escape in 'abc%2'"),
        ([HEADER, "1.0 read % 0"], "<trace>:2: truncated key escape in '%'"),
        ([HEADER, "1.0 read ab\x7fc 0"],
         "<trace>:2: unescaped byte 0x7f in key token 'ab\\x7fc'"),
        ([HEADER, "1.0 read ab\xe9 0"],
         "<trace>:2: unescaped byte 0xe9 in key token 'ab\xe9'"),
        ([HEADER, "1.0 read abc --5"], "<trace>:2: bad size '--5'"),
        ([HEADER, "1.0 read abc \xb2"], "<trace>:2: bad size '\xb2'"),
        ([HEADER, "1.0 read abc \u0665"], "<trace>:2: bad size '\u0665'"),
        ([HEADER, "1_0.0 read abc 0"], "<trace>:2: bad timestamp '1_0.0'"),
        ([HEADER, "1.0 insert abc 64 1_0.0"], "<trace>:2: bad ttl '1_0.0'"),
    ])
    def test_exact_message_for_every_malformed_shape(self, lines, message):
        with pytest.raises(WorkloadError) as caught:
            parse_trace(lines)
        assert str(caught.value) == message

    @pytest.mark.parametrize("token, message", [
        ("abc%2", "truncated key escape in 'abc%2'"),
        ("%%", "truncated key escape in '%%'"),
        ("a%G1b", "bad key escape %G1 in 'a%G1b'"),
        ("%-1", "bad key escape %-1 in '%-1'"),
        ("ab c", "unescaped byte 0x20 in key token 'ab c'"),
        ("ab\x00", "unescaped byte 0x00 in key token 'ab\\x00'"),
    ])
    def test_exact_message_for_every_malformed_token(self, token, message):
        with pytest.raises(WorkloadError) as caught:
            unescape_key(token)
        assert str(caught.value) == message

    def test_lenient_spellings_the_old_parser_took_still_parse(self):
        """The fast paths changed no accepted input either."""
        parsed = parse_trace([HEADER, "+1.0 read %e9%+1 -0", " 1e3 read abc 7 "])
        assert parsed == [TraceRecord(1.0, "read", b"\xe9\x01", 0),
                          TraceRecord(1000.0, "read", b"abc", 7)]

    def test_non_ascii_byte_in_a_file_names_its_line(self, tmp_path):
        """Not a ``UnicodeDecodeError`` from somewhere inside a decode
        buffer: the byte reaches the parser and fails its field's check."""
        path = tmp_path / "b.kvt"
        path.write_bytes(HEADER.encode() + b"\n# caf\xc3\xa9\n"
                         b"1.0 read abc 0\n2.0 read ab\xe9 0\n")
        with pytest.raises(WorkloadError, match=r"b\.kvt:4: unescaped byte"):
            read_trace(str(path))

    def test_errors_name_the_file(self, tmp_path):
        path = tmp_path / "broken.kvt"
        path.write_text(f"{HEADER}\n1.0 read abc 0\n0.5 read abc 0\n")
        with pytest.raises(WorkloadError, match=r"broken\.kvt:3: out-of-order"):
            read_trace(str(path))

    def test_writer_rejects_backwards_timestamps(self, tmp_path):
        records = [TraceRecord(5.0, "read", b"a", 0),
                   TraceRecord(1.0, "read", b"a", 0)]
        with pytest.raises(WorkloadError, match="goes backwards"):
            write_trace(str(tmp_path / "bad.kvt"), records)

    def test_record_validation(self):
        with pytest.raises(WorkloadError, match="timestamp must be >= 0"):
            TraceRecord(-1.0, "read", b"a", 0)
        with pytest.raises(WorkloadError, match="unknown trace op"):
            TraceRecord(0.0, "append", b"a", 0)
        with pytest.raises(WorkloadError, match="key must be non-empty"):
            TraceRecord(0.0, "read", b"", 0)
        with pytest.raises(WorkloadError, match="ttl must be >= 0"):
            TraceRecord(0.0, "read", b"a", 0, ttl_us=-2.0)

    def test_parsed_records_are_slotted_share_their_op_and_pickle(self):
        """A parsed record has no ``__dict__``, its op is the one
        ``OP_CODES`` string, and a frozen slotted record survives a
        pickle round trip (sweep workers receive records that way)."""
        parsed = parse_trace([HEADER, "1.0 update abc 4096 7.5",
                              "2.0 update abd 4096", "3.0 scan ab 3"])
        assert not hasattr(parsed[0], "__dict__")
        assert parsed[0].op is parsed[1].op is OP_CODES[1]
        for record in parsed:
            copy = pickle.loads(pickle.dumps(record))
            assert copy == record and type(copy) is TraceRecord
        with pytest.raises(dataclasses.FrozenInstanceError):
            parsed[0].size = 1


# ---------------------------------------------------------------------------
# Spec export and replay identity
# ---------------------------------------------------------------------------


def _run_fingerprint(run) -> str:
    """Serialize everything observable about a run for exact comparison."""
    return json.dumps({
        "completed": run.completed_ops,
        "failed": run.failed_ops,
        "latency": run.latency.summary().as_dict(),
        "reads": run.latency.count("read"),
        "updates": run.latency.count("update"),
        "stats": dataclasses.asdict(run.device_stats),
        "elapsed": run.elapsed_us,
    }, sort_keys=True)


_KV_MIXED_SCHEME = KeyScheme(prefix=b"fill", digits=12)


def _kv_mixed_spec(n_ops: int) -> WorkloadSpec:
    """``bench/workloads/kv.py``'s ``kv_mixed`` input: 16 B keys over the
    ~822 k pairs its prefill leaves, 50/50 read/update of 4 KiB values."""
    return WorkloadSpec(
        n_ops=n_ops, op="mixed", pattern=Pattern.UNIFORM, population=821_990,
        key_scheme=_KV_MIXED_SCHEME, value_bytes=4096, read_fraction=0.5,
        seed=3,
    )


class TestSpecExport:
    def test_exported_operations_match_generate_operations(self, tmp_path):
        scheme = KeyScheme(prefix=b"expt", digits=12)
        spec = WorkloadSpec(
            n_ops=200, op="mixed", pattern=Pattern.ZIPFIAN, population=300,
            key_scheme=scheme, value_bytes=512, seed=5,
        )
        path = str(tmp_path / "spec.kvt")
        assert export_spec(spec, path) == 200
        workload = TraceWorkload(read_trace(path), key_scheme=scheme)
        assert list(workload.operations()) == list(generate_operations(spec))

    def test_benchmark_shaped_export_is_the_recorded_bytes(self, tmp_path):
        """The ``kv_mixed`` benchmark's spec (seed 3): the exported file's
        sha256 was recorded before the codec was rewritten, the file
        survives write -> read -> write unchanged, and replaying it is
        ``generate_operations``."""
        spec = _kv_mixed_spec(30_000)
        path, again = tmp_path / "ops.kvtrace", tmp_path / "again.kvtrace"
        assert export_spec(spec, str(path)) == 30_000
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "8601df9c83cdb3110153a0cc0cea2eda7b49f35ec2ad1402dc10421bf7352df3"
        )
        records = read_trace(str(path))
        write_trace(str(again), records)
        assert again.read_bytes() == path.read_bytes()
        assert list(TraceWorkload(records, _KV_MIXED_SCHEME)) == \
            list(generate_operations(spec))

    def test_codec_calls_per_record_stay_under_the_ceiling(self, tmp_path):
        """Work, not wall time: export + parse of 2,000 benchmark-shaped
        records under cProfile (C builtins count).  118 calls a record
        with the per-byte codec, 34 with the table-driven one."""
        spec = _kv_mixed_spec(2_000)
        path = str(tmp_path / "ops.kvtrace")
        profile = cProfile.Profile()
        profile.enable()
        export_spec(spec, path)
        records = read_trace(path)
        profile.disable()
        assert len(records) == 2_000
        assert pstats.Stats(profile).total_calls / 2_000 <= 45

    def test_export_timestamps_are_a_constant_rate_clock(self):
        spec = WorkloadSpec(n_ops=5, op="read", population=10)
        records = list(spec_to_records(spec))
        assert [r.timestamp_us for r in records] == [0.0, 100.0, 200.0,
                                                     300.0, 400.0]

    def test_exported_spec_replay_fingerprint_is_byte_identical(
        self, tmp_path
    ):
        """The replay contract: export → parse → replay reproduces the
        direct run exactly, down to every latency sample and stat."""
        scheme = KeyScheme(prefix=b"expt", digits=12)
        spec = WorkloadSpec(
            n_ops=150, op="mixed", population=256, key_scheme=scheme,
            value_bytes=1024, seed=9,
        )

        def _execute(operations):
            rig = build_kv_rig(lab_geometry(8))
            rig.device.fast_fill(256, 1024, scheme)
            return execute_workload(rig.env, rig.adapter, operations,
                                    queue_depth=4, name="replay")

        direct = _execute(generate_operations(spec))
        path = str(tmp_path / "spec.kvt")
        export_spec(spec, path)
        replayed = _execute(
            TraceWorkload(read_trace(path), key_scheme=scheme).operations()
        )
        assert _run_fingerprint(replayed) == _run_fingerprint(direct)
        assert direct.completed_ops == 150


# ---------------------------------------------------------------------------
# TraceWorkload adapter
# ---------------------------------------------------------------------------


class TestTraceWorkload:
    def test_rejects_empty_record_list(self):
        with pytest.raises(WorkloadError, match="at least one record"):
            TraceWorkload([])

    def test_scan_records_become_ycsb_operations(self):
        records = [TraceRecord(0.0, "scan", b"pref-001", 32),
                   TraceRecord(1.0, "read", b"pref-001", 0)]
        ops = list(TraceWorkload(records))
        assert ops[0] == Operation(OpType.READ, b"pref-001", 0, 0, scan_length=32)
        assert ops[1] == Operation(OpType.READ, b"pref-001", 0, 0)

    def test_every_op_code_maps_and_an_unknown_one_is_named(self):
        records = [TraceRecord(float(i), op.value, b"pref-001", 8)
                   for i, op in enumerate(OpType)]
        assert [op.op for op in TraceWorkload(records)] == list(OpType)
        # A record cannot be built with a bad op; one smuggled past the
        # constructor is refused by the replay table, not a bare ValueError.
        object.__setattr__(records[0], "op", "frob")
        with pytest.raises(WorkloadError, match="unknown trace op 'frob'"):
            list(TraceWorkload(records))

    def test_foreign_keys_get_stable_first_seen_indices(self):
        records = [
            TraceRecord(0.0, "insert", b"zebra", 64),
            TraceRecord(1.0, "insert", b"apple", 64),
            TraceRecord(2.0, "read", b"zebra", 0),
        ]
        workload = TraceWorkload(records)
        indices = [op.key_index for op in workload.operations()]
        assert indices == [0, 1, 0]
        # A second pass over the same workload reuses the same interning.
        assert [op.key_index for op in workload.operations()] == indices

    def test_scheme_keys_recover_their_exact_indices(self):
        scheme = KeyScheme(prefix=b"popl", digits=12)
        records = [TraceRecord(0.0, "read", scheme.key_for(37), 0)]
        workload = TraceWorkload(records, key_scheme=scheme)
        assert next(iter(workload)).key_index == 37

    def test_duration_and_scan_probe(self):
        records = [TraceRecord(5.0, "read", b"a", 0),
                   TraceRecord(9.0, "scan", b"abcd", 4)]
        workload = TraceWorkload(records)
        assert workload.duration_us == 4.0
        assert workload.n_ops == 2
        assert workload.has_scans()
        assert not TraceWorkload([records[0]]).has_scans()


# ---------------------------------------------------------------------------
# Generators: determinism, ordering, and stream invariants
# ---------------------------------------------------------------------------


def _assert_time_ordered(records):
    stamps = [r.timestamp_us for r in records]
    assert stamps == sorted(stamps)


class TestGenerators:
    def test_churn_is_deterministic_and_seed_sensitive(self):
        spec = ChurnSpec(n_ops=120, population=256, working_set=32,
                         rotate_every_ops=40, seed=3)
        first = list(generate_churn(spec))
        assert first == list(generate_churn(spec))
        reseeded = dataclasses.replace(spec, seed=4)
        assert first != list(generate_churn(reseeded))
        _assert_time_ordered(first)

    def test_churn_rotation_moves_the_window(self):
        scheme = KeyScheme(prefix=b"chrn", digits=12)
        spec = ChurnSpec(n_ops=100, population=400, working_set=50,
                         rotate_every_ops=50, key_scheme=scheme, seed=3)
        records = list(generate_churn(spec))
        first = {scheme.index_of(r.key) for r in records[:50]}
        second = {scheme.index_of(r.key) for r in records[50:]}
        assert first <= set(range(0, 50))
        assert second <= set(range(50, 100))
        # The static control arm never leaves the initial window.
        static = dataclasses.replace(spec, rotate_every_ops=0)
        indices = {scheme.index_of(r.key) for r in generate_churn(static)}
        assert indices <= set(range(0, 50))

    def test_churn_ops_are_reads_and_updates_only(self):
        spec = ChurnSpec(n_ops=60, population=64, working_set=64, seed=1)
        assert {r.op for r in generate_churn(spec)} <= {"read", "update"}

    def test_expiry_stream_is_self_contained(self):
        """Every read/delete targets a live key; the drain leaves the
        store empty, the way a TTL cache would end up."""
        spec = ExpirySpec(n_ops=200, population=64, ttl_us=1200.0, seed=7)
        records = list(generate_expiry(spec))
        _assert_time_ordered(records)
        live = set()
        deletes = 0
        for record in records:
            if record.op == "insert":
                assert record.key not in live
                assert record.ttl_us == spec.ttl_us
                live.add(record.key)
            elif record.op == "update":
                assert record.key in live
                assert record.ttl_us == spec.ttl_us
            elif record.op == "read":
                assert record.key in live
            else:
                assert record.op == "delete"
                assert record.key in live
                live.remove(record.key)
                deletes += 1
        assert not live, "final drain must expire every armed key"
        assert deletes > 0
        foreground = [r for r in records if r.op != "delete"]
        assert len(foreground) == spec.n_ops

    def test_expiry_is_deterministic(self):
        spec = ExpirySpec(n_ops=150, population=40, ttl_us=900.0, seed=5)
        assert list(generate_expiry(spec)) == list(generate_expiry(spec))

    def test_scan_mix_carries_scan_limits(self):
        spec = ScanMixSpec(n_ops=300, population=128, scan_fraction=0.3,
                           seed=11)
        records = list(generate_scan_mix(spec))
        _assert_time_ordered(records)
        scans = [r for r in records if r.op == "scan"]
        assert scans and all(r.size == SCAN_MIX_LENGTH for r in scans)
        assert {r.op for r in records} <= {"scan", "read", "update"}
        assert list(generate_scan_mix(spec)) == records

    def test_churn_spec_validation(self):
        with pytest.raises(WorkloadError, match="working_set"):
            ChurnSpec(n_ops=10, population=8, working_set=9)
        with pytest.raises(WorkloadError, match="rotate_every_ops"):
            ChurnSpec(n_ops=10, population=8, working_set=4,
                      rotate_every_ops=-1)

    def test_expiry_spec_validation(self):
        with pytest.raises(WorkloadError, match="ttl_us"):
            ExpirySpec(n_ops=10, population=8, ttl_us=0.0)


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------


class TestMerge:
    def test_merge_orders_by_timestamp_then_stream(self):
        a = [TraceRecord(0.0, "read", b"a0", 0),
             TraceRecord(10.0, "read", b"a1", 0)]
        b = [TraceRecord(0.0, "read", b"b0", 0),
             TraceRecord(5.0, "read", b"b1", 0)]
        merged = merge_traces(a, b)
        assert [r.key for r in merged] == [b"a0", b"b0", b"b1", b"a1"]
        _assert_time_ordered(merged)

    def test_merge_is_writable_and_parseable(self, tmp_path):
        churn = generate_churn(
            ChurnSpec(n_ops=50, population=64, working_set=16, seed=2)
        )
        expiry = generate_expiry(
            ExpirySpec(n_ops=50, population=16, ttl_us=700.0,
                       key_scheme=KeyScheme(prefix=b"ttl-", digits=12),
                       seed=3)
        )
        merged = merge_traces(churn, expiry)
        path = str(tmp_path / "merged.kvt")
        count = write_trace(path, merged)
        assert read_trace(path) == merged
        assert count == len(merged) >= 100

    @given(seed_a=st.integers(0, 50), seed_b=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_merge_preserves_every_record(self, seed_a, seed_b):
        a = list(generate_churn(ChurnSpec(
            n_ops=20, population=32, working_set=8, seed=seed_a)))
        b = list(generate_churn(ChurnSpec(
            n_ops=20, population=32, working_set=8, seed=seed_b)))
        merged = merge_traces(a, b)
        assert len(merged) == 40
        assert sorted(r.key for r in merged) == sorted(
            r.key for r in a + b
        )
        _assert_time_ordered(merged)


# ---------------------------------------------------------------------------
# Hash-seed independence (sanitizer collect machinery)
# ---------------------------------------------------------------------------

CHURN_TARGET = f"{FIXTURES / 'sanitizer_targets.py'}:replay_churn"
EXPIRY_TARGET = f"{FIXTURES / 'sanitizer_targets.py'}:replay_expiry"


class TestHashSeedIndependence:
    @pytest.mark.parametrize("target", [CHURN_TARGET, EXPIRY_TARGET],
                             ids=["churn", "expiry"])
    def test_generator_fingerprint_survives_hash_seed_variation(
        self, target
    ):
        left = collect_in_subprocess(target, 0, "0")
        right = collect_in_subprocess(target, 0, "1")
        assert left.hash_seed == "0" and right.hash_seed == "1"
        assert localize(left, right) is None
        assert left.fingerprint == right.fingerprint


# ---------------------------------------------------------------------------
# The committed sample trace
# ---------------------------------------------------------------------------


class TestSampleTrace:
    def test_sample_trace_parses_and_replays(self):
        records = read_trace(str(SAMPLE_TRACE))
        assert len(records) >= 1000
        _assert_time_ordered(records)
        workload = TraceWorkload(records)
        assert workload.has_scans()
        ops = {r.op for r in records}
        assert {"insert", "update", "read", "delete", "scan"} <= ops
        operations = list(workload.operations())
        assert len(operations) == len(records)

    def test_sample_trace_survives_a_read_write_cycle_byte_for_byte(
        self, tmp_path
    ):
        copy = tmp_path / "copy.kvt"
        write_trace(str(copy), read_trace(str(SAMPLE_TRACE)))
        assert copy.read_bytes() == SAMPLE_TRACE.read_bytes()
