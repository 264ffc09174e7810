"""The trace set-up's fast paths, each held against a reference.

``generate_operations``, ``export_spec`` and ``parse_trace`` build their
output a chunk at a time from C-level ``map``s.  Each is compared here
with the per-item code it replaced: the operation loop, ``key_for`` and
the uniform draw kept verbatim below, ``write_trace(spec_to_records(spec))``
for the export, and the strict line-by-line parser for the parse.  The
examples are derandomized, so a failure reproduces on every run.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.kvbench import traces
from repro.kvbench.distributions import uniform_indices
from repro.kvbench.traces import (
    OP_CODES,
    TRACE_MAGIC,
    TRACE_VERSION,
    TraceRecord,
    export_spec,
    parse_trace,
    read_trace,
    spec_to_records,
    write_trace,
)
from repro.kvbench.workload import (
    Operation,
    OpType,
    Pattern,
    WorkloadSpec,
    _index_stream,
    generate_operations,
)
from repro.kvftl.population import KeyScheme

settings.register_profile(
    "derandomized", derandomize=True, deadline=None, database=None
)
DERANDOMIZED = settings.get_profile("derandomized")

HEADER = f"{TRACE_MAGIC} v{TRACE_VERSION}\n"


# ---------------------------------------------------------------------------
# References: the per-item code the fast paths replaced
# ---------------------------------------------------------------------------


def _reference_key_for(scheme: KeyScheme, index: int) -> bytes:
    if not 0 <= index < 10 ** scheme.digits:
        raise ValueError(
            f"key index must be in [0, {10 ** scheme.digits}), got {index}"
        )
    return scheme.prefix + str(index).zfill(scheme.digits).encode("ascii")


def _reference_uniform(population: int, count: int, seed: int) -> Iterator[int]:
    rng = random.Random(seed)
    for _ in range(count):
        yield rng.randrange(population)


def _reference_index_stream(spec: WorkloadSpec) -> Iterator[int]:
    population = spec.effective_population
    if spec.pattern is Pattern.UNIFORM and spec.op != "insert":
        return _reference_uniform(population, spec.n_ops, spec.seed)
    return _index_stream(spec)


def _reference_operations(spec: WorkloadSpec) -> Iterator[Operation]:
    """The operation loop before the chunked stream, verbatim but for
    the key and uniform index helpers above."""
    mix_rng = random.Random(spec.seed + 7919)
    for index in _reference_index_stream(spec):
        key = _reference_key_for(spec.key_scheme, index)
        if spec.op == "insert":
            kind = OpType.INSERT
        elif spec.op == "update":
            kind = OpType.UPDATE
        elif spec.op == "read":
            kind = OpType.READ
        elif spec.op == "delete":
            kind = OpType.DELETE
        else:  # mixed
            kind = (
                OpType.READ
                if mix_rng.random() < spec.read_fraction
                else OpType.UPDATE
            )
        value = spec.value_bytes if kind is not OpType.READ else 0
        yield Operation(kind, key, index, value)


def _expected_operations(spec: WorkloadSpec) -> List[Operation]:
    """The reference stream with deletes carrying value size 0, as the
    trace format has it."""
    return [op._replace(value_bytes=0) if op.op is OpType.DELETE else op
            for op in _reference_operations(spec)]


def _outcome(run) -> object:
    """What ``run()`` returns, or the type and text of what it raises."""
    try:
        return run()
    except (ValueError, WorkloadError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

_prefixes = st.one_of(
    st.binary(max_size=6),
    st.sampled_from([b"fill", b"%", b"a%d", b"%012d", b"\xff%\x00", b"k\xe9y-"]),
)


@st.composite
def specs(draw) -> WorkloadSpec:
    digits = draw(st.integers(1, 12))
    population = draw(st.integers(1, min(3_000, 10 ** digits)))
    return WorkloadSpec(
        n_ops=draw(st.integers(1, 2_500)),
        op=draw(st.sampled_from(["insert", "update", "read", "mixed", "delete"])),
        pattern=draw(st.sampled_from(list(Pattern))),
        population=population,
        key_scheme=KeyScheme(prefix=draw(_prefixes), digits=digits),
        value_bytes=draw(st.sampled_from([0, 1, 512, 4096])),
        read_fraction=draw(st.sampled_from([0, 0.3, 1])),
        seed=draw(st.integers(0, 2 ** 32)),
    )


class TestGeneration:
    @given(spec=specs())
    @settings(DERANDOMIZED, max_examples=120)
    def test_the_stream_is_the_reference_loop(self, spec):
        assert list(generate_operations(spec)) == _expected_operations(spec)

    @pytest.mark.parametrize("op", ["insert", "update", "read", "mixed", "delete"])
    @pytest.mark.parametrize("pattern", list(Pattern))
    @pytest.mark.parametrize("read_fraction", [0, 0.3, 1])
    def test_every_kind_pattern_and_mix_across_chunks(self, op, pattern, read_fraction):
        spec = WorkloadSpec(
            n_ops=3_000, op=op, pattern=pattern, population=2_000,
            key_scheme=KeyScheme(prefix=b"%\xe9", digits=6), value_bytes=64,
            read_fraction=read_fraction, seed=17,
        )
        assert list(generate_operations(spec)) == _expected_operations(spec)

    def test_a_population_past_the_scheme_raises_where_the_loop_did(self):
        """Two digits name 100 keys: over 300 the range check is not
        proven and runs per key, raising at the same operation."""
        spec = WorkloadSpec(n_ops=2_000, op="update", pattern=Pattern.SEQUENTIAL,
                            population=300, key_scheme=KeyScheme(digits=2))
        stream = generate_operations(spec)
        assert [next(stream) for _ in range(100)] == _expected_operations(
            WorkloadSpec(n_ops=100, op="update", pattern=Pattern.SEQUENTIAL,
                         population=300, key_scheme=KeyScheme(digits=2)))
        with pytest.raises(ValueError, match=r"\[0, 100\), got 100"):
            next(stream)

    @given(population=st.one_of(st.integers(1, 70), st.sampled_from(
        [2 ** 20, 2 ** 20 + 1, 821_990, 10 ** 12 + 7])), seed=st.integers(0, 99))
    @settings(DERANDOMIZED, max_examples=80)
    def test_uniform_draws_are_the_randrange_draws(self, population, seed):
        assert list(uniform_indices(population, 300, seed)) == \
            list(_reference_uniform(population, 300, seed))


class TestKeyFor:
    @pytest.mark.parametrize("prefix", [b"key-", b"", b"%", b"a%d%%", b"\xff\x00 "])
    @pytest.mark.parametrize("digits", [1, 3, 12])
    def test_the_pattern_is_the_zfill_form(self, prefix, digits):
        scheme = KeyScheme(prefix=prefix, digits=digits)
        for index in (0, 1, 10 ** digits - 1):
            key = scheme.key_for(index)
            assert key == _reference_key_for(scheme, index)
            assert len(key) == scheme.key_bytes
            assert scheme.index_of(key) == index
        for index in (-1, 10 ** digits):
            raised = _outcome(lambda: scheme.key_for(index))
            assert raised[0] is ValueError
            assert raised == _outcome(lambda: _reference_key_for(scheme, index))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


class TestExport:
    @given(spec=specs())
    @settings(DERANDOMIZED, max_examples=60)
    def test_export_is_the_bytes_of_the_records(self, spec, tmp_path_factory):
        directory = tmp_path_factory.mktemp("export")
        fast, slow = directory / "fast.kvt", directory / "slow.kvt"
        assert export_spec(spec, str(fast)) == spec.n_ops
        assert write_trace(str(slow), spec_to_records(spec)) == spec.n_ops
        assert fast.read_bytes() == slow.read_bytes()

    @pytest.mark.parametrize("planted, message", [
        (Operation(OpType.READ, b"", 3, 0), "trace key must be non-empty"),
        (Operation(OpType.UPDATE, b"k", 3, -5), "trace size must be >= 0, got -5"),
        (Operation(Pattern.UNIFORM, b"k", 3, 0), "unknown trace op 'rand'"),
    ])
    def test_a_planted_violation_raises_what_the_records_raise(
        self, planted, message, tmp_path, monkeypatch
    ):
        """Operation 1,500 (second chunk) breaks the generator's
        contract: the export refuses it with the record's own words."""
        spec = WorkloadSpec(n_ops=2_000, op="mixed", population=500)
        real = generate_operations

        def planted_stream(spec):
            for position, op in enumerate(real(spec)):
                yield planted if position == 1_500 else op

        monkeypatch.setattr(traces, "generate_operations", planted_stream)
        for run in (lambda: export_spec(spec, str(tmp_path / "a.kvt")),
                    lambda: write_trace(str(tmp_path / "b.kvt"), spec_to_records(spec))):
            with pytest.raises(WorkloadError) as caught:
                run()
            assert message in str(caught.value)

    def test_a_backwards_record_in_a_later_chunk_is_numbered(self, tmp_path, monkeypatch):
        monkeypatch.setattr(traces, "_CHUNK", 4)
        records = [TraceRecord(float(i), "read", b"k", 0) for i in range(10)]
        records[6] = TraceRecord(2.5, "read", b"k", 0)
        with pytest.raises(WorkloadError,
                           match=r"^record 7: timestamp 2.5 goes backwards \(previous 5.0\)$"):
            write_trace(str(tmp_path / "t.kvt"), records)


# ---------------------------------------------------------------------------
# Parse
# ---------------------------------------------------------------------------


def _canonical(draw, now: float) -> str:
    op = draw(st.sampled_from(["insert", "update", "read", "delete"]))
    key = draw(st.text(alphabet="fil0123456789-_~!$&", min_size=1, max_size=8))
    size = 0 if op in ("read", "delete") else draw(st.integers(0, 1 << 20))
    return f"{now!r} {op} {key} {size}"


_MALFORMED = [
    "1.0 read abc", "2.0 read abc 0 5.0 extra", "1.0 frob abc 0", "soon read abc 0",
    "0x10 read abc 0", "nan read abc 0", "1e999 read abc 0", "1..0 read abc 0",
    "1.0 read abc 12q", "1.0 read abc +5", "1.0 read abc 1_0", "1.0 update abc -4",
    "1.0 scan abcd 0", "1.0 insert abc 64 later", "1.0 insert abc 64 -2.5",
    "1.0 read a%G1b 0", "1.0 read abc%2 0", "1.0 read % 0", "1.0 read ab\x7fc 0",
    "1.0 read ab\udce9 0", "1.0 read abc \xb2", "1_0.0 read abc 0", "e read abc 0",
    "-1.0 read abc 0", "1.0 read abc 0\n2.0 read abd 0", "1.0  read abc 0",
    "1.0\tread abc 0", "1.0 read abc 0\x1c", "1.0 read abc --5",
]


@st.composite
def line_lists(draw) -> List[str]:
    """Lines of every shape: canonical (most), commented, blank, with a
    TTL, a scan, an escaped key, a backwards or odd timestamp, a
    malformed field.  Each list's lines all end in a newline, as a
    file's do, or none does, or each ends in one, none or '\\r\\n'."""
    endings = draw(st.sampled_from([["\n"], [""], ["\n"] * 6 + ["", "\r\n"]]))
    now = 0.0
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        now += draw(st.sampled_from([0.0, 0.5, 100.0, 1e-7, 3.25e9]))
        shape = draw(st.sampled_from(
            ["canonical"] * 8 + ["comment", "blank", "ttl", "scan", "escaped",
                                 "backwards", "spelling", "malformed"]))
        if shape == "canonical":
            line = _canonical(draw, now)
        elif shape == "comment":
            line = draw(st.sampled_from(["# note", "#", "   # a b c", "# 1.0 read a 0"]))
        elif shape == "blank":
            line = draw(st.sampled_from(["", "   ", "\t"]))
        elif shape == "ttl":
            line = f"{_canonical(draw, now)} {draw(st.sampled_from(['0.0', '7.5', '1e3']))}"
        elif shape == "scan":
            line = f"{now!r} scan k%20ey {draw(st.integers(0, 9))}"
        elif shape == "escaped":
            line = f"{now!r} update %00%FF%25x 64"
        elif shape == "backwards":
            line = f"{max(0.0, now - 1.0)!r} read abc 0"
        elif shape == "spelling":
            line = draw(st.sampled_from(
                [f"{now!r}", f"{now:.3e}", f"+{now!r}", f"{now!r}0"])) + " read abc -0"
        else:
            line = draw(st.sampled_from(_MALFORMED))
        lines.append(line + draw(st.sampled_from(endings)))
    return [HEADER, *lines]


def _fast_and_strict(lines: List[str]) -> Tuple[object, object]:
    """What ``parse_trace(lines)`` returns or raises, and what it does
    with every chunk sent line by line through the strict parser."""
    fast = _outcome(lambda: parse_trace(lines))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traces, "_parse_canonical", lambda *args: None)
        return fast, _outcome(lambda: parse_trace(lines))


class TestParse:
    @given(lines=line_lists(), chunk=st.sampled_from([1, 2, 3, 5, 1024]))
    @settings(DERANDOMIZED, max_examples=400)
    def test_fuzzed_lines_parse_as_the_strict_parser_parses_them(self, lines, chunk):
        """Chunks of a few lines mix canonical and other chunks in one
        trace."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(traces, "_CHUNK", chunk)
            fast, strict = _fast_and_strict(lines)
        assert repr(fast) == repr(strict)
        if isinstance(fast, list):
            assert all(type(record) is TraceRecord for record in fast)
            assert all(record.op in OP_CODES and record.op is OP_CODES[
                OP_CODES.index(record.op)] for record in fast)

    @pytest.mark.parametrize("lines", [
        ["1.0 read a 0\n2.0 read b 0", "\n"],
        ["1.0 read a 0\n2.0", " read b 0\n"],
        ["1.0 read a 0\n2.0 read b 0", ""],
        ["1.0 read a 0", "2.0 read b 0\n"],
        ["1.0 read a 0\n", "2.0 read b 0"],
        ["1.0 read a 0\n", ""],
    ])
    def test_strings_that_are_not_one_line_each_parse_as_lines(self, lines):
        """Two canonical lines over two strings, split anywhere else than
        at their ends: the strict parser's records or error, not the
        pattern's two lines."""
        fast, strict = _fast_and_strict([HEADER, *lines])
        assert repr(fast) == repr(strict)

    def test_a_canonical_file_takes_the_fast_path_for_every_chunk(
        self, tmp_path, monkeypatch
    ):
        spec = WorkloadSpec(n_ops=3_000, op="mixed", population=5_000,
                            key_scheme=KeyScheme(prefix=b"fill"), seed=3)
        path = tmp_path / "ops.kvt"
        export_spec(spec, str(path))
        taken = []
        real = traces._parse_canonical

        def spy(lines, previous, records):
            last = real(lines, previous, records)
            taken.append(last is not None)
            return last

        monkeypatch.setattr(traces, "_parse_canonical", spy)
        records = read_trace(str(path))
        assert taken == [True] * 3
        assert records == list(spec_to_records(spec))
        assert records[0].op is OP_CODES[OP_CODES.index(records[0].op)]
        # The same lines as a list without their newlines.
        lines = path.read_text().splitlines()
        assert parse_trace(lines) == records
        assert taken == [True] * 6

