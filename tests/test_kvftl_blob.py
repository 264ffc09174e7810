"""Unit tests for blob layout, key hashing, and validation."""

import pytest

from repro.errors import ConfigurationError, InvalidKeyError, InvalidValueError
from repro.kvftl.blob import (
    blobs_per_page,
    layout_blob,
    space_amplification,
    usable_page_bytes,
    validate_key,
    validate_value_size,
)
from repro.kvftl.config import METADATA_BYTES, KVSSDConfig
from repro.kvftl.keyhash import hash_fraction, iterator_bucket, key_hash64
from repro.units import KIB, MIB

PAGE = 32 * KIB
CFG = KVSSDConfig()


# -- validation -----------------------------------------------------------------


def test_key_length_limits():
    validate_key(b"abcd")
    validate_key(b"x" * 255)
    with pytest.raises(InvalidKeyError):
        validate_key(b"abc")
    with pytest.raises(InvalidKeyError):
        validate_key(b"x" * 256)
    with pytest.raises(InvalidKeyError):
        validate_key("not-bytes")  # type: ignore[arg-type]


def test_value_length_limits():
    validate_value_size(0)
    validate_value_size(2 * MIB)
    with pytest.raises(InvalidValueError):
        validate_value_size(-1)
    with pytest.raises(InvalidValueError):
        validate_value_size(2 * MIB + 1)


# -- layout ---------------------------------------------------------------------


def test_small_blob_padded_to_min_alloc():
    layout = layout_blob(16, 50, PAGE, CFG)
    assert layout.raw_bytes == METADATA_BYTES + 16 + 50
    assert layout.footprint_bytes == CFG.min_alloc_bytes
    assert not layout.is_split
    assert layout.padding_bytes == CFG.min_alloc_bytes - layout.raw_bytes


def test_mid_size_blob_packed_tightly():
    layout = layout_blob(16, 4096, PAGE, CFG)
    assert layout.footprint_bytes == METADATA_BYTES + 16 + 4096
    assert layout.fragments == [layout.footprint_bytes]


def test_24k_value_fits_one_page():
    # The paper's hypothesis: a 32 KiB page fits up to a 24 KiB value
    # plus key and metadata.
    layout = layout_blob(16, 24 * KIB, PAGE, CFG)
    assert not layout.is_split


def test_25k_value_splits():
    layout = layout_blob(16, 25 * KIB, PAGE, CFG)
    assert layout.is_split
    assert layout.data_fragments == 2
    assert layout.offset_pages == 1
    usable = usable_page_bytes(PAGE, CFG)
    assert all(fragment == usable for fragment in layout.fragments)


def test_49k_value_needs_three_data_fragments():
    layout = layout_blob(16, 49 * KIB, PAGE, CFG)
    assert layout.data_fragments == 3
    assert layout.offset_pages == 2


def test_fragments_sum_to_footprint():
    for value in (0, 50, 1024, 24 * KIB, 25 * KIB, 100 * KIB, 2 * MIB):
        layout = layout_blob(16, value, PAGE, CFG)
        assert sum(layout.fragments) == layout.footprint_bytes
        assert layout.footprint_bytes >= layout.raw_bytes


def test_usable_page_leaves_reserve():
    assert usable_page_bytes(PAGE, CFG) == PAGE - CFG.page_reserved_bytes
    with pytest.raises(ConfigurationError):
        usable_page_bytes(CFG.page_reserved_bytes + 10, CFG)


def test_blobs_per_page_for_paper_sizes():
    # 512 B values pad to 1 KiB -> 24 blobs in the 24.5 KiB usable area.
    assert blobs_per_page(16, 512, PAGE, CFG) == 24
    with pytest.raises(ConfigurationError):
        blobs_per_page(16, 30 * KIB, PAGE, CFG)


def test_space_amplification_matches_paper_shape():
    # ~15.5x for 50 B values with 16 B keys (paper: up to ~17-20x).
    assert space_amplification(16, 50, PAGE, CFG) == pytest.approx(
        1024 / 66, rel=1e-6
    )
    # Close to 1 for 1-4 KiB values (paper: "packs very tightly").
    assert space_amplification(16, 2048, PAGE, CFG) < 1.05
    assert space_amplification(16, 4096, PAGE, CFG) < 1.02


def test_space_amplification_empty_pair_rejected():
    with pytest.raises(InvalidValueError):
        space_amplification(0, 0, PAGE, CFG)


# -- key hashing --------------------------------------------------------------------


def test_key_hash_deterministic_and_64bit():
    assert key_hash64(b"hello") == key_hash64(b"hello")
    assert key_hash64(b"hello") != key_hash64(b"hellp")
    assert 0 <= key_hash64(b"anything") < (1 << 64)


def test_hash_fraction_uniform_range():
    fractions = [hash_fraction(b"key-%06d" % i) for i in range(2000)]
    assert all(0.0 <= fraction < 1.0 for fraction in fractions)
    mean = sum(fractions) / len(fractions)
    assert 0.38 < mean < 0.62  # roughly uniform (FNV over structured keys)
    # All quartiles populated.
    for low in (0.0, 0.25, 0.5, 0.75):
        assert any(low <= fraction < low + 0.25 for fraction in fractions)


def test_hash_destroys_sequential_order():
    # The paper's core observation: hashing erases key order.
    hashes = [key_hash64(b"key-%012d" % i) for i in range(100)]
    sorted_pairs = sorted(range(100), key=lambda i: hashes[i])
    assert sorted_pairs != list(range(100))


def test_iterator_bucket_first_four_bytes():
    assert iterator_bucket(b"abcdef") == b"abcd"
    assert iterator_bucket(b"ab") == b"ab\x00\x00"
