"""External trace ingestion: schemas, diagnostics, and the import cache."""

import gzip
import json
import os

import numpy as np
import pytest

from repro.core.errors import UnknownExperimentError
from repro.frontends import get_frontend
from repro.frontends.trace_import import (
    TraceImportError,
    export_trace,
    import_trace,
    imported_trace_dir,
    list_imported,
    load_imported,
    parse_trace,
)


@pytest.fixture()
def sample_trace():
    return get_frontend("rv").trace("rv.gcd", 200)


def _write_jsonl(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


GOOD_ROW = {"pc": 4096, "op": "add", "srcs": [1, 2], "dsts": [3]}


# -- happy paths ---------------------------------------------------------


def test_export_import_round_trip(tmp_path, sample_trace):
    for fmt in ("jsonl", "csv"):
        path = str(tmp_path / f"t.{fmt}")
        export_trace(sample_trace, path, fmt=fmt)
        back = parse_trace(path)
        assert np.array_equal(back.pc, sample_trace.pc)
        assert np.array_equal(back.opid, sample_trace.opid)
        assert np.array_equal(back.src_slots, sample_trace.src_slots)
        assert np.array_equal(back.dst_slots, sample_trace.dst_slots)
        assert np.array_equal(back.mem_addr, sample_trace.mem_addr)
        assert np.array_equal(back.branch_taken, sample_trace.branch_taken)
        assert np.array_equal(back.fault, sample_trace.fault)


def test_gzip_transparent(tmp_path, sample_trace):
    plain = str(tmp_path / "t.jsonl")
    export_trace(sample_trace, plain)
    gz = plain + ".gz"
    with open(plain, "rb") as src, gzip.open(gz, "wb") as dst:
        dst.write(src.read())
    assert np.array_equal(parse_trace(gz).opid, sample_trace.opid)


def test_mnemonics_resolve_through_the_isa_vocabulary(tmp_path):
    path = str(tmp_path / "t.jsonl")
    _write_jsonl(path, [{"pc": 0, "op": "lw", "srcs": ["sp"], "dsts": ["a0"]}])
    trace = parse_trace(path, isa="rv")
    from repro.isa.opcodes import OPCODE_IDS

    assert trace.opid[0] == OPCODE_IDS["ld"]


# -- malformed inputs: every failure names file and line -----------------


def test_truncated_jsonl_names_the_line(tmp_path, sample_trace):
    path = str(tmp_path / "t.jsonl")
    export_trace(sample_trace, path)
    with open(path) as fh:
        lines = fh.readlines()
    lines[-1] = lines[-1][: len(lines[-1]) // 2]  # chop mid-record
    with open(path, "w") as fh:
        fh.writelines(lines)
    with pytest.raises(TraceImportError) as err:
        parse_trace(path)
    assert f"{path}:{len(lines)}" in str(err.value)
    assert "truncated" in str(err.value)


def test_truncated_csv_row(tmp_path, sample_trace):
    path = str(tmp_path / "t.csv")
    export_trace(sample_trace, path)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: text.rindex(",")])
    with pytest.raises(TraceImportError) as err:
        parse_trace(path)
    assert path in str(err.value)
    assert "truncated" in str(err.value)


def test_unknown_opcode_names_isa_and_line(tmp_path):
    path = str(tmp_path / "t.jsonl")
    _write_jsonl(path, [GOOD_ROW, {"pc": 8, "op": "vfmadd213ps"}])
    with pytest.raises(TraceImportError) as err:
        parse_trace(path)
    msg = str(err.value)
    assert f"{path}:2" in msg
    assert "vfmadd213ps" in msg and "mini-asm" in msg


def test_out_of_range_register_id(tmp_path):
    path = str(tmp_path / "t.jsonl")
    _write_jsonl(path, [{"pc": 0, "op": "add", "srcs": [9999]}])
    with pytest.raises(TraceImportError) as err:
        parse_trace(path)
    assert f"{path}:1" in str(err.value)
    assert "out of range" in str(err.value)


def test_unknown_register_name(tmp_path):
    path = str(tmp_path / "t.jsonl")
    _write_jsonl(path, [{"pc": 0, "op": "add", "dsts": ["xmm0"]}])
    with pytest.raises(TraceImportError) as err:
        parse_trace(path)
    assert "xmm0" in str(err.value)


def test_corrupt_gzip(tmp_path):
    path = str(tmp_path / "t.jsonl.gz")
    with open(path, "wb") as fh:
        fh.write(b"\x1f\x8b\x08\x00garbage-not-a-gzip-stream")
    with pytest.raises(TraceImportError) as err:
        parse_trace(path)
    assert "corrupt gzip" in str(err.value)


def test_missing_file(tmp_path):
    with pytest.raises(TraceImportError) as err:
        parse_trace(str(tmp_path / "nope.jsonl"))
    assert "no such file" in str(err.value)


def test_empty_trace_rejected(tmp_path):
    path = str(tmp_path / "t.jsonl")
    _write_jsonl(path, [])
    with pytest.raises(TraceImportError) as err:
        parse_trace(path)
    assert "no instructions" in str(err.value)


def test_unknown_extension(tmp_path):
    path = str(tmp_path / "t.parquet")
    with open(path, "w") as fh:
        fh.write("x")
    with pytest.raises(TraceImportError):
        parse_trace(path)


def test_imported_isa_has_no_vocabulary_to_parse_against(tmp_path):
    path = str(tmp_path / "t.jsonl")
    _write_jsonl(path, [GOOD_ROW])
    with pytest.raises(TraceImportError) as err:
        parse_trace(path, isa="imported")
    assert "vocabulary" in str(err.value)


# -- import cache: publish, hit, and failure atomicity -------------------


def test_import_publishes_and_second_import_hits_cache(tmp_path, sample_trace):
    path = str(tmp_path / "t.jsonl")
    export_trace(sample_trace, path)
    cache = str(tmp_path / "cache")
    first = import_trace(path, name="gcd_ext", cache_dir=cache)
    assert not first.cache_hit
    assert first.rows == len(sample_trace)
    again = import_trace(path, name="gcd_ext", cache_dir=cache)
    assert again.cache_hit
    assert again.digest == first.digest
    assert "gcd_ext" in list_imported(cache)
    loaded = load_imported("gcd_ext", cache_dir=cache)
    assert np.array_equal(loaded.opid, sample_trace.opid)


def test_changed_source_invalidates_the_cache(tmp_path, sample_trace):
    path = str(tmp_path / "t.jsonl")
    export_trace(sample_trace, path)
    cache = str(tmp_path / "cache")
    first = import_trace(path, name="gcd_ext", cache_dir=cache)
    with open(path, "a") as fh:
        fh.write(json.dumps(GOOD_ROW) + "\n")
    second = import_trace(path, name="gcd_ext", cache_dir=cache)
    assert not second.cache_hit
    assert second.digest != first.digest
    assert second.rows == first.rows + 1


def test_failed_import_leaves_no_partial_artifact(tmp_path):
    path = str(tmp_path / "t.jsonl")
    _write_jsonl(path, [GOOD_ROW, {"pc": 8, "op": "not-an-op"}])
    cache = str(tmp_path / "cache")
    with pytest.raises(TraceImportError):
        import_trace(path, name="broken", cache_dir=cache)
    root = imported_trace_dir(cache)
    assert not os.path.isdir(os.path.join(root, "broken"))
    assert "broken" not in list_imported(cache)


def test_short_imported_trace_serves_under_a_larger_budget(
    tmp_path, sample_trace, monkeypatch
):
    # serving requests carry the scale's instruction budget; an imported
    # trace shorter than that must still predict (the trace, not the
    # budget, sizes the block extraction)
    from repro.features.dataset import build_dataset
    from repro.models.base import PredictRequest
    from repro.models.registry import create
    from repro.uarch.presets import skylake_like

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "root"))
    path = str(tmp_path / "t.jsonl")
    export_trace(sample_trace.head(40), path)
    import_trace(path, name="short_ext")

    ds = build_dataset(
        ["short_ext"], [skylake_like()], max_instructions=40,
        cache_dir=str(tmp_path / "ds"), isa="imported",
    )
    model = create("ithemal", epochs=1).fit(ds)
    request = PredictRequest(
        benchmark="short_ext", n_instructions=5000, isa="imported"
    )
    (out,) = model.predict_batch([request])
    assert out.shape == (1,) and float(out[0]) > 0


def test_dataset_rows_follow_a_trace_shorter_than_the_cap(
    tmp_path, sample_trace, monkeypatch
):
    """Rows are sized by the trace, not the instruction cap; a repeated
    name repeats its rows; a warm build reads the same arrays back."""
    from repro.features.dataset import build_dataset
    from repro.uarch.presets import skylake_like

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "root"))
    path = str(tmp_path / "t.jsonl")
    export_trace(sample_trace.head(40), path)
    import_trace(path, name="short_ext")

    def build():
        return build_dataset(
            ["short_ext", "short_ext"], [skylake_like()],
            max_instructions=100, cache_dir=str(tmp_path / "ds"),
            isa="imported",
        )

    cold, warm = build(), build()
    assert cold.segments == (("short_ext", 0, 40), ("short_ext", 40, 80))
    assert cold.features.shape == (80, 51)
    np.testing.assert_array_equal(cold.features[:40], cold.features[40:])
    np.testing.assert_array_equal(cold.targets[:40], cold.targets[40:])
    np.testing.assert_array_equal(warm.features, cold.features)
    np.testing.assert_array_equal(warm.targets, cold.targets)


def test_load_unknown_imported_trace_suggests(tmp_path, sample_trace):
    path = str(tmp_path / "t.jsonl")
    export_trace(sample_trace, path)
    cache = str(tmp_path / "cache")
    import_trace(path, name="gcd_ext", cache_dir=cache)
    with pytest.raises(UnknownExperimentError) as err:
        load_imported("gcd_extt", cache_dir=cache)
    assert "gcd_ext" in str(err.value)
    assert "imported trace" in str(err.value)
