"""Spans inside the paper's compute layers, seen from a traced CLI run."""

from repro import obs
from repro.cli import main
from repro.experiments.common import get_scale, seen_configs
from repro.workloads import ALL_BENCHMARKS


def test_bench_suite_records_one_sim_run_span_per_benchmark_and_config(
    tmp_path, monkeypatch, capsys
):
    # a fresh root: a dataset cached by an earlier test would simulate nothing
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_OBS", "1")
    obs.reset_for_tests()
    try:
        assert main(["bench-suite", "--scale", "smoke", "--jobs", "1"]) == 0
    finally:
        obs.reset_for_tests()
    capsys.readouterr()
    scale = get_scale("smoke")
    configs = [cfg.name for cfg in seen_configs(scale)]
    spans = [s for s in obs.load_spans() if s.name == "sim.run"]
    assert sorted((s.attrs["trace"], s.attrs["config"]) for s in spans) == sorted(
        (bench, cfg) for bench in ALL_BENCHMARKS for cfg in configs
    )
    for span in spans:
        assert span.status == "ok"
        assert span.attrs["instructions"] == scale.instructions
        assert span.attrs["cycles"] > 0
