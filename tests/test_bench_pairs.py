"""The summary of scripts/bench_pairs.py on synthetic run results."""

import pathlib
import runpy

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" \
    / "bench_pairs.py"


def result(wall, rss, attempted=150, failed=0, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def script(name):
    return runpy.run_path(str(SCRIPT), run_name="bench_pairs")[name]


def test_summary_of_pairs():
    summarize = script("summarize")
    runs = {"sweep": {
        "parent": [result(w, 90.0) for w in (0.10, 0.12, 0.11, 0.13)],
        "change": [result(0.09, 91.0), result(0.125, 89.0),
                   result(0.10, 90.0, failed=2), result(0.12, 90.5,
                                                        correct=False)]}}
    summary = summarize(runs)["sweep"]
    wall = summary["wall_s"]
    assert wall["parent_median"] == pytest.approx(0.115)
    # numpy's linear percentile: 0.1075 and 0.1225 over 0.10 .. 0.13
    assert wall["parent_quartiles"] == pytest.approx([0.1075, 0.1225])
    assert wall["change_median"] == pytest.approx(0.11)
    assert wall["change_quartiles"] == pytest.approx([0.0975, 0.12125])
    # pair by pair: lower, higher, lower, lower
    assert (wall["change_lower_pairs"], wall["pairs"]) == (3, 4)
    rss = summary["peak_rss_mb"]
    assert rss["parent_median"] == 90.0 and rss["change_lower_pairs"] == 1
    assert summary["failed"] == {"parent": 0, "change": 2}
    assert summary["attempted"] == {"parent": 600, "change": 600}
    assert summary["all_correct"] is False
    runs["sweep"]["change"][3] = result(0.12, 90.5)
    assert summarize(runs)["sweep"]["all_correct"] is True


def test_src_lines_counts_as_wc(tmp_path):
    # newline characters of src/parabose/*.py, as cat ... | wc -l counts
    # them: a last line without its newline is not counted, and neither are
    # other files or subpackages
    package = tmp_path / "src" / "parabose"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("import os\n\nx = 1\n")
    (package / "b.py").write_text("y = 2\nz = 3")
    (package / "notes.txt").write_text("one\ntwo\n")
    (package / "sub" / "c.py").write_text("w = 4\n")
    assert script("src_lines")(tmp_path) == 4


BOUNDS = {"wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25},
          "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower",
                          "bound": 0.25}}


def test_bounds_read_from_the_benchmark():
    # the repository's own end-to-end metrics, each with its rule
    bounds = script("end_to_end")()
    assert {"wall_s", "op_p50_ms", "setup_s", "peak_rss_mb"} <= set(bounds)
    assert all(rule["better"] in ("lower", "higher") and rule["bound"] > 0
               for rule in bounds.values())


def test_bound_breach_flagged():
    # wall time 30% worse breaches its 0.25 bound; memory 10% lower passes
    runs = {"sweep": {
        "parent": [result(w, 100.0) for w in (0.10, 0.10, 0.10)],
        "change": [result(w, 90.0) for w in (0.13, 0.13, 0.12)]}}
    summary = script("summarize")(runs, BOUNDS)["sweep"]
    assert summary["wall_s"]["worse_share"] == pytest.approx(0.3)
    assert summary["wall_s"]["within_bound"] is False
    assert summary["peak_rss_mb"]["worse_share"] == pytest.approx(-0.1)
    assert summary["peak_rss_mb"]["within_bound"] is True


def test_bound_pass_and_higher_is_better():
    # 20% worse sits within 0.25; where higher is better, a 30% drop is
    # worse by 0.3 and a 30% rise is better
    runs = {"sweep": {
        "parent": [result(w, 100.0) for w in (0.10, 0.10)],
        "change": [result(w, 70.0) for w in (0.12, 0.12)]}}
    summarize = script("summarize")
    wall = summarize(runs, BOUNDS)["sweep"]["wall_s"]
    assert wall["worse_share"] == pytest.approx(0.2) and wall["within_bound"]
    higher = dict(BOUNDS, peak_rss_mb={"better": "higher", "bound": 0.25})
    rss = summarize(runs, higher)["sweep"]["peak_rss_mb"]
    assert rss["worse_share"] == pytest.approx(0.3)
    assert rss["within_bound"] is False
    runs["sweep"]["change"] = [result(0.1, 130.0)] * 2
    rss = summarize(runs, higher)["sweep"]["peak_rss_mb"]
    assert rss["worse_share"] == pytest.approx(-0.3) and rss["within_bound"]
