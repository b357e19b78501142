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
