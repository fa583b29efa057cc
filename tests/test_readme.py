"""README.md's ratio table is the output of `bench_pairs.py --ratio-table`."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BEGIN = "<!-- ratio table: generated by scripts/bench_pairs.py --ratio-table -->\n"
END = "<!-- end ratio table -->\n"


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def in_git_checkout() -> bool:
    return shutil.which("git") is not None and subprocess.run(
        ["git", "rev-parse", "--is-inside-work-tree"], cwd=ROOT,
        capture_output=True).returncode == 0


@pytest.mark.skipif(not in_git_checkout(), reason="the newest BENCH file is found through git")
def test_readme_ratio_table_is_generated_from_newest_bench():
    bench_pairs = load_bench_pairs()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index(BEGIN) + len(BEGIN):readme.index(END)]
    expected = bench_pairs.ratio_table(bench_pairs.newest_ratio_bench())
    assert table == expected, "regenerate it with `python scripts/bench_pairs.py --ratio-table`"


def test_ratio_table_reads_change_side_medians():
    """Over the committed BENCH_5aeeeb3.json, the figures ROADMAP quotes."""
    table = load_bench_pairs().ratio_table(ROOT / "BENCH_5aeeeb3.json")
    assert "`BENCH_5aeeeb3.json` (10 on `hetero-10k`, 10 on `homog-10k`)" in table
    assert "| BiGRU | 22.5x | 17.2x |" in table
    assert "| transformer | 8.3x | 6.8x |" in table
