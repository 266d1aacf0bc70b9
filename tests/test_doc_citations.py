"""Documentation cites only benchmark files that exist.

README, DESIGN, the verify recipe and the CI workflow name bench
scripts (``benchmarks/....py``) and their result files
(``BENCH_<name>.json``).  A citation of a deleted file is a claim
nobody can regenerate, so every one must resolve in the tree; a glob
(``benchmarks/bench_fig*.py``) must match at least one file.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DOCUMENTS = [
    "README.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
]

CITATION = re.compile(r"benchmarks/[\w/*.-]*?\.py|BENCH_[\w*]+\.json")


def citations(text: str) -> set[str]:
    return set(CITATION.findall(text))


def resolves(citation: str) -> bool:
    if "*" in citation:
        return any(ROOT.glob(citation))
    return (ROOT / citation).is_file()


def test_pattern_finds_scripts_results_and_globs():
    text = ("run `benchmarks/harness/run.py`, see BENCH_x.json and "
            "`benchmarks/bench_fig*.py`; BENCH_*.json")
    assert citations(text) == {"benchmarks/harness/run.py", "BENCH_x.json",
                               "benchmarks/bench_fig*.py", "BENCH_*.json"}


@pytest.mark.parametrize("document", DOCUMENTS)
def test_cited_benchmark_files_exist(document):
    text = (ROOT / document).read_text(encoding="utf-8")
    missing = sorted(c for c in citations(text)
                     if not resolves(c))
    assert missing == [], f"{document} cites missing files: {missing}"
