"""Documentation stays correct: intra-repo links resolve, examples run.

The CI docs job runs the same checks standalone
(``python tools/check_docs.py`` + ``python -m doctest``); keeping them
in the tier-1 suite means a broken link or a drifted doctest fails
locally before it fails in CI.
"""

import doctest
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_docs import broken_links, doc_files  # noqa: E402
from repro.service.coordinator import RPC_TABLE  # noqa: E402


def test_docs_exist():
    names = {f.name for f in doc_files()}
    assert "README.md" in names
    assert "ARCHITECTURE.md" in names


def test_no_broken_intra_repo_links():
    assert broken_links() == []


def test_documented_examples_run():
    """Every ``>>>`` block in README/docs executes and matches."""
    for doc in doc_files():
        failures, attempted = doctest.testfile(str(doc), module_relative=False,
                                               verbose=False)
        assert failures == 0, f"{doc.name}: {failures} doctest failures"
        if doc.name in ("README.md", "ARCHITECTURE.md"):
            assert attempted > 0, f"{doc.name} lost its doctest examples"


def test_coordinator_endpoint_table_matches_the_rpc_table():
    """The fleet section's route list is the RPC table, both ways."""
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
    section = text.split("## Distributed fleet (HTTP coordinator)")[1]
    section = section.split("\n## ")[0]
    documented = set()
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| `/v1/"):
            path, method, operations = cells[0].strip("`"), cells[1], cells[2]
            for name in operations.replace("`", "").split(","):
                documented.add((method, path, name.strip()))
    assert documented == {(rpc.method, rpc.path, rpc.name)
                          for rpc in RPC_TABLE}
