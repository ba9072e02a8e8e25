"""Regenerate ``digests.json``: the pinned design-line digests.

Every request of every workload (full and toy size) runs once through
the serial ``ExplorationService.run_manifest`` path on a fresh store --
a path that shares no code with the HTTP server or the CLI front-end --
and the SHA-256 of its design lines is written out.  Run from the root
of the repository (about 40 s)::

    python3 perfbench/make_digests.py
"""

from __future__ import annotations

import io
import json
import shutil
import sys
from pathlib import Path

from workset import DIGESTS, PAPER_CIRCUITS, design_lines, digest, \
    request_set

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments.zoo import case_keys  # noqa: E402
from repro.service import ExplorationService  # noqa: E402


def main() -> int:
    assert case_keys() == PAPER_CIRCUITS, "zoo circuits changed"
    requests = {}
    for workload in ("explore-cold", "serve-warm", "cli-warm"):
        for toy in (False, True):
            for request in request_set(workload, toy):
                requests[request.name] = request
    work = ROOT / ".perfbench" / "digests"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        service = ExplorationService(str(work / "store.sqlite"))
        pinned = {}
        for name, request in sorted(requests.items()):
            out = io.StringIO()
            service.run_manifest([request.manifest_entry()], out)
            lines = design_lines(out.getvalue().encode())
            pinned[name] = {"sha256": digest(lines),
                            "n_designs": len(lines)}
            print(f"{name}: {len(lines)} designs", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
