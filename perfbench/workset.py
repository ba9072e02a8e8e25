"""The benchmark's request sets, seeded request order, and output digests.

A request names one zoo circuit, a base (``exact`` bespoke or ``coeff``
approximated, e = 4) and a tau grid: the paper's 20-point grid (the
program's default) or, at toy size, three points.  Its digest is the
SHA-256 of its design lines, byte for byte as
``ExplorationService.run_manifest`` writes them for a one-request
manifest; ``digests.json`` pins them (see ``make_digests.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

# The paper's 14 evaluated circuits (``repro.experiments.zoo.case_keys()``;
# make_digests.py checks the two agree).
PAPER_CIRCUITS = [
    ("cardio", "mlp_c"), ("cardio", "mlp_r"), ("cardio", "svm_c"),
    ("cardio", "svm_r"), ("pendigits", "mlp_c"), ("pendigits", "svm_c"),
    ("redwine", "mlp_c"), ("redwine", "mlp_r"), ("redwine", "svm_c"),
    ("redwine", "svm_r"), ("whitewine", "mlp_c"), ("whitewine", "mlp_r"),
    ("whitewine", "svm_c"), ("whitewine", "svm_r"),
]
SERVE_WARM_CIRCUITS = [
    ("redwine", "svm_r"), ("redwine", "mlp_c"), ("redwine", "svm_c"),
    ("whitewine", "svm_c"), ("whitewine", "mlp_r"), ("cardio", "svm_c"),
]
CLI_WARM_CIRCUITS = [
    ("redwine", "svm_r"), ("whitewine", "svm_c"), ("redwine", "mlp_c"),
    ("cardio", "mlp_r"),
]
TOY_CIRCUITS = [("redwine", "svm_r"), ("cardio", "svm_r")]
TOY_GRID = (0.9, 0.95, 0.99)
BASES = ("exact", "coeff")


@dataclass(frozen=True)
class Request:
    dataset: str
    model: str
    base: str
    toy: bool = False

    @property
    def name(self) -> str:
        grid = "toy" if self.toy else "paper"
        return f"{self.dataset}/{self.model}/{self.base}@{grid}"

    def manifest_entry(self) -> dict:
        entry = {"dataset": self.dataset, "model": self.model,
                 "base": self.base}
        if self.toy:
            entry["tau_grid"] = list(TOY_GRID)
        return entry

    def cli_args(self) -> list[str]:
        args = ["--dataset", self.dataset, "--model", self.model,
                "--base", self.base]
        if self.toy:
            args += ["--tau", *(str(tau) for tau in TOY_GRID)]
        return args


def request_set(workload: str, toy: bool) -> list[Request]:
    """The distinct requests a workload draws from (or populates)."""
    circuits = TOY_CIRCUITS if toy else {
        "explore-cold": PAPER_CIRCUITS, "serve-warm": SERVE_WARM_CIRCUITS,
        "cli-warm": CLI_WARM_CIRCUITS}[workload]
    bases = ("coeff",) if workload == "cli-warm" else BASES
    return [Request(dataset, model, base, toy)
            for dataset, model in circuits for base in bases]


class Order:
    """Seeded request order: shuffled rounds over the distinct set.

    Every round is a fresh seeded permutation of the set, so any prefix
    of whole rounds covers each request equally often.  With ``group``
    > 1 the set is permuted in runs of ``group`` consecutive requests
    that stay together in their listed order (explore-cold keeps each
    circuit's exact request before its coeff one).  ``taken`` records
    the indices handed out, for the run's output.
    """

    def __init__(self, requests: list[Request], seed: int,
                 group: int = 1) -> None:
        self.requests = requests
        self.group = group
        self._rng = random.Random(seed)
        self._round: list[int] = []
        self.taken: list[int] = []

    def next(self) -> Request:
        if not self._round:
            starts = range(0, len(self.requests), self.group)
            self._round = [start + offset
                           for start in self._rng.sample(starts, len(starts))
                           for offset in range(self.group)]
        index = self._round.pop(0)
        self.taken.append(index)
        return self.requests[index]

    def record(self) -> dict:
        return {"distinct": [req.name for req in self.requests],
                "order": self.taken}


def design_lines(payload: bytes) -> list[bytes]:
    return [line for line in payload.split(b"\n")
            if b'"type": "design"' in line]


def digest(lines: list[bytes]) -> str:
    return hashlib.sha256(b"\n".join(lines)).hexdigest()


def load_digests(path: Path = DIGESTS) -> dict:
    return json.loads(Path(path).read_text())


def check_output(payload: bytes, request: Request,
                 digests: dict) -> tuple[bool, int, str]:
    """``(ok, n_designs, reason)`` for one streamed or written result.

    A result passes when it ends in a ``summary`` line, carries no
    ``error`` line, and its design lines hash to the pinned digest.
    """
    lines = design_lines(payload)
    tail = payload.rstrip(b"\n").rsplit(b"\n", 1)[-1]
    if b'"type": "summary"' not in tail:
        return False, len(lines), "no summary line"
    if b'"type": "error"' in payload:
        return False, len(lines), "error line"
    pinned = digests.get(request.name)
    if pinned is None:
        return False, len(lines), "no pinned digest"
    if digest(lines) != pinned["sha256"] \
            or len(lines) != pinned["n_designs"]:
        return False, len(lines), "digest mismatch"
    return True, len(lines), ""
