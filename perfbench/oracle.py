"""Output oracles for the batch workloads, run after the timed process.

* exact-topk: ``repro truth`` with ``--engine csr`` on the same file must
  print exactly the same bytes as the default engine did.
* budgeted-topk: every printed pair's d1, d2 and Δ are recomputed with
  :func:`repro.core.pairs.pair_delta` (and single-source distances), the
  pairs must come best Δ first, and the budget line must show at most 2m
  SSSPs against a limit of 2m.

Each returns a reason string for a wrong output and ``None`` otherwise.
"""

from __future__ import annotations

import contextlib
import io
import re
from typing import Dict, Optional, Tuple

import repro.cli as cli
from repro.core.pairs import pair_delta
from repro.datasets import io as dio
from repro.datasets.splits import EVAL_SPLIT
from repro.graph.traversal import single_source_distances

_BUDGET = re.compile(r"^budget: (\d+)/(\d+) SSSPs (\{.*\})$")
_TOL = 1e-4


def cli_output(argv) -> Tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


class ExactOracle:
    """Reference bytes from the csr engine, computed once per command."""

    def __init__(self) -> None:
        self._expected: Dict[tuple, str] = {}

    def check(self, argv, stdout: str) -> Optional[str]:
        key = tuple(argv)
        if key not in self._expected:
            code, expected = cli_output(list(argv) + ["--engine", "csr"])
            if code != 0:
                return f"csr engine exited {code}"
            self._expected[key] = expected
        if stdout != self._expected[key]:
            return "output differs from --engine csr"
        return None


class BudgetedOracle:
    """Recomputes every printed pair on the same snapshot pair."""

    def __init__(self) -> None:
        self._snapshots: Dict[str, tuple] = {}
        self._verdicts: Dict[tuple, Optional[str]] = {}

    def check(self, argv, stdout: str) -> Optional[str]:
        key = (tuple(argv), stdout)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(argv, stdout)
        return self._verdicts[key]

    def _check(self, argv, stdout: str) -> Optional[str]:
        path = argv[1]
        m = int(argv[argv.index("--m") + 1])
        k = int(argv[argv.index("--k") + 1])
        lines = stdout.splitlines()
        match = _BUDGET.match(lines[0]) if lines else None
        if match is None:
            return "no budget line"
        spent, limit = int(match.group(1)), int(match.group(2))
        if limit != 2 * m or spent > 2 * m:
            return f"budget {spent}/{limit} breaks 2m = {2 * m}"
        rows = [
            line.split() for line in lines[3:]
            if line.strip() and not line.startswith("...")
        ]
        if len(rows) != k:
            return f"printed {len(rows)} pairs, expected k = {k}"
        if path not in self._snapshots:
            temporal = dio.read_edge_stream(path)
            self._snapshots[path] = temporal.snapshot_pair(*EVAL_SPLIT)
        g1, g2 = self._snapshots[path]
        last = float("inf")
        for u_text, v_text, d1_text, d2_text, delta_text in rows:
            u, v = int(u_text), int(v_text)
            d1, d2, delta = float(d1_text), float(d2_text), float(delta_text)
            exact = pair_delta(g1, g2, u, v)
            if exact is None or not _close(delta, exact):
                return f"pair ({u}, {v}): printed Δ {delta}, exact {exact}"
            true_d1 = single_source_distances(g1, u).get(v)
            true_d2 = single_source_distances(g2, u).get(v)
            if not (_close(d1, true_d1) and _close(d2, true_d2)):
                return f"pair ({u}, {v}): printed distances are wrong"
            if delta > last + _TOL:
                return "pairs are not ordered best Δ first"
            last = delta
        return None


def _close(printed: float, exact: Optional[float]) -> bool:
    # Printed with %g (six significant digits).
    return exact is not None and abs(printed - exact) <= _TOL * max(1.0, abs(exact))
