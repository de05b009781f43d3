"""Correctness checks on every solve the benchmark runs.

A solve that fails a check counts as a failed solve in the result line; it
never stops the benchmark.  The checks read only plain arrays, so they can be
fed fabricated results in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Acceptance criterion 4: the smallest decrease slack may dip below zero by
# this share of the starting objective (at least of 1.0).
SLACK_FLOOR_FACTOR = 1e-6


@dataclass
class SolveRecord:
    """One ``plm_solve`` call: its inputs, output and trace columns.

    ``psnr_floor`` is set on final restorations only (the ones whose PSNR and
    objective the benchmark reports); warm starts carry ``None``.
    """

    p: float
    eps_support: float
    noisy: np.ndarray
    restored: np.ndarray
    clean: np.ndarray
    converged: bool
    support_sizes: np.ndarray
    slacks: np.ndarray
    objective_start: float
    inner_iterations: np.ndarray
    inner_converged: np.ndarray
    objective: float = math.nan
    psnr_floor: float | None = None

    @property
    def final(self) -> bool:
        return self.psnr_floor is not None


def pooled_psnr_db(pairs) -> float:
    """PSNR on the [0, 1] scale of (restored, clean) pairs taken together,
    each restoration clamped as the experiment harness does.

    Pooling the squared errors keeps a nearly exact restoration (whose own
    PSNR can read 140 dB) from dominating the figure, as it would a mean of
    per-image PSNRs.
    """
    diff2 = sum(float(np.sum((np.clip(restored, 0.0, 1.0) - clean) ** 2))
                for restored, clean in pairs)
    count = sum(clean.size for _, clean in pairs)
    if diff2 == 0.0:
        return math.inf
    return 10.0 * math.log10(count / diff2)


def psnr_db(restored: np.ndarray, clean: np.ndarray) -> float:
    return pooled_psnr_db([(restored, clean)])


def smallest_nonzero_residual(restored: np.ndarray, noisy: np.ndarray) -> float:
    residual = np.abs(restored - noisy)
    nonzero = residual[residual > 0.0]
    return float(nonzero.min()) if nonzero.size else math.inf


def solve_failures(rec: SolveRecord) -> list[str]:
    """Reasons the solve counts as failed; empty when it passes."""
    reasons = []
    if not np.all(np.isfinite(rec.restored)):
        reasons.append("non-finite output")
    if not rec.converged:
        reasons.append("outer loop did not converge")
    if np.any(np.diff(rec.support_sizes) > 0):
        reasons.append("support grew along the trace")
    if rec.slacks.size:
        floor = -SLACK_FLOOR_FACTOR * max(1.0, rec.objective_start)
        if float(rec.slacks.min()) < floor:
            reasons.append(f"decrease slack {rec.slacks.min():.3g} below {floor:.3g}")
    if rec.p < 1.0:
        gap = smallest_nonzero_residual(rec.restored, rec.noisy)
        if not gap > rec.eps_support:
            reasons.append(f"nonzero residual {gap:.3g} not above eps "
                           f"{rec.eps_support:g}")
    if rec.final:
        quality = psnr_db(rec.restored, rec.clean)
        if not quality >= rec.psnr_floor:
            reasons.append(f"PSNR {quality:.3f} dB below floor {rec.psnr_floor:g}")
    return reasons


def results_csv_failures(path: str, expected_rows: int) -> list[str]:
    """Checks on the CLI's results.csv: row count and finite PSNR column."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
    except OSError as exc:
        return [f"results.csv unreadable: {exc}"]
    rows = lines[1:]
    reasons = []
    if len(rows) != expected_rows:
        reasons.append(f"results.csv has {len(rows)} rows, expected {expected_rows}")
    header = lines[0].split(",") if lines else []
    if "psnr_db" not in header:
        return reasons + ["results.csv has no psnr_db column"]
    column = header.index("psnr_db")
    for row in rows:
        try:
            value = float(row.split(",")[column])
        except (IndexError, ValueError):
            value = math.nan
        if not math.isfinite(value):
            reasons.append(f"results.csv row with bad psnr_db: {row!r}")
    return reasons
