"""Experiment E8 — paper Table I.

Ablation: break each winning hybrid model's FLOPs into encoding (Enc),
classical layers (CL) and the trainable quantum layer (QL).  The paper's
qualitative findings, which hold under every counting convention:

* Enc depends only on the qubit count — constant across feature sizes
  for a fixed circuit;
* CL grows linearly with the feature size (input layer);
* QL is constant for SEL (the same circuit solves every level) and grows
  for BEL only when the search had to enlarge the circuit;
* Enc+CL dominates the hybrid total (the simulation overhead the paper
  argues would vanish on fault-tolerant hardware with quantum-native
  data).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from ..core.experiment import ProtocolResult
from ..core.search_space import HybridSpec
from ..exceptions import ExperimentError
from ..flops.conventions import CountingConvention
from ..flops.formulas import hybrid_flops_breakdown
from .report import format_table
from .runner import RunProfile, run_family_cached

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.pool import PersistentPool

__all__ = [
    "AblationRow",
    "rows_from_protocol",
    "paper_reference_rows",
    "run",
    "render",
    "PAPER_TABLE1",
]


@dataclass(frozen=True)
class AblationRow:
    """One line of Table I."""

    ansatz: str
    feature_size: int
    n_qubits: int
    n_layers: int
    total: int
    enc_plus_cl: int
    cl: int
    enc: int
    ql: int

    @property
    def best_combination(self) -> str:
        return f"({self.n_qubits},{self.n_layers})"


#: The paper's published Table I (TF-profiler counts), for side-by-side
#: comparison in reports and in EXPERIMENTS.md.
PAPER_TABLE1: tuple[AblationRow, ...] = (
    AblationRow("bel", 10, 3, 2, 977, 749, 283, 466, 228),
    AblationRow("bel", 40, 3, 2, 1517, 1289, 823, 466, 228),
    AblationRow("bel", 80, 3, 4, 2537, 2009, 1543, 466, 528),
    AblationRow("bel", 110, 4, 4, 4797, 3901, 2769, 1132, 896),
    AblationRow("sel", 10, 3, 2, 1589, 749, 283, 466, 840),
    AblationRow("sel", 40, 3, 2, 2129, 1289, 823, 466, 840),
    AblationRow("sel", 80, 3, 2, 2849, 2009, 1543, 466, 840),
    AblationRow("sel", 110, 3, 2, 3389, 2549, 2083, 466, 840),
)


def row_for_spec(
    spec: HybridSpec, convention: str | CountingConvention = "paper"
) -> AblationRow:
    """Compute the Table I decomposition for one hybrid spec."""
    breakdown = hybrid_flops_breakdown(
        spec.n_features,
        spec.n_qubits,
        spec.n_layers,
        spec.ansatz,
        spec.n_classes,
        convention,
    )
    return AblationRow(
        ansatz=spec.ansatz,
        feature_size=spec.n_features,
        n_qubits=spec.n_qubits,
        n_layers=spec.n_layers,
        total=breakdown.total,
        enc_plus_cl=breakdown.encoding_plus_classical,
        cl=breakdown.classical,
        enc=breakdown.encoding,
        ql=breakdown.quantum,
    )


def rows_from_protocol(
    result: ProtocolResult,
    convention: str | CountingConvention = "paper",
) -> list[AblationRow]:
    """Decompose each level's smallest winning hybrid model."""
    if result.family not in ("bel", "sel"):
        raise ExperimentError(
            f"Table I applies to hybrid families, got {result.family!r}"
        )
    rows = []
    for lvl in result.levels:
        winner = lvl.smallest_winner
        if winner is None:
            continue
        spec = winner.spec
        if not isinstance(spec, HybridSpec):
            raise ExperimentError("hybrid protocol produced non-hybrid spec")
        rows.append(row_for_spec(spec, convention))
    return rows


def paper_reference_rows(ansatz: str | None = None) -> list[AblationRow]:
    """The published Table I, optionally filtered by ansatz."""
    if ansatz is None:
        return list(PAPER_TABLE1)
    return [r for r in PAPER_TABLE1 if r.ansatz == ansatz]


def run(
    profile: str | RunProfile = "smoke",
    cache_dir: str | Path | None = None,
    convention: str | CountingConvention = "paper",
    progress: Callable[[str], None] | None = None,
    pool: "PersistentPool | None" = None,
    **config_overrides,
) -> dict[str, list[AblationRow]]:
    """Run (or load) both hybrid protocols and decompose the winners."""
    out: dict[str, list[AblationRow]] = {}
    for family in ("bel", "sel"):
        result = run_family_cached(
            family,
            profile,
            cache_dir=cache_dir,
            progress=progress,
            pool=pool,
            **config_overrides,
        )
        out[family] = rows_from_protocol(result, convention)
    return out


def render(
    rows_by_family: dict[str, list[AblationRow]],
    include_paper_reference: bool = True,
) -> str:
    """Table I as text, optionally with the paper's numbers alongside."""
    blocks = [
        "Table I: FLOPs breakdown of hybrid networks "
        "(TF = Enc + CL + QL, per sample)"
    ]
    headers = ["model", "FS/BC", "TF", "Enc+CL", "CL", "Enc", "QL"]

    def to_table(rows: Sequence[AblationRow], title: str) -> str:
        body = [
            [
                f"hybrid({r.ansatz.upper()})",
                f"{r.feature_size}/{r.best_combination}",
                r.total,
                r.enc_plus_cl,
                r.cl,
                r.enc,
                r.ql,
            ]
            for r in rows
        ]
        return format_table(headers, body, title=title)

    for family, rows in rows_by_family.items():
        if rows:
            blocks.append(to_table(rows, f"measured ({family})"))
    if include_paper_reference:
        blocks.append(
            to_table(PAPER_TABLE1, "paper (TensorFlow profiler counts)")
        )
    return "\n\n".join(blocks)
