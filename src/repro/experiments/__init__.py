"""Experiment drivers — one module per paper figure/table.

========  =======================================  =========================
Driver    Paper artifact                           What it regenerates
========  =======================================  =========================
fig4      Fig. 4(b)                                dataset-complexity probe
fig6      Fig. 6                                   classical winners' FLOPs
fig7      Fig. 7                                   hybrid-BEL winners' FLOPs
fig8      Fig. 8                                   hybrid-SEL winners' FLOPs
fig9      Fig. 9                                   winners' parameter counts
fig10     Fig. 10(a,b)                             rate-of-increase analysis
table1    Table I                                  Enc/CL/QL FLOPs ablation
========  =======================================  =========================

Every driver exposes ``run(profile, ...)`` returning structured results
and ``render(...)`` producing the paper-style text table.

Figure modules load on first use (see :mod:`repro._lazy`), so running one
figure imports no other; a new public name goes in the table below.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "runner": (
            "RunProfile",
            "SMOKE",
            "REDUCED",
            "FULL",
            "PROFILES",
            "get_profile",
            "run_family",
            "run_family_cached",
        ),
    },
    submodules=(
        "fig4_dataset_complexity",
        "fig6_classical_flops",
        "fig7_bel_flops",
        "fig8_sel_flops",
        "fig9_parameters",
        "fig10_comparative",
        "table1_ablation",
        "report",
    ),
)
