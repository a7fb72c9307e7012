"""Experiment drivers: one module per table/figure of the paper plus ablations."""

from repro.experiments.ablation import (
    AblationRow,
    VectorisationResult,
    ablation_checks,
    run_rtoss_ablation,
    run_vectorisation_ablation,
)
from repro.experiments.comparison_suite import clear_cache, comparison_results
from repro.experiments.fig8 import Fig8Row, fig8_checks, run_fig8
from repro.experiments.figures import (
    fig4_checks,
    fig5_checks,
    fig6_checks,
    fig7_checks,
    run_fig4_sparsity,
    run_fig5_map,
    run_fig6_speedup,
    run_fig7_energy,
)
from repro.experiments.motivation import (
    KernelCensus,
    census_for_model,
    motivation_checks,
    run_kernel_census,
)
from repro.experiments.table1 import Table1Row, run_table1, table1_checks
from repro.experiments.table2 import Table2Row, run_table2, table2_checks
from repro.experiments.table3 import (
    PAPER_TABLE3,
    RETINANET_DENSE_LAYERS,
    Table3Row,
    run_table3,
    table3_checks,
)
from repro.experiments.training import (
    PruneFinetuneOutcome,
    TinyTrainingConfig,
    TinyTrainingResult,
    evaluate_tiny_map,
    prune_and_finetune,
    train_tiny_detector,
)

__all__ = [
    "AblationRow", "VectorisationResult", "ablation_checks", "run_rtoss_ablation",
    "run_vectorisation_ablation",
    "clear_cache", "comparison_results",
    "Fig8Row", "fig8_checks", "run_fig8",
    "fig4_checks", "fig5_checks", "fig6_checks", "fig7_checks",
    "run_fig4_sparsity", "run_fig5_map", "run_fig6_speedup", "run_fig7_energy",
    "KernelCensus", "census_for_model", "motivation_checks", "run_kernel_census",
    "Table1Row", "run_table1", "table1_checks",
    "Table2Row", "run_table2", "table2_checks",
    "PAPER_TABLE3", "RETINANET_DENSE_LAYERS", "Table3Row", "run_table3", "table3_checks",
    "PruneFinetuneOutcome", "TinyTrainingConfig", "TinyTrainingResult",
    "evaluate_tiny_map", "prune_and_finetune", "train_tiny_detector",
]
