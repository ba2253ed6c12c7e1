//! Evaluation harness reproducing the paper's experimental results.
//!
//! The paper reports two result sets:
//!
//! * **Figure 2(c)** — the running example's register distributions and memory cycles
//!   for FR-RA, PR-RA and CPA-RA with the same register budget ([`figure2()`]),
//! * **Table 1** — six kernels × three design versions (`v1` = FR-RA, `v2` = PR-RA,
//!   `v3` = CPA-RA) with register distribution, execution cycles, clock period,
//!   wall-clock time, slices and BlockRAMs ([`table1()`]), plus the aggregate
//!   improvement percentages quoted in the text ([`Table1Summary`]).
//!
//! `srra table1` and `srra figure2` print these reproductions; the repository
//! benchmark under `perfbench/` times the pipeline layer by layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figure2;
pub mod table1;

pub use figure2::{figure2, render_figure2, Figure2Row};
pub use table1::{render_table1, summarize, table1, table1_for, Table1Row, Table1Summary};

use srra_core::{
    AllocError, AllocatorRef, CompiledKernel, MemoryCostModel, MemoryCostReport, RegisterAllocation,
};
use srra_fpga::{DeviceModel, EvaluationOptions, HardwareDesign};

/// Everything the harness derives for one (kernel, algorithm, budget) triple.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelOutcome {
    /// The register allocation computed by the algorithm.
    pub allocation: RegisterAllocation,
    /// The analytic memory-cycle report.
    pub cost: MemoryCostReport,
    /// The full hardware design-point estimate.
    pub design: HardwareDesign,
}

/// Runs the allocation → cost model → hardware design estimate pipeline against
/// a shared [`CompiledKernel`] context with default models.
///
/// The context's memoized artifacts (reuse analysis, data-flow graph, memory
/// stages) are computed on first use, so evaluating several (strategy, budget)
/// pairs of one kernel — as [`table1()`] and [`figure2()`] do — derives each
/// exactly once.
///
/// # Errors
///
/// Propagates [`AllocError`] from the allocation strategy (empty kernel or a
/// budget smaller than the number of references).
pub fn evaluate_compiled(
    kernel: &CompiledKernel,
    allocator: AllocatorRef,
    budget: u64,
) -> Result<KernelOutcome, AllocError> {
    let allocation = allocator.allocate(kernel, budget)?;
    let cost = kernel.memory_cost(&allocation, &MemoryCostModel::default());
    let design = HardwareDesign::evaluate_compiled(
        kernel,
        &allocation,
        &DeviceModel::xcv1000(),
        &EvaluationOptions::default(),
    );
    Ok(KernelOutcome {
        allocation,
        cost,
        design,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_core::AllocatorKind;
    use srra_ir::examples::paper_example;

    #[test]
    fn evaluate_compiled_runs_the_whole_pipeline() {
        let kernel = CompiledKernel::new(paper_example());
        let outcome = evaluate_compiled(&kernel, AllocatorKind::CriticalPathAware.into(), 64)
            .expect("pipeline runs");
        assert_eq!(outcome.allocation.total_registers(), 64);
        assert_eq!(outcome.cost.memory_cycles_per_outer_iteration, 1184);
        assert!(outcome.design.total_cycles > 0);
    }

    #[test]
    fn evaluate_compiled_propagates_budget_errors() {
        let kernel = CompiledKernel::new(paper_example());
        assert!(evaluate_compiled(&kernel, AllocatorKind::FullReuse.into(), 1).is_err());
    }
}
