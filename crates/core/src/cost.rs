//! Analytic memory-cycle cost model (`T_mem`) for a register allocation.
//!
//! The paper compares its allocation variants by the number of cycles the computation
//! spends on memory operations.  This module reproduces that metric with an explicit,
//! documented model:
//!
//! 1. The data-flow graph of the loop body is analysed with every reference in RAM; the
//!    reference nodes that lie on the resulting Critical Graph form the **memory
//!    stages** of an iteration (grouped by their position along the path).  References
//!    off the critical path (such as `c[j]` in the paper's example) overlap with
//!    datapath operations and do not add memory cycles.  The stages depend only on the
//!    kernel and the RAM latency, never on the allocation being costed, so a
//!    [`CompiledKernel`] memoizes them per RAM latency ([`MemoryStages`]) and every
//!    allocation of that kernel is costed against the same stages.
//! 2. For each reference, the allocation determines its **miss fraction**: 0 for full
//!    replacement (the steady state never touches RAM), `1 − β/R` for partial
//!    replacement and 1 when no reuse is captured.
//! 3. Accesses of the *same* stage that target different arrays proceed concurrently
//!    (they live in different RAM blocks), so a stage costs the *maximum* miss fraction
//!    over its arrays; accesses to the same array serialise and add up.
//! 4. `T_mem` is the per-iteration stage cost times the RAM latency times the number of
//!    innermost iterations.
//!
//! With the default parameters this reproduces the paper's Figure 2(c) numbers
//! (1,800 / 1,560 / 1,184 memory cycles per outer-loop iteration for FR-RA, PR-RA and
//! CPA-RA respectively).

use std::fmt;

use serde::{Deserialize, Serialize};
use srra_dfg::{CriticalPathAnalysis, DataFlowGraph, LatencyModel, StorageMap};
use srra_ir::{ArrayId, Kernel, RefId};
use srra_reuse::{remaining_accesses, ReuseAnalysis};

use crate::allocation::{RegisterAllocation, ReplacementMode};
use crate::context::CompiledKernel;

/// Parameters of the memory cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryCostModel {
    /// Latency of one RAM-block access in cycles.
    pub ram_latency: u64,
    /// When `true` (the default, matching the paper's configurable-architecture
    /// argument), accesses to distinct arrays within one stage proceed concurrently.
    pub concurrent_ram_access: bool,
}

impl Default for MemoryCostModel {
    fn default() -> Self {
        Self {
            ram_latency: 1,
            concurrent_ram_access: true,
        }
    }
}

impl MemoryCostModel {
    /// The largest RAM latency, in cycles, that the model accepts from a user.
    ///
    /// Path lengths and cycle totals are sums and products of the RAM latency; far
    /// above any real BlockRAM, a latency near `u64::MAX` overflows them.  Every
    /// entry point that takes a latency from outside (the serving protocol's
    /// `explore`/`mexplore` points and the CLI's `--latency`/`--latencies`) refuses a
    /// larger one with [`RamLatencyTooLarge`].  Latency 0 stays accepted.
    pub const MAX_RAM_LATENCY: u64 = 65_536;

    /// Returns a copy with a different RAM latency.
    #[must_use]
    pub fn with_ram_latency(mut self, cycles: u64) -> Self {
        self.ram_latency = cycles;
        self
    }

    /// Returns a copy with concurrent RAM access enabled or disabled.
    #[must_use]
    pub fn with_concurrency(mut self, enabled: bool) -> Self {
        self.concurrent_ram_access = enabled;
        self
    }

    /// Checks a user-supplied RAM latency against [`Self::MAX_RAM_LATENCY`].
    ///
    /// # Errors
    ///
    /// [`RamLatencyTooLarge`] when `cycles` exceeds the cap.
    pub fn check_ram_latency(cycles: u64) -> Result<u64, RamLatencyTooLarge> {
        if cycles > Self::MAX_RAM_LATENCY {
            Err(RamLatencyTooLarge { cycles })
        } else {
            Ok(cycles)
        }
    }
}

/// A RAM latency above [`MemoryCostModel::MAX_RAM_LATENCY`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RamLatencyTooLarge {
    /// The refused latency, in cycles.
    pub cycles: u64,
}

impl fmt::Display for RamLatencyTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RAM latency {} exceeds the cap of {} cycles",
            self.cycles,
            MemoryCostModel::MAX_RAM_LATENCY
        )
    }
}

impl std::error::Error for RamLatencyTooLarge {}

/// The memory stages of one loop-body iteration under one RAM latency: the
/// references on the all-RAM Critical Graph, grouped by their longest-path depth.
///
/// Only references the reuse analysis knows are kept.  Within a stage the
/// references are ordered by array (and by critical-graph node order within one
/// array), so the accesses that share a RAM block are adjacent.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryStages {
    stages: Vec<Vec<(ArrayId, RefId)>>,
}

impl MemoryStages {
    /// Derives the stages of `dfg` with every reference in RAM at `ram_latency`
    /// (0 is treated as 1).
    pub(crate) fn new(dfg: &DataFlowGraph, analysis: &ReuseAnalysis, ram_latency: u64) -> Self {
        // The memory stages are a structural property of the computation: they are
        // derived from the critical graph of the all-RAM configuration so that the same
        // stages are compared across allocations.
        let structural = CriticalPathAnalysis::new(
            dfg,
            &LatencyModel::default().with_ram_latency(ram_latency.max(1)),
            &StorageMap::all_ram(),
        );
        // Group the critical reference nodes by their longest-path position (depth),
        // which corresponds to the order in which an iteration needs the data.
        let mut by_depth: Vec<(u64, ArrayId, RefId)> = structural
            .critical_graph()
            .nodes()
            .iter()
            .filter_map(|&node| {
                let ref_id = dfg.node(node).reference()?;
                let array = analysis.get(ref_id)?.array();
                Some((structural.longest_to(node), array, ref_id))
            })
            .collect();
        // Stable: references of one array keep their node order.
        by_depth.sort_by_key(|&(depth, array, _)| (depth, array));
        let stages = runs(&by_depth, |&(depth, _, _)| depth)
            .map(|stage| stage.iter().map(|&(_, array, r)| (array, r)).collect())
            .collect();
        Self { stages }
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Returns `true` when no reference lies on the critical graph.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

/// Splits `items` into maximal runs of equal `key` (`slice::chunk_by`, which is
/// newer than the workspace's minimum Rust version).
fn runs<T, K: PartialEq>(items: &[T], key: impl Fn(&T) -> K) -> impl Iterator<Item = &[T]> {
    let mut rest = items;
    std::iter::from_fn(move || {
        let first = key(rest.first()?);
        let len = rest.iter().take_while(|item| key(item) == first).count();
        let (run, tail) = rest.split_at(len);
        rest = tail;
        Some(run)
    })
}

/// Cost contribution of one memory stage of the loop body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageCost {
    /// References participating in the stage, grouped by array.
    pub references: Vec<RefId>,
    /// Expected RAM cycles the stage contributes per innermost iteration.
    pub cycles_per_iteration: f64,
}

impl StageCost {
    /// The stage's references rendered with loop names, e.g. `a[k]`.
    pub fn reference_names<'a>(&self, analysis: &'a ReuseAnalysis) -> Vec<&'a str> {
        self.references
            .iter()
            .filter_map(|r| analysis.get(*r))
            .map(|s| s.rendered())
            .collect()
    }
}

/// The result of costing an allocation with [`memory_cost`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryCostReport {
    /// Total memory cycles over the whole loop execution (`T_mem`).
    pub memory_cycles: u64,
    /// Memory cycles per iteration of the outermost loop (the figure the paper quotes
    /// for its running example).
    pub memory_cycles_per_outer_iteration: u64,
    /// Expected memory cycles per innermost iteration.
    pub cycles_per_iteration: f64,
    /// Breakdown by memory stage.
    pub stages: Vec<StageCost>,
    /// Memory accesses remaining over the whole execution (all references, including
    /// those off the critical path).
    pub remaining_accesses: u64,
    /// Memory accesses eliminated relative to the untransformed code.
    pub eliminated_accesses: u64,
}

/// Miss fraction of a reference under the given allocation: the share of its dynamic
/// accesses that still go to RAM in steady state.
pub(crate) fn miss_fraction(
    analysis: &ReuseAnalysis,
    allocation: &RegisterAllocation,
    ref_id: RefId,
) -> f64 {
    let Some(summary) = analysis.get(ref_id) else {
        return 1.0;
    };
    let Some(decision) = allocation.get(ref_id) else {
        return 1.0;
    };
    if !summary.has_reuse() {
        return 1.0;
    }
    match decision.mode() {
        ReplacementMode::None => 1.0,
        ReplacementMode::Full => 0.0,
        ReplacementMode::Partial => {
            1.0 - (decision.beta() as f64 / summary.registers_full().max(1) as f64).clamp(0.0, 1.0)
        }
    }
}

/// Computes the memory-cycle cost (`T_mem`) of an allocation.
///
/// See the module documentation for the model.  The report also includes the raw
/// remaining/eliminated access counts, which the FPGA model and the Table 1 harness
/// reuse.  This derives the kernel's memory stages afresh; costing several
/// allocations of one kernel through [`CompiledKernel::memory_cost`] derives them
/// once.
pub fn memory_cost(
    kernel: &Kernel,
    analysis: &ReuseAnalysis,
    allocation: &RegisterAllocation,
    model: &MemoryCostModel,
) -> MemoryCostReport {
    let stages = MemoryStages::new(
        &DataFlowGraph::from_kernel(kernel),
        analysis,
        model.ram_latency,
    );
    cost_against(kernel, analysis, &stages, allocation, model)
}

impl CompiledKernel {
    /// [`memory_cost`] of an allocation of this kernel, against the memoized
    /// memory stages of the model's RAM latency.
    pub fn memory_cost(
        &self,
        allocation: &RegisterAllocation,
        model: &MemoryCostModel,
    ) -> MemoryCostReport {
        let stages = self.memory_stages(model.ram_latency);
        cost_against(self.kernel(), self.analysis(), &stages, allocation, model)
    }
}

fn cost_against(
    kernel: &Kernel,
    analysis: &ReuseAnalysis,
    stages: &MemoryStages,
    allocation: &RegisterAllocation,
    model: &MemoryCostModel,
) -> MemoryCostReport {
    let mut stage_costs = Vec::with_capacity(stages.len());
    let mut cycles_per_iteration = 0.0f64;
    for stage in &stages.stages {
        // Concurrency applies across different arrays; accesses to the same array
        // serialise on its RAM block port.
        let per_array = runs(stage, |&(array, _)| array).map(|refs| {
            refs.iter().fold(0.0f64, |sum, &(_, ref_id)| {
                sum + miss_fraction(analysis, allocation, ref_id)
            })
        });
        let stage_fraction = if model.concurrent_ram_access {
            per_array.fold(0.0f64, f64::max)
        } else {
            per_array.sum()
        };
        let cycles = stage_fraction * model.ram_latency as f64;
        cycles_per_iteration += cycles;
        stage_costs.push(StageCost {
            references: stage.iter().map(|&(_, ref_id)| ref_id).collect(),
            cycles_per_iteration: cycles,
        });
    }

    let total_iterations = kernel.nest().total_iterations();
    let outer_trip = kernel
        .nest()
        .trip_counts()
        .first()
        .copied()
        .unwrap_or(1)
        .max(1);
    let memory_cycles = (cycles_per_iteration * total_iterations as f64).round() as u64;

    let mut remaining = 0u64;
    let mut total = 0u64;
    for summary in analysis.iter() {
        total += summary.access_counts().total;
        let decision_mode = allocation
            .get(summary.ref_id())
            .map(|d| d.mode())
            .unwrap_or(ReplacementMode::None);
        let beta = allocation.beta(summary.ref_id());
        remaining += match decision_mode {
            ReplacementMode::None => summary.access_counts().total,
            ReplacementMode::Full => summary.access_counts().essential,
            ReplacementMode::Partial => remaining_accesses(summary, beta),
        };
    }

    MemoryCostReport {
        memory_cycles,
        memory_cycles_per_outer_iteration: memory_cycles / outer_trip,
        cycles_per_iteration,
        stages: stage_costs,
        remaining_accesses: remaining,
        eliminated_accesses: total.saturating_sub(remaining),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{allocate, AllocatorKind};
    use srra_ir::examples::paper_example;

    fn report(kind: AllocatorKind, budget: u64) -> MemoryCostReport {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = allocate(kind, &kernel, &analysis, budget).unwrap();
        memory_cost(&kernel, &analysis, &allocation, &MemoryCostModel::default())
    }

    #[test]
    fn reproduces_the_figure_2c_memory_cycles() {
        // The paper quotes the memory cycles for one iteration of the outer loop:
        // 1,800 for FR-RA, 1,560 for PR-RA and 1,184 for CPA-RA with 64 registers.
        assert_eq!(
            report(AllocatorKind::FullReuse, 64).memory_cycles_per_outer_iteration,
            1800
        );
        assert_eq!(
            report(AllocatorKind::PartialReuse, 64).memory_cycles_per_outer_iteration,
            1560
        );
        assert_eq!(
            report(AllocatorKind::CriticalPathAware, 64).memory_cycles_per_outer_iteration,
            1184
        );
    }

    #[test]
    fn cpa_never_loses_to_the_greedy_variants() {
        for budget in [8, 16, 32, 64, 128] {
            let fr = report(AllocatorKind::FullReuse, budget).memory_cycles;
            let pr = report(AllocatorKind::PartialReuse, budget).memory_cycles;
            let cpa = report(AllocatorKind::CriticalPathAware, budget).memory_cycles;
            assert!(pr <= fr, "budget {budget}: PR {pr} vs FR {fr}");
            assert!(cpa <= pr, "budget {budget}: CPA {cpa} vs PR {pr}");
        }
    }

    #[test]
    fn baseline_has_the_highest_cost_and_no_elimination() {
        let base = report(AllocatorKind::NoReplacement, 64);
        let cpa = report(AllocatorKind::CriticalPathAware, 64);
        assert!(base.memory_cycles >= cpa.memory_cycles);
        assert_eq!(base.eliminated_accesses, 0);
        assert!(cpa.eliminated_accesses > 0);
    }

    #[test]
    fn stage_breakdown_covers_the_critical_references() {
        let r = report(AllocatorKind::NoReplacement, 64);
        // Stages: {a, b}, {d}, {e}; c is off the critical path.
        assert_eq!(r.stages.len(), 3);
        let analysis = ReuseAnalysis::of(&paper_example());
        let all_refs: Vec<&str> = r
            .stages
            .iter()
            .flat_map(|s| s.reference_names(&analysis))
            .collect();
        assert!(all_refs.contains(&"a[k]"));
        assert!(all_refs.contains(&"d[i][k]"));
        assert!(!all_refs.contains(&"c[j]"));
    }

    #[test]
    fn serial_model_is_never_cheaper_than_concurrent() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation =
            allocate(AllocatorKind::CriticalPathAware, &kernel, &analysis, 64).unwrap();
        let concurrent = memory_cost(&kernel, &analysis, &allocation, &MemoryCostModel::default());
        let serial = memory_cost(
            &kernel,
            &analysis,
            &allocation,
            &MemoryCostModel::default().with_concurrency(false),
        );
        assert!(serial.memory_cycles >= concurrent.memory_cycles);
    }

    #[test]
    fn ram_latency_scales_the_cost_linearly() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = allocate(AllocatorKind::FullReuse, &kernel, &analysis, 64).unwrap();
        let lat1 = memory_cost(&kernel, &analysis, &allocation, &MemoryCostModel::default());
        let lat3 = memory_cost(
            &kernel,
            &analysis,
            &allocation,
            &MemoryCostModel::default().with_ram_latency(3),
        );
        assert_eq!(lat3.memory_cycles, 3 * lat1.memory_cycles);
    }
}
