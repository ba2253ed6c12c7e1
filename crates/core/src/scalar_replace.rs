//! Scalar-replacement planning: turning a register allocation into the quantities a
//! code generator (or, here, the FPGA design model) needs.
//!
//! The paper deliberately leaves the concrete code-generation scheme (loop peeling or
//! predication) out of scope and keeps the control structure identical across its
//! design versions.  We mirror that decision: instead of emitting transformed C, the
//! [`ReplacementPlan`] records, per reference,
//!
//! * how many rotation registers hold its working set (`β`),
//! * how many **prologue loads** fill those registers before the steady state,
//! * how many **epilogue stores** drain register-resident results back to RAM, and
//! * the steady-state **miss fraction** (the share of accesses that still reach RAM).
//!
//! `srra-fpga` consumes these numbers to account for peeled iterations, register area
//! and RAM traffic without simulating the transformed source text.

use srra_ir::{Kernel, RefId, ReferenceTable};
use srra_reuse::ReuseAnalysis;

use crate::allocation::{RegisterAllocation, ReplacementMode};
use crate::context::CompiledKernel;
use crate::cost::miss_fraction;

/// Per-reference slice of a [`ReplacementPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct RefPlan {
    /// The reference group.
    pub ref_id: RefId,
    /// Name of the referenced array.
    pub array_name: String,
    /// The reference rendered with loop names.
    pub rendered: String,
    /// Registers assigned (`β`).
    pub beta: u64,
    /// Registers a full replacement would need (`R`).
    pub registers_full: u64,
    /// How the reference is implemented.
    pub mode: ReplacementMode,
    /// Width of one element in bits.
    pub elem_bits: u32,
    /// RAM loads required to warm the registers up before the steady state (whole
    /// execution, i.e. once per traversal of the reuse loop).
    pub prologue_loads: u64,
    /// RAM stores required to drain register-resident results after the steady state.
    pub epilogue_stores: u64,
    /// Fraction of steady-state accesses that still go to RAM.
    pub steady_miss: f64,
}

impl RefPlan {
    /// Total register bits this reference occupies (`β × element width`).
    pub fn register_bits(&self) -> u64 {
        self.beta * u64::from(self.elem_bits)
    }
}

/// A complete scalar-replacement plan for one kernel and allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplacementPlan {
    kernel_name: String,
    refs: Vec<RefPlan>,
}

impl ReplacementPlan {
    /// Builds the plan for an allocation.
    ///
    /// This derives the kernel's reference table afresh; planning several
    /// allocations of one kernel through [`CompiledKernel::replacement_plan`]
    /// derives it once.
    pub fn new(kernel: &Kernel, analysis: &ReuseAnalysis, allocation: &RegisterAllocation) -> Self {
        Self::build(
            kernel.name(),
            &kernel.reference_table(),
            analysis,
            allocation,
        )
    }

    fn build(
        kernel_name: &str,
        table: &ReferenceTable,
        analysis: &ReuseAnalysis,
        allocation: &RegisterAllocation,
    ) -> Self {
        let refs = analysis
            .iter()
            .map(|summary| {
                let beta = allocation.beta(summary.ref_id());
                let mode = allocation
                    .get(summary.ref_id())
                    .map(|d| d.mode())
                    .unwrap_or(ReplacementMode::None);
                let info = table.get(summary.ref_id());
                let has_read = info.map(|i| i.has_read()).unwrap_or(false);
                let has_write = info.map(|i| i.has_write()).unwrap_or(false);
                // Essential transfers are charged to the prologue (loads) for read
                // references and to the epilogue (stores) for written references; a
                // reference that is only read never needs an epilogue and vice versa.
                let essential = match mode {
                    ReplacementMode::None => 0,
                    ReplacementMode::Full => summary.access_counts().essential,
                    ReplacementMode::Partial => {
                        // Only the register-resident share is warmed up / drained.
                        let frac = beta as f64 / summary.registers_full().max(1) as f64;
                        (summary.access_counts().essential as f64 * frac.clamp(0.0, 1.0)).round()
                            as u64
                    }
                };
                let (prologue_loads, epilogue_stores) = if has_write {
                    (0, essential)
                } else if has_read {
                    (essential, 0)
                } else {
                    (0, 0)
                };
                RefPlan {
                    ref_id: summary.ref_id(),
                    array_name: summary.array_name().to_owned(),
                    rendered: summary.rendered().to_owned(),
                    beta,
                    registers_full: summary.registers_full(),
                    mode,
                    elem_bits: summary.elem_bits(),
                    prologue_loads,
                    epilogue_stores,
                    steady_miss: miss_fraction(analysis, allocation, summary.ref_id()),
                }
            })
            .collect();
        Self {
            kernel_name: kernel_name.to_owned(),
            refs,
        }
    }

    /// Name of the kernel the plan was computed for.
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    /// Per-reference plans in reference-table order.
    pub fn refs(&self) -> &[RefPlan] {
        &self.refs
    }

    /// The plan for one reference group.
    pub fn get(&self, ref_id: RefId) -> Option<&RefPlan> {
        self.refs.iter().find(|r| r.ref_id == ref_id)
    }

    /// Total registers used by the plan.
    pub fn total_registers(&self) -> u64 {
        self.refs.iter().map(|r| r.beta).sum()
    }

    /// Total register bits (flip-flops) used by the plan; drives the area model.
    pub fn total_register_bits(&self) -> u64 {
        self.refs.iter().map(RefPlan::register_bits).sum()
    }

    /// Total prologue loads across all references.
    pub fn total_prologue_loads(&self) -> u64 {
        self.refs.iter().map(|r| r.prologue_loads).sum()
    }

    /// Total epilogue stores across all references.
    pub fn total_epilogue_stores(&self) -> u64 {
        self.refs.iter().map(|r| r.epilogue_stores).sum()
    }

    /// Number of references that keep using their RAM block in steady state.
    pub fn ram_resident_refs(&self) -> usize {
        self.refs.iter().filter(|r| r.steady_miss > 0.0).count()
    }
}

impl CompiledKernel {
    /// [`ReplacementPlan::new`] for an allocation of this kernel, against the
    /// memoized reference table and reuse analysis.
    pub fn replacement_plan(&self, allocation: &RegisterAllocation) -> ReplacementPlan {
        ReplacementPlan::build(self.name(), self.references(), self.analysis(), allocation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{allocate, AllocatorKind};
    use srra_ir::examples::paper_example;

    fn plan(kind: AllocatorKind, budget: u64) -> ReplacementPlan {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = allocate(kind, &kernel, &analysis, budget).unwrap();
        ReplacementPlan::new(&kernel, &analysis, &allocation)
    }

    #[test]
    fn plan_totals_match_the_allocation() {
        let p = plan(AllocatorKind::CriticalPathAware, 64);
        assert_eq!(p.kernel_name(), "paper_example");
        assert_eq!(p.total_registers(), 64);
        assert_eq!(p.total_register_bits(), 64 * 16);
        assert_eq!(p.refs().len(), 5);
    }

    #[test]
    fn read_only_references_warm_up_and_written_references_drain() {
        let p = plan(AllocatorKind::FullReuse, 64);
        // a is read-only and fully replaced: 30 essential loads, no stores.
        let a = p.refs().iter().find(|r| r.array_name == "a").unwrap();
        assert_eq!(a.prologue_loads, 30);
        assert_eq!(a.epilogue_stores, 0);
        assert_eq!(a.steady_miss, 0.0);
        // d is written: with FR-RA it is not replaced, so no prologue/epilogue at all.
        let d = p.refs().iter().find(|r| r.array_name == "d").unwrap();
        assert_eq!(d.prologue_loads + d.epilogue_stores, 0);
        assert_eq!(d.steady_miss, 1.0);
    }

    #[test]
    fn partial_replacement_scales_the_prologue() {
        let p = plan(AllocatorKind::PartialReuse, 64);
        let d = p.refs().iter().find(|r| r.array_name == "d").unwrap();
        assert_eq!(d.beta, 12);
        assert!(d.epilogue_stores > 0);
        assert!(d.epilogue_stores < 60);
        assert!((d.steady_miss - 0.6).abs() < 1e-9);
    }

    #[test]
    fn ram_resident_count_reflects_steady_misses() {
        let base = plan(AllocatorKind::NoReplacement, 0);
        assert_eq!(base.ram_resident_refs(), 5);
        let cpa = plan(AllocatorKind::CriticalPathAware, 64);
        // d is fully register resident; a, b partial; c, e still RAM resident.
        assert_eq!(cpa.ram_resident_refs(), 4);
        assert!(cpa.get(cpa.refs()[0].ref_id).is_some());
    }
}
