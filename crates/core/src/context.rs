//! The shared, lazily-memoized model context for one kernel.
//!
//! Every layer of the pipeline — the allocators, the cost model, the hardware
//! evaluation, the exploration engine, the bench harness, the CLI — needs the
//! same derived artifacts for a kernel.  Before [`CompiledKernel`] existed each
//! call site re-derived them, so a sweep over N design points of one kernel paid
//! for N analyses, N data-flow graphs and N critical-path analyses.
//!
//! A [`CompiledKernel`] bundles the kernel with [`OnceLock`]-memoized slots for
//! each allocation-independent artifact: the first accessor call computes, every
//! later call (from any thread — the type is `Sync`) returns the cached value.
//! Nothing is computed when the context is built.  Cloning preserves whatever is
//! already memoized.  The memoized artifacts are:
//!
//! * [`CompiledKernel::references`] — the kernel's reference table,
//! * [`CompiledKernel::analysis`] — the data-reuse analysis (`R_i`, access
//!   counts, benefit/cost ratios),
//! * [`CompiledKernel::dfg`] — the data-flow graph of one loop-body iteration,
//! * [`CompiledKernel::critical_path`] — the baseline critical-path analysis
//!   (default latency model, every reference in RAM), the starting point of
//!   CPA-RA and of the Graphviz dumps,
//! * [`CompiledKernel::memory_stages`] — the cost model's memory stages, one
//!   slot per RAM latency up to [`CompiledKernel::MEMORY_STAGE_SLOTS`].  A larger
//!   latency is derived on every call and never stored, so a long-lived context
//!   fed client-chosen latencies stays the same size.
//!
//! Allocation-*dependent* artifacts (the allocation itself, its replacement
//! plan, storage maps, per-iteration critical graphs inside CPA-RA, the cost of
//! each stage) are recomputed on every call; memoizing them would change
//! results as the allocator iterates.
//!
//! ```
//! use srra_core::CompiledKernel;
//! use srra_ir::examples::paper_example;
//!
//! let ck = CompiledKernel::new(paper_example());
//! let first = ck.analysis();
//! let second = ck.analysis(); // memoized: same allocation, no recomputation
//! assert!(std::ptr::eq(first, second));
//! assert!(ck.critical_path().critical_length() > 0);
//! ```

use std::borrow::Cow;
use std::sync::OnceLock;

use srra_dfg::{CriticalPathAnalysis, DataFlowGraph, LatencyModel, StorageMap};
use srra_ir::{Kernel, ReferenceTable};
use srra_reuse::ReuseAnalysis;

use crate::cost::MemoryStages;

const STAGE_SLOTS: usize = 8;

/// A kernel plus lazily-memoized, allocation-independent model artifacts,
/// shared across the pipeline: its reference table, reuse analysis, data-flow
/// graph, baseline critical path and the cost model's memory stages per RAM
/// latency.  Each is computed on first use, never when the context is built.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    kernel: Kernel,
    references: OnceLock<ReferenceTable>,
    analysis: OnceLock<ReuseAnalysis>,
    dfg: OnceLock<DataFlowGraph>,
    critical: OnceLock<CriticalPathAnalysis>,
    /// Slot `i` holds the memory stages of RAM latency `i + 1` (latency 0 shares
    /// latency 1's stages, as the cost model treats it as 1).
    stages: [OnceLock<MemoryStages>; STAGE_SLOTS],
}

impl CompiledKernel {
    /// RAM latencies `0..=MEMORY_STAGE_SLOTS` have their memory stages
    /// memoized; larger ones are derived on every call.
    pub const MEMORY_STAGE_SLOTS: u64 = STAGE_SLOTS as u64;

    /// Wraps a kernel with empty memoization slots.
    pub fn new(kernel: Kernel) -> Self {
        Self {
            kernel,
            references: OnceLock::new(),
            analysis: OnceLock::new(),
            dfg: OnceLock::new(),
            critical: OnceLock::new(),
            stages: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Wraps a kernel with the reuse-analysis slot pre-seeded.
    ///
    /// This is the compatibility path for callers that already computed an
    /// analysis (the old `allocate(kind, kernel, analysis, budget)` entry
    /// point): no recomputation happens when the allocator asks for it.
    pub fn with_analysis(kernel: Kernel, analysis: ReuseAnalysis) -> Self {
        let ck = Self::new(kernel);
        ck.analysis
            .set(analysis)
            .expect("fresh CompiledKernel has an empty analysis slot");
        ck
    }

    /// The wrapped kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Name of the wrapped kernel.
    pub fn name(&self) -> &str {
        self.kernel.name()
    }

    /// The kernel's reference table, computed on first use.
    pub fn references(&self) -> &ReferenceTable {
        self.references
            .get_or_init(|| self.kernel.reference_table())
    }

    /// The kernel's reuse analysis, computed on first use.
    pub fn analysis(&self) -> &ReuseAnalysis {
        self.analysis
            .get_or_init(|| ReuseAnalysis::of(&self.kernel))
    }

    /// The data-flow graph of one loop-body iteration, computed on first use.
    pub fn dfg(&self) -> &DataFlowGraph {
        self.dfg
            .get_or_init(|| DataFlowGraph::from_kernel(&self.kernel))
    }

    /// The baseline critical-path analysis (default [`LatencyModel`], every
    /// reference in RAM), computed on first use.
    pub fn critical_path(&self) -> &CriticalPathAnalysis {
        self.critical.get_or_init(|| {
            CriticalPathAnalysis::new(self.dfg(), &LatencyModel::default(), &StorageMap::all_ram())
        })
    }

    /// The cost model's memory stages at `ram_latency`: memoized on first use
    /// for latencies up to [`Self::MEMORY_STAGE_SLOTS`], derived afresh (and
    /// never stored) above it.
    pub fn memory_stages(&self, ram_latency: u64) -> Cow<'_, MemoryStages> {
        let derive = || MemoryStages::new(self.dfg(), self.analysis(), ram_latency);
        match self.stage_slot(ram_latency) {
            Some(slot) => Cow::Borrowed(slot.get_or_init(derive)),
            None => Cow::Owned(derive()),
        }
    }

    fn stage_slot(&self, ram_latency: u64) -> Option<&OnceLock<MemoryStages>> {
        let index = usize::try_from(ram_latency.max(1) - 1).ok()?;
        self.stages.get(index)
    }

    /// Whether the reuse analysis has been computed (or seeded) already.
    ///
    /// Only useful for memoization tests; it never triggers a computation.
    pub fn analysis_is_cached(&self) -> bool {
        self.analysis.get().is_some()
    }
}

impl From<Kernel> for CompiledKernel {
    fn from(kernel: Kernel) -> Self {
        Self::new(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_ir::examples::paper_example;

    #[test]
    fn accessors_memoize() {
        let ck = CompiledKernel::new(paper_example());
        assert!(!ck.analysis_is_cached());
        assert!(std::ptr::eq(ck.analysis(), ck.analysis()));
        assert!(ck.analysis_is_cached());
        assert!(std::ptr::eq(ck.dfg(), ck.dfg()));
        assert!(std::ptr::eq(ck.critical_path(), ck.critical_path()));
        assert_eq!(ck.analysis().len(), 5);
        assert!(std::ptr::eq(ck.references(), ck.references()));
    }

    #[test]
    fn memory_stages_fill_one_slot_per_latency_and_never_past_the_last() {
        let ck = CompiledKernel::new(paper_example());
        assert!(ck.stages.iter().all(|slot| slot.get().is_none()));
        let six = ck.memory_stages(6);
        assert!(matches!(six, Cow::Borrowed(_)));
        assert!(std::ptr::eq(six.as_ref(), ck.memory_stages(6).as_ref()));
        // Latency 0 is costed as latency 1 and shares its slot.
        assert!(std::ptr::eq(
            ck.memory_stages(0).as_ref(),
            ck.memory_stages(1).as_ref()
        ));
        let filled = |ck: &CompiledKernel| ck.stages.iter().filter(|s| s.get().is_some()).count();
        assert_eq!(filled(&ck), 2);
        let past = CompiledKernel::MEMORY_STAGE_SLOTS + 1;
        assert!(matches!(ck.memory_stages(past), Cow::Owned(_)));
        assert_eq!(filled(&ck), 2);
        assert!(matches!(
            ck.memory_stages(CompiledKernel::MEMORY_STAGE_SLOTS),
            Cow::Borrowed(_)
        ));
    }

    #[test]
    fn seeded_analysis_is_returned_verbatim() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let ck = CompiledKernel::with_analysis(kernel, analysis.clone());
        assert!(ck.analysis_is_cached());
        assert_eq!(*ck.analysis(), analysis);
    }

    #[test]
    fn clone_preserves_memoized_artifacts() {
        let ck = CompiledKernel::new(paper_example());
        ck.analysis();
        let clone = ck.clone();
        assert!(clone.analysis_is_cached());
        assert_eq!(clone.name(), "paper_example");
    }

    #[test]
    fn shared_across_threads() {
        let ck = CompiledKernel::new(paper_example());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| assert_eq!(ck.analysis().len(), 5));
            }
        });
    }
}
