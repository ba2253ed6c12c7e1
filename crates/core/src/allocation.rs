use srra_dfg::{Storage, StorageMap};
use srra_ir::RefId;
use srra_reuse::{ReuseAnalysis, ReuseSummary};

use crate::registry::AllocatorRef;

/// The five register-allocation strategies that predate the open registry.
///
/// This enum is kept as a stable, matchable handle for the built-in
/// strategies; each variant maps to a [`crate::AllocatorRegistry`] entry via
/// `AllocatorRef::from(kind)`.  New strategies are registry entries only and
/// have no variant here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AllocatorKind {
    /// The untransformed code: every access goes to a RAM block.
    NoReplacement,
    /// FR-RA — greedy full-reuse allocation by benefit/cost ratio.
    FullReuse,
    /// PR-RA — FR-RA plus partial reuse for the next reference in the greedy order.
    PartialReuse,
    /// CPA-RA — the paper's critical-path-aware allocation over cuts of the Critical
    /// Graph.
    CriticalPathAware,
    /// Exact 0/1-knapsack maximisation of eliminated memory accesses.
    KnapsackOptimal,
}

impl AllocatorKind {
    /// All algorithm kinds, in presentation order.
    pub fn all() -> [AllocatorKind; 5] {
        [
            AllocatorKind::NoReplacement,
            AllocatorKind::FullReuse,
            AllocatorKind::PartialReuse,
            AllocatorKind::CriticalPathAware,
            AllocatorKind::KnapsackOptimal,
        ]
    }

    /// The three kinds evaluated in the paper's Table 1, in `v1`, `v2`, `v3` order.
    pub fn paper_versions() -> [AllocatorKind; 3] {
        [
            AllocatorKind::FullReuse,
            AllocatorKind::PartialReuse,
            AllocatorKind::CriticalPathAware,
        ]
    }

    /// The short algorithm name used in the paper (e.g. `CPA-RA`).
    pub fn label(self) -> &'static str {
        match self {
            AllocatorKind::NoReplacement => "BASE",
            AllocatorKind::FullReuse => "FR-RA",
            AllocatorKind::PartialReuse => "PR-RA",
            AllocatorKind::CriticalPathAware => "CPA-RA",
            AllocatorKind::KnapsackOptimal => "KS-OPT",
        }
    }

    /// The design-version name used in the paper's Table 1 (`v1`, `v2`, `v3`), or a
    /// descriptive name for the extra baselines.
    pub fn version_name(self) -> &'static str {
        match self {
            AllocatorKind::NoReplacement => "v0",
            AllocatorKind::FullReuse => "v1",
            AllocatorKind::PartialReuse => "v2",
            AllocatorKind::CriticalPathAware => "v3",
            AllocatorKind::KnapsackOptimal => "vk",
        }
    }
}

impl std::fmt::Display for AllocatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How a reference's accesses are implemented after allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementMode {
    /// The reference keeps going to its RAM block; any register it holds is only the
    /// staging register needed to feed the datapath.
    None,
    /// Partial scalar replacement: `β` of the `R` required registers are provided, so a
    /// `β / R` share of the reuse is captured.
    Partial,
    /// Full scalar replacement: the whole working set lives in registers and only the
    /// essential (cold / final) transfers touch RAM.
    Full,
}

impl ReplacementMode {
    /// Returns `true` for [`ReplacementMode::Full`].
    pub fn is_full(self) -> bool {
        matches!(self, ReplacementMode::Full)
    }

    /// Returns `true` for [`ReplacementMode::Partial`].
    pub fn is_partial(self) -> bool {
        matches!(self, ReplacementMode::Partial)
    }
}

/// The allocation decision for a single reference group.
#[derive(Debug, Clone, PartialEq)]
pub struct RefAllocation {
    ref_id: RefId,
    array_name: String,
    rendered: String,
    registers_full: u64,
    beta: u64,
    mode: ReplacementMode,
}

impl RefAllocation {
    pub(crate) fn new(summary: &ReuseSummary, beta: u64, mode: ReplacementMode) -> Self {
        Self {
            ref_id: summary.ref_id(),
            array_name: summary.array_name().to_owned(),
            rendered: summary.rendered().to_owned(),
            registers_full: summary.registers_full(),
            beta,
            mode,
        }
    }

    /// The reference group this decision applies to.
    pub fn ref_id(&self) -> RefId {
        self.ref_id
    }

    /// Name of the referenced array.
    pub fn array_name(&self) -> &str {
        &self.array_name
    }

    /// The reference rendered with the kernel's loop names, e.g. `b[k][j]`.
    pub fn rendered(&self) -> &str {
        &self.rendered
    }

    /// Registers a full replacement would require (`R_i`).
    pub fn registers_full(&self) -> u64 {
        self.registers_full
    }

    /// Registers actually assigned (`β_i`).
    pub fn beta(&self) -> u64 {
        self.beta
    }

    /// How the reference is implemented.
    pub fn mode(&self) -> ReplacementMode {
        self.mode
    }

    /// Fraction of the reference's reuse captured by the assignment, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        match self.mode {
            ReplacementMode::None => 0.0,
            ReplacementMode::Full => 1.0,
            ReplacementMode::Partial => {
                (self.beta as f64 / self.registers_full.max(1) as f64).clamp(0.0, 1.0)
            }
        }
    }
}

/// A complete register allocation for one kernel: the `β_i` vector of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterAllocation {
    kernel_name: String,
    algorithm: AllocatorRef,
    budget: u64,
    refs: Vec<RefAllocation>,
}

impl RegisterAllocation {
    pub(crate) fn new(
        kernel_name: impl Into<String>,
        algorithm: AllocatorRef,
        budget: u64,
        refs: Vec<RefAllocation>,
    ) -> Self {
        Self {
            kernel_name: kernel_name.into(),
            algorithm,
            budget,
            refs,
        }
    }

    /// Name of the kernel the allocation was computed for.
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    /// The strategy that produced the allocation.
    ///
    /// Compares equal to an [`AllocatorKind`] when the strategy is one of the
    /// five built-ins, so `allocation.algorithm() == AllocatorKind::FullReuse`
    /// keeps working.
    pub fn algorithm(&self) -> AllocatorRef {
        self.algorithm
    }

    /// The register budget the algorithm was given.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Number of reference groups covered.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Returns `true` when the kernel had no references.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Per-reference decisions, in reference-table order.
    pub fn iter(&self) -> impl Iterator<Item = &RefAllocation> {
        self.refs.iter()
    }

    /// The decision for a reference group.
    pub fn get(&self, ref_id: RefId) -> Option<&RefAllocation> {
        self.refs.iter().find(|r| r.ref_id() == ref_id)
    }

    /// The decision for the first reference of the array with the given name.
    pub fn by_name(&self, name: &str) -> Option<&RefAllocation> {
        self.refs.iter().find(|r| r.array_name() == name)
    }

    /// Registers assigned to a reference (zero when the reference is unknown).
    pub fn beta(&self, ref_id: RefId) -> u64 {
        self.get(ref_id).map(RefAllocation::beta).unwrap_or(0)
    }

    /// Total registers consumed by the allocation (`Σ β_i`).
    pub fn total_registers(&self) -> u64 {
        self.refs.iter().map(RefAllocation::beta).sum()
    }

    /// Number of references that are fully replaced.
    pub fn fully_replaced(&self) -> usize {
        self.refs.iter().filter(|r| r.mode().is_full()).count()
    }

    /// Number of references that are partially replaced.
    pub fn partially_replaced(&self) -> usize {
        self.refs.iter().filter(|r| r.mode().is_partial()).count()
    }

    /// The storage assignment implied by the allocation: a reference lives in
    /// registers when it is fully replaced, otherwise it keeps its RAM block.
    ///
    /// This is the input the critical-path analysis of `srra-dfg` and the scheduler of
    /// `srra-fpga` expect.
    pub fn storage_map(&self) -> StorageMap {
        let mut map = StorageMap::all_ram();
        for r in &self.refs {
            if r.mode().is_full() {
                map.set(r.ref_id(), Storage::Register);
            }
        }
        map
    }

    /// A compact human-readable register distribution, e.g. `a:30 b:1 c:20 d:1 e:1`.
    pub fn distribution(&self) -> String {
        self.refs
            .iter()
            .map(|r| format!("{}:{}", r.array_name(), r.beta()))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl<'a> IntoIterator for &'a RegisterAllocation {
    type Item = &'a RefAllocation;
    type IntoIter = std::slice::Iter<'a, RefAllocation>;

    fn into_iter(self) -> Self::IntoIter {
        self.refs.iter()
    }
}

/// Shared helper used by the concrete algorithms: derive the [`ReplacementMode`] of a
/// reference from its summary and assigned register count.
pub(crate) fn mode_for(summary: &ReuseSummary, beta: u64) -> ReplacementMode {
    if !summary.has_reuse() || beta == 0 {
        ReplacementMode::None
    } else if beta >= summary.registers_full() {
        ReplacementMode::Full
    } else if beta > 1 || summary.registers_full() == 1 {
        ReplacementMode::Partial
    } else {
        // A single feasibility register does not capture any reuse on its own.
        ReplacementMode::None
    }
}

/// Shared helper: build the final [`RegisterAllocation`] from a `β` vector, deriving
/// modes with [`mode_for`] except for references explicitly forced to a mode.
pub(crate) fn build_allocation(
    kernel_name: &str,
    algorithm: AllocatorRef,
    budget: u64,
    analysis: &ReuseAnalysis,
    betas: &[u64],
    forced_partial: &[RefId],
) -> RegisterAllocation {
    let refs = analysis
        .iter()
        .map(|summary| {
            let beta = betas[summary.ref_id().index()];
            let mut mode = mode_for(summary, beta);
            if forced_partial.contains(&summary.ref_id())
                && summary.has_reuse()
                && beta < summary.registers_full()
                && beta > 0
            {
                mode = ReplacementMode::Partial;
            }
            RefAllocation::new(summary, beta, mode)
        })
        .collect();
    RegisterAllocation::new(kernel_name, algorithm, budget, refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_ir::examples::paper_example;

    #[test]
    fn allocator_kind_metadata() {
        assert_eq!(AllocatorKind::CriticalPathAware.label(), "CPA-RA");
        assert_eq!(AllocatorKind::CriticalPathAware.version_name(), "v3");
        assert_eq!(AllocatorKind::FullReuse.to_string(), "FR-RA");
        assert_eq!(AllocatorKind::all().len(), 5);
        assert_eq!(AllocatorKind::paper_versions().len(), 3);
    }

    #[test]
    fn mode_for_rules() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let a = analysis.by_name("a").unwrap();
        assert_eq!(mode_for(a, 0), ReplacementMode::None);
        assert_eq!(mode_for(a, 1), ReplacementMode::None);
        assert_eq!(mode_for(a, 12), ReplacementMode::Partial);
        assert_eq!(mode_for(a, 30), ReplacementMode::Full);
        assert_eq!(mode_for(a, 100), ReplacementMode::Full);
        let e = analysis.by_name("e").unwrap();
        assert_eq!(mode_for(e, 1), ReplacementMode::None);
        assert_eq!(mode_for(e, 50), ReplacementMode::None);
    }

    #[test]
    fn coverage_reflects_mode() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let a = analysis.by_name("a").unwrap();
        assert_eq!(
            RefAllocation::new(a, 30, ReplacementMode::Full).coverage(),
            1.0
        );
        assert_eq!(
            RefAllocation::new(a, 1, ReplacementMode::None).coverage(),
            0.0
        );
        let partial = RefAllocation::new(a, 15, ReplacementMode::Partial);
        assert!((partial.coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn allocation_accessors_and_storage_map() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let betas: Vec<u64> = analysis
            .iter()
            .map(|s| if s.array_name() == "a" { 30 } else { 1 })
            .collect();
        let allocation = build_allocation(
            kernel.name(),
            AllocatorKind::FullReuse.into(),
            64,
            &analysis,
            &betas,
            &[],
        );
        assert_eq!(allocation.kernel_name(), "paper_example");
        assert_eq!(allocation.budget(), 64);
        assert_eq!(allocation.len(), 5);
        assert_eq!(allocation.total_registers(), 34);
        assert_eq!(allocation.fully_replaced(), 1);
        assert_eq!(allocation.partially_replaced(), 0);
        assert_eq!(allocation.by_name("a").unwrap().beta(), 30);
        let storage = allocation.storage_map();
        let a_id = analysis.by_name("a").unwrap().ref_id();
        let b_id = analysis.by_name("b").unwrap().ref_id();
        assert_eq!(storage.storage(a_id), Storage::Register);
        assert_eq!(storage.storage(b_id), Storage::Ram);
        assert!(allocation.distribution().contains("a:30"));
    }
}
