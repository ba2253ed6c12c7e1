//! Parameter sweeps: register budget and RAM latency.
//!
//! These sweeps go beyond the paper's single 32-register data point and support the
//! ablation benchmarks: they show where the algorithms diverge and where they converge
//! (with an unlimited budget every algorithm fully replaces everything and the curves
//! meet).
//!
//! Since the `srra-explore` engine landed, every sweep is a thin shim over a
//! [`DesignSpace`] exploration: points are evaluated in parallel and deduplicated
//! through a [`ResultStore`], so driving several sweeps through one shared store (or a
//! persistent [`srra_explore::SegmentStore`]) never re-evaluates a design point.  The
//! reported `*_cycles` are the steady-state memory cycles of the cost model at the
//! swept RAM latency — numerically identical to the pre-engine implementation.

use serde::{Deserialize, Serialize};
use srra_core::AllocatorKind;
use srra_explore::{DesignSpace, Explorer, MemoryStore, PointRecord, ResultStore};
use srra_ir::Kernel;

/// One point of a sweep: the memory cycles of each algorithm at one parameter value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The swept parameter value (register budget or RAM latency).
    pub parameter: u64,
    /// Memory cycles for FR-RA (`v1`).
    pub fr_ra_cycles: u64,
    /// Memory cycles for PR-RA (`v2`).
    pub pr_ra_cycles: u64,
    /// Memory cycles for CPA-RA (`v3`).
    pub cpa_ra_cycles: u64,
}

fn cycles_of(
    records: &[PointRecord],
    kind: AllocatorKind,
    budget: u64,
    latency: u64,
) -> Option<&PointRecord> {
    records
        .iter()
        .find(|r| r.algorithm == kind.label() && r.budget == budget && r.ram_latency == latency)
        .filter(|r| r.feasible)
}

fn sweep_point(
    records: &[PointRecord],
    parameter: u64,
    budget: u64,
    latency: u64,
) -> Option<SweepPoint> {
    Some(SweepPoint {
        parameter,
        fr_ra_cycles: cycles_of(records, AllocatorKind::FullReuse, budget, latency)?.memory_cycles,
        pr_ra_cycles: cycles_of(records, AllocatorKind::PartialReuse, budget, latency)?
            .memory_cycles,
        cpa_ra_cycles: cycles_of(records, AllocatorKind::CriticalPathAware, budget, latency)?
            .memory_cycles,
    })
}

/// Sweeps the register budget for one kernel, reporting steady-state memory cycles.
///
/// Budgets smaller than the kernel's reference count are skipped.
pub fn budget_sweep(kernel: &Kernel, budgets: &[u64]) -> Vec<SweepPoint> {
    budget_sweep_cached(kernel, budgets, &mut MemoryStore::new())
        .expect("in-memory exploration cannot fail")
}

/// [`budget_sweep`] against a caller-provided result store: design points already in
/// the store are answered without re-evaluation, and fresh points are written back.
///
/// # Errors
///
/// Propagates the store's error type (I/O for persistent stores).
pub fn budget_sweep_cached<S: ResultStore>(
    kernel: &Kernel,
    budgets: &[u64],
    store: &mut S,
) -> Result<Vec<SweepPoint>, S::Error> {
    let space = DesignSpace::new()
        .with_kernel(kernel.clone())
        .with_budgets(budgets)
        .with_ram_latencies(&[1]);
    let run = Explorer::default().explore(&space, store)?;
    Ok(budgets
        .iter()
        .filter_map(|&budget| sweep_point(&run.records, budget, budget, 1))
        .collect())
}

/// Sweeps the RAM access latency for one kernel at a fixed register budget.
pub fn ram_latency_sweep(kernel: &Kernel, budget: u64, latencies: &[u64]) -> Vec<SweepPoint> {
    ram_latency_sweep_cached(kernel, budget, latencies, &mut MemoryStore::new())
        .expect("in-memory exploration cannot fail")
}

/// [`ram_latency_sweep`] against a caller-provided result store.
///
/// # Errors
///
/// Propagates the store's error type (I/O for persistent stores).
pub fn ram_latency_sweep_cached<S: ResultStore>(
    kernel: &Kernel,
    budget: u64,
    latencies: &[u64],
    store: &mut S,
) -> Result<Vec<SweepPoint>, S::Error> {
    let space = DesignSpace::new()
        .with_kernel(kernel.clone())
        .with_budgets(&[budget])
        .with_ram_latencies(latencies);
    let run = Explorer::default().explore(&space, store)?;
    Ok(latencies
        .iter()
        .filter_map(|&latency| sweep_point(&run.records, latency, budget, latency))
        .collect())
}

/// Renders a sweep as an aligned text table.
pub fn render_sweep(title: &str, parameter_name: &str, points: &[SweepPoint]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!(
        "{:<12} {:>14} {:>14} {:>14}\n",
        parameter_name, "FR-RA cycles", "PR-RA cycles", "CPA-RA cycles"
    ));
    for p in points {
        out.push_str(&format!(
            "{:<12} {:>14} {:>14} {:>14}\n",
            p.parameter, p.fr_ra_cycles, p.pr_ra_cycles, p.cpa_ra_cycles
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_ir::examples::paper_example;

    #[test]
    fn budget_sweep_shows_cpa_dominating_and_converging() {
        let kernel = paper_example();
        let points = budget_sweep(&kernel, &[8, 16, 32, 64, 128, 700]);
        assert_eq!(points.len(), 6);
        for p in &points {
            assert!(p.cpa_ra_cycles <= p.pr_ra_cycles, "budget {}", p.parameter);
            assert!(p.pr_ra_cycles <= p.fr_ra_cycles, "budget {}", p.parameter);
        }
        // With the full 700-register budget every algorithm replaces everything that
        // has reuse and the three designs meet.
        let last = points.last().unwrap();
        assert_eq!(last.fr_ra_cycles, last.cpa_ra_cycles);
    }

    #[test]
    fn small_budgets_are_skipped() {
        let kernel = paper_example();
        let points = budget_sweep(&kernel, &[2, 64]);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].parameter, 64);
    }

    #[test]
    fn ram_latency_scales_all_algorithms() {
        let kernel = paper_example();
        let points = ram_latency_sweep(&kernel, 64, &[1, 2, 4]);
        assert_eq!(points.len(), 3);
        assert_eq!(points[1].fr_ra_cycles, 2 * points[0].fr_ra_cycles);
        assert_eq!(points[2].cpa_ra_cycles, 4 * points[0].cpa_ra_cycles);
    }

    #[test]
    fn rendering_lists_every_point() {
        let kernel = paper_example();
        let points = budget_sweep(&kernel, &[16, 64]);
        let text = render_sweep("budget sweep", "budget", &points);
        assert!(text.contains("16"));
        assert!(text.contains("64"));
        assert!(text.contains("CPA-RA cycles"));
    }

    #[test]
    fn shared_store_deduplicates_across_sweeps() {
        let kernel = paper_example();
        let mut store = MemoryStore::new();
        let cold = budget_sweep_cached(&kernel, &[16, 64], &mut store).unwrap();
        // The second sweep overlaps the first on every point and adds one budget;
        // the overlap is answered from the store and the results agree exactly.
        let warm = budget_sweep_cached(&kernel, &[16, 64, 128], &mut store).unwrap();
        assert_eq!(&warm[..2], &cold[..]);
        // A latency sweep at budget 64 reuses the (64, latency 1) point.
        let latencies = ram_latency_sweep_cached(&kernel, 64, &[1, 4], &mut store).unwrap();
        assert_eq!(latencies[0].cpa_ra_cycles, cold[1].cpa_ra_cycles);
    }
}
