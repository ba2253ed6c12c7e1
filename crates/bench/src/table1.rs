//! Reproduction of Table 1: six kernels × three register-allocation versions.

use srra_core::{AllocatorRegistry, CompiledKernel};
use srra_kernels::{paper_suite, KernelSpec};

use crate::evaluate_compiled;

/// One row of the Table 1 reproduction (one kernel under one allocation algorithm).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Kernel name (FIR, Dec-FIR, MAT, IMI, PAT, BIC).
    pub kernel: String,
    /// Design version (`v1` = FR-RA, `v2` = PR-RA, `v3` = CPA-RA).
    pub version: String,
    /// Algorithm label.
    pub algorithm: String,
    /// Registers a full scalar replacement of every reference would need, rendered per
    /// reference (the paper's "Required S.R. Registers" column).
    pub required_registers: String,
    /// Register distribution chosen by the algorithm.
    pub distribution: String,
    /// Total registers consumed.
    pub total_registers: u64,
    /// Total execution cycles.
    pub cycles: u64,
    /// Percentage cycle reduction relative to the kernel's `v1` design (positive is
    /// better; `v1` itself reports 0).
    pub cycle_reduction_pct: f64,
    /// Achievable clock period in nanoseconds.
    pub clock_period_ns: f64,
    /// Wall-clock execution time in microseconds.
    pub execution_time_us: f64,
    /// Wall-clock speedup relative to the kernel's `v1` design.
    pub speedup: f64,
    /// Logic slices used.
    pub slices: u64,
    /// Slice occupancy of the XCV1000 device.
    pub occupancy_pct: f64,
    /// BlockRAMs used.
    pub block_rams: u64,
}

/// Aggregate figures corresponding to the percentages quoted in the paper's section 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Summary {
    /// Average cycle-count reduction of the `v2` (PR-RA) designs over `v1`, in percent.
    pub avg_cycle_gain_v2_pct: f64,
    /// Average cycle-count reduction of the `v3` (CPA-RA) designs over `v1`, in percent.
    pub avg_cycle_gain_v3_pct: f64,
    /// Average wall-clock gain of the `v2` designs over `v1`, in percent.
    pub avg_time_gain_v2_pct: f64,
    /// Average wall-clock gain of the `v3` designs over `v1`, in percent.
    pub avg_time_gain_v3_pct: f64,
    /// Average clock-period degradation of the `v3` designs relative to `v1`, in
    /// percent (positive means a slower clock).
    pub avg_clock_loss_v3_pct: f64,
    /// Average cycle-count advantage of `v3` over `v2`, in percent.
    pub avg_v3_over_v2_cycle_gain_pct: f64,
}

fn required_registers(kernel: &CompiledKernel) -> String {
    kernel
        .analysis()
        .iter()
        .map(|s| format!("{}:{}", s.array_name(), s.registers_full()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Computes the Table 1 rows for the given kernel suite.
///
/// Rows come in kernel order, with the three versions (`v1`, `v2`, `v3`) of each kernel
/// adjacent, exactly like the paper's table.  Each kernel is analysed exactly once —
/// the "required registers" column and all three versions share one [`CompiledKernel`]
/// context.  Kernels whose reference count exceeds the register budget are skipped
/// (this cannot happen for the paper suite).
pub fn table1_for(suite: &[KernelSpec]) -> Vec<Table1Row> {
    let [v1_ref, ..] = AllocatorRegistry::paper_versions();
    let mut rows = Vec::new();
    for spec in suite {
        let compiled = spec.compiled();
        let required = required_registers(&compiled);
        let Ok(v1) = evaluate_compiled(&compiled, v1_ref, spec.register_budget) else {
            continue;
        };
        for allocator in AllocatorRegistry::paper_versions() {
            let Ok(outcome) = evaluate_compiled(&compiled, allocator, spec.register_budget) else {
                continue;
            };
            rows.push(Table1Row {
                kernel: compiled.name().to_owned(),
                version: allocator.version_name().to_owned(),
                algorithm: allocator.label().to_owned(),
                required_registers: required.clone(),
                distribution: outcome.allocation.distribution(),
                total_registers: outcome.allocation.total_registers(),
                cycles: outcome.design.total_cycles,
                cycle_reduction_pct: outcome.design.cycle_reduction_vs(&v1.design),
                clock_period_ns: outcome.design.clock_period_ns,
                execution_time_us: outcome.design.execution_time_us,
                speedup: outcome.design.speedup_vs(&v1.design),
                slices: outcome.design.slices,
                occupancy_pct: outcome.design.slice_occupancy * 100.0,
                block_rams: outcome.design.block_rams,
            });
        }
    }
    rows
}

/// Computes the Table 1 rows for the paper's six-kernel suite.
pub fn table1() -> Vec<Table1Row> {
    table1_for(&paper_suite())
}

/// Aggregates the per-kernel rows into the paper's section-5 percentages.
pub fn summarize(rows: &[Table1Row]) -> Table1Summary {
    let mut cycle_v2 = Vec::new();
    let mut cycle_v3 = Vec::new();
    let mut time_v2 = Vec::new();
    let mut time_v3 = Vec::new();
    let mut clock_v3 = Vec::new();
    let mut v3_over_v2 = Vec::new();

    let kernels: Vec<&str> = {
        let mut names: Vec<&str> = rows.iter().map(|r| r.kernel.as_str()).collect();
        names.dedup();
        names
    };
    for kernel in kernels {
        let find = |version: &str| {
            rows.iter()
                .find(|r| r.kernel == kernel && r.version == version)
        };
        let (Some(v1), Some(v2), Some(v3)) = (find("v1"), find("v2"), find("v3")) else {
            continue;
        };
        cycle_v2.push(v2.cycle_reduction_pct);
        cycle_v3.push(v3.cycle_reduction_pct);
        time_v2.push(100.0 * (v1.execution_time_us - v2.execution_time_us) / v1.execution_time_us);
        time_v3.push(100.0 * (v1.execution_time_us - v3.execution_time_us) / v1.execution_time_us);
        clock_v3.push(100.0 * (v3.clock_period_ns - v1.clock_period_ns) / v1.clock_period_ns);
        v3_over_v2.push(100.0 * (v2.cycles as f64 - v3.cycles as f64) / v2.cycles as f64);
    }

    let mean = |values: &[f64]| {
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    };

    Table1Summary {
        avg_cycle_gain_v2_pct: mean(&cycle_v2),
        avg_cycle_gain_v3_pct: mean(&cycle_v3),
        avg_time_gain_v2_pct: mean(&time_v2),
        avg_time_gain_v3_pct: mean(&time_v3),
        avg_clock_loss_v3_pct: mean(&clock_v3),
        avg_v3_over_v2_cycle_gain_pct: mean(&v3_over_v2),
    }
}

/// Renders the rows as an aligned text table plus the summary block.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 1 reproduction — 32-register budget, XCV1000 model\n");
    out.push_str(&format!(
        "{:<8} {:<3} {:<7} {:>9} {:>12} {:>8} {:>10} {:>12} {:>8} {:>8} {:>7} {:>5}\n",
        "kernel",
        "ver",
        "algo",
        "registers",
        "cycles",
        "Δcyc%",
        "clock ns",
        "time us",
        "speedup",
        "slices",
        "occ %",
        "RAMs"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<8} {:<3} {:<7} {:>9} {:>12} {:>8.1} {:>10.1} {:>12.1} {:>8.2} {:>8} {:>7.1} {:>5}\n",
            row.kernel,
            row.version,
            row.algorithm,
            row.total_registers,
            row.cycles,
            row.cycle_reduction_pct,
            row.clock_period_ns,
            row.execution_time_us,
            row.speedup,
            row.slices,
            row.occupancy_pct,
            row.block_rams
        ));
    }
    let summary = summarize(rows);
    out.push_str(&format!(
        "\naverages vs v1: v2 cycles {:+.1}%, v3 cycles {:+.1}%, v2 time {:+.1}%, v3 time {:+.1}%, v3 clock {:+.1}%, v3-over-v2 cycles {:+.1}%\n",
        summary.avg_cycle_gain_v2_pct,
        summary.avg_cycle_gain_v3_pct,
        summary.avg_time_gain_v2_pct,
        summary.avg_time_gain_v3_pct,
        summary.avg_clock_loss_v3_pct,
        summary.avg_v3_over_v2_cycle_gain_pct
    ));
    out.push_str(
        "paper reports: v2 cycles +4.9% avg, v3 cycles ~+27% avg, v2 time -0.2%, v3 time +21.5%, v3 clock -7.3%\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_three_versions_for_each_of_the_six_kernels() {
        let rows = table1();
        assert_eq!(rows.len(), 18);
        for kernel in ["fir", "dec_fir", "mat", "imi", "pat", "bic"] {
            let versions: Vec<&str> = rows
                .iter()
                .filter(|r| r.kernel == kernel)
                .map(|r| r.version.as_str())
                .collect();
            assert_eq!(versions, vec!["v1", "v2", "v3"], "kernel {kernel}");
        }
    }

    #[test]
    fn shape_matches_the_paper_conclusions() {
        let rows = table1();
        for kernel in ["fir", "dec_fir", "mat", "imi", "pat", "bic"] {
            let row = |v: &str| {
                rows.iter()
                    .find(|r| r.kernel == kernel && r.version == v)
                    .unwrap()
            };
            let (v1, v2, v3) = (row("v1"), row("v2"), row("v3"));
            // Every design respects the 32-register budget.
            assert!(v1.total_registers <= 32);
            assert!(v2.total_registers <= 32);
            assert!(v3.total_registers <= 32);
            // v2 never uses fewer registers than v1.  Its cycle count may exceed v1 by
            // the prologue/epilogue transfers of an unprofitable partial replacement
            // (the effect the paper describes for Dec-FIR and PAT), but never by more
            // than a percent or two.
            assert!(v2.total_registers >= v1.total_registers, "{kernel}");
            assert!(v2.cycles as f64 <= v1.cycles as f64 * 1.02, "{kernel}");
            // CPA-RA (v3) never loses to PR-RA (v2) on cycles beyond the same
            // transfer-overhead noise.
            assert!(v3.cycles as f64 <= v2.cycles as f64 * 1.02, "{kernel}");
            // The baseline rows report no gain over themselves.
            assert!(v1.cycle_reduction_pct.abs() < 1e-9);
            assert!((v1.speedup - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn summary_reports_positive_v3_gains() {
        let rows = table1();
        let summary = summarize(&rows);
        assert!(summary.avg_cycle_gain_v3_pct > 0.0);
        assert!(summary.avg_cycle_gain_v3_pct >= summary.avg_cycle_gain_v2_pct);
        assert!(summary.avg_v3_over_v2_cycle_gain_pct >= 0.0);
        // The v3 clock is somewhat slower on average, as in the paper.
        assert!(summary.avg_clock_loss_v3_pct >= 0.0);
        assert!(summary.avg_clock_loss_v3_pct < 20.0);
    }

    #[test]
    fn rendering_contains_all_kernels_and_the_summary() {
        let text = render_table1(&table1());
        for name in [
            "fir",
            "dec_fir",
            "mat",
            "imi",
            "pat",
            "bic",
            "averages vs v1",
        ] {
            assert!(text.contains(name), "missing {name}");
        }
    }
}
