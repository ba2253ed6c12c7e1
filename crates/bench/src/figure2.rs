//! Reproduction of Figure 2(c): the running example under the three allocators.

use srra_core::{AllocatorRegistry, CompiledKernel};
use srra_ir::examples::paper_example;

use crate::evaluate_compiled;

/// One allocator's row of the Figure 2(c) reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure2Row {
    /// Algorithm label (`FR-RA`, `PR-RA`, `CPA-RA`).
    pub algorithm: String,
    /// Register distribution, e.g. `a:30 b:1 c:20 d:1 e:1`.
    pub distribution: String,
    /// Total registers consumed.
    pub total_registers: u64,
    /// Memory cycles per iteration of the outer loop — the `T_mem` number the paper
    /// quotes (1,800 / 1,560 / 1,184).
    pub memory_cycles_per_outer_iteration: u64,
    /// Memory cycles over the whole execution.
    pub memory_cycles_total: u64,
}

/// The register budget of the paper's running example.
pub const FIGURE2_BUDGET: u64 = 64;

/// Computes the Figure 2(c) rows for FR-RA, PR-RA and CPA-RA.
///
/// # Panics
///
/// Never panics: the running example always satisfies the 64-register budget.
pub fn figure2() -> Vec<Figure2Row> {
    let kernel = CompiledKernel::new(paper_example());
    AllocatorRegistry::paper_versions()
        .into_iter()
        .map(|allocator| {
            let outcome = evaluate_compiled(&kernel, allocator, FIGURE2_BUDGET)
                .expect("running example fits the budget");
            Figure2Row {
                algorithm: allocator.label().to_owned(),
                distribution: outcome.allocation.distribution(),
                total_registers: outcome.allocation.total_registers(),
                memory_cycles_per_outer_iteration: outcome.cost.memory_cycles_per_outer_iteration,
                memory_cycles_total: outcome.cost.memory_cycles,
            }
        })
        .collect()
}

/// Renders the Figure 2(c) rows as an aligned text table.
pub fn render_figure2(rows: &[Figure2Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 2(c) reproduction — running example, 64 registers\n");
    out.push_str(&format!(
        "{:<8} {:<36} {:>10} {:>12} {:>12}\n",
        "algo", "register distribution", "registers", "Tmem/outer", "Tmem total"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<8} {:<36} {:>10} {:>12} {:>12}\n",
            row.algorithm,
            row.distribution,
            row.total_registers,
            row.memory_cycles_per_outer_iteration,
            row.memory_cycles_total
        ));
    }
    out.push_str("paper reports Tmem/outer of 1800 (FR-RA), 1560 (PR-RA), 1184 (CPA-RA)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_published_numbers_exactly() {
        let rows = figure2();
        assert_eq!(rows.len(), 3);
        let by_algo = |name: &str| rows.iter().find(|r| r.algorithm == name).unwrap();
        assert_eq!(by_algo("FR-RA").memory_cycles_per_outer_iteration, 1_800);
        assert_eq!(by_algo("PR-RA").memory_cycles_per_outer_iteration, 1_560);
        assert_eq!(by_algo("CPA-RA").memory_cycles_per_outer_iteration, 1_184);
    }

    #[test]
    fn distributions_match_figure_2c() {
        let rows = figure2();
        let by_algo = |name: &str| rows.iter().find(|r| r.algorithm == name).unwrap();
        assert_eq!(by_algo("FR-RA").distribution, "a:30 b:1 d:1 c:20 e:1");
        assert_eq!(by_algo("PR-RA").distribution, "a:30 b:1 d:12 c:20 e:1");
        assert_eq!(by_algo("CPA-RA").distribution, "a:16 b:16 d:30 c:1 e:1");
    }

    #[test]
    fn render_contains_every_algorithm() {
        let text = render_figure2(&figure2());
        for name in ["FR-RA", "PR-RA", "CPA-RA", "1184"] {
            assert!(text.contains(name), "missing {name} in rendering");
        }
    }
}
