//! The local analysis and reproduction commands: `kernels`, `analyze`,
//! `allocate` and `dot`.

use srra_bench::evaluate_compiled;
use srra_core::{AllocatorRef, AllocatorRegistry, CompiledKernel};
use srra_ir::examples::paper_example;
use srra_kernels::paper_suite;

use crate::CliError;

pub(crate) fn kernel_by_name(name: &str) -> Result<CompiledKernel, CliError> {
    if name == "example" {
        return Ok(CompiledKernel::new(paper_example()));
    }
    paper_suite()
        .into_iter()
        .find(|spec| spec.kernel.name() == name)
        .map(|spec| spec.compiled())
        .ok_or_else(|| {
            CliError(format!(
                "unknown kernel `{name}`; expected example, fir, dec_fir, mat, imi, pat or bic"
            ))
        })
}

pub(crate) fn algorithm_by_name(name: &str) -> Result<AllocatorRef, CliError> {
    AllocatorRegistry::global().get(name).ok_or_else(|| {
        let known = AllocatorRegistry::global()
            .names()
            .collect::<Vec<_>>()
            .join(", ");
        CliError(format!(
            "unknown algorithm `{name}`; expected one of: {known}"
        ))
    })
}

pub(crate) fn cmd_kernels() -> String {
    let mut out =
        String::from("built-in kernels:\n  example  (the paper's Figure 1 running example)\n");
    for spec in paper_suite() {
        out.push_str(&format!(
            "  {:<8} {}\n",
            spec.kernel.name(),
            spec.description
        ));
    }
    out
}

pub(crate) fn cmd_analyze(name: &str) -> Result<String, CliError> {
    let kernel = kernel_by_name(name)?;
    let analysis = kernel.analysis();
    let mut out = format!("{}\n", kernel.kernel());
    out.push_str(&format!(
        "{:<20} {:>10} {:>12} {:>12} {:>10}\n",
        "reference", "R_full", "accesses", "eliminable", "gamma"
    ));
    for summary in analysis {
        out.push_str(&format!(
            "{:<20} {:>10} {:>12} {:>12} {:>10.1}\n",
            summary.rendered(),
            summary.registers_full(),
            summary.access_counts().total,
            summary.saved_full(),
            summary.benefit_cost()
        ));
    }
    out.push_str(&format!(
        "total registers for full replacement: {}\n",
        analysis.total_registers_full()
    ));
    Ok(out)
}

pub(crate) fn cmd_allocate(name: &str, algo: &str, budget: &str) -> Result<String, CliError> {
    let kernel = kernel_by_name(name)?;
    let allocator = algorithm_by_name(algo)?;
    let budget = crate::args::budget(budget)?;
    let outcome = evaluate_compiled(&kernel, allocator, budget)
        .map_err(|e| CliError(format!("allocation failed: {e}")))?;
    let mut out = format!(
        "{} on {} with {budget} registers\n",
        allocator.label(),
        kernel.name()
    );
    out.push_str(&format!(
        "  distribution : {}\n  registers    : {}\n  memory cycles: {}\n  total cycles : {}\n  clock        : {:.1} ns\n  exec time    : {:.1} us\n  slices       : {}  ({:.1}% of the XCV1000)\n  BlockRAMs    : {}\n",
        outcome.allocation.distribution(),
        outcome.allocation.total_registers(),
        outcome.cost.memory_cycles,
        outcome.design.total_cycles,
        outcome.design.clock_period_ns,
        outcome.design.execution_time_us,
        outcome.design.slices,
        outcome.design.slice_occupancy * 100.0,
        outcome.design.block_rams
    ));
    Ok(out)
}

pub(crate) fn cmd_dot(name: &str) -> Result<String, CliError> {
    let kernel = kernel_by_name(name)?;
    Ok(srra_dfg::to_dot(kernel.dfg(), Some(kernel.critical_path())))
}

#[cfg(test)]
mod tests {
    use crate::run;
    use crate::tests::args;

    #[test]
    fn kernels_lists_all_seven_entries() {
        let out = run(&args(&["kernels"])).unwrap();
        for name in ["example", "fir", "dec_fir", "mat", "imi", "pat", "bic"] {
            assert!(out.contains(name), "missing {name}");
        }
    }

    #[test]
    fn analyze_prints_requirements() {
        let out = run(&args(&["analyze", "example"])).unwrap();
        assert!(out.contains("b[k][j]"));
        assert!(out.contains("600"));
        assert!(out.contains("total registers for full replacement: 681"));
    }

    #[test]
    fn allocate_runs_every_algorithm_alias() {
        for algo in [
            "fr", "pr", "cpa", "ks", "none", "v3", "CPA-RA", "greedy", "GR-RA",
        ] {
            let out = run(&args(&["allocate", "example", algo, "64"])).unwrap();
            assert!(out.contains("distribution"), "algo {algo}");
        }
    }

    #[test]
    fn figure2_and_dot_commands_work() {
        assert!(run(&args(&["figure2"])).unwrap().contains("1184"));
        let dot = run(&args(&["dot", "example"])).unwrap();
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn errors_are_reported_with_usage_hints() {
        assert!(run(&args(&["frobnicate"])).is_err());
        assert!(run(&args(&["analyze", "nope"])).is_err());
        assert!(run(&args(&["allocate", "fir", "zzz", "32"])).is_err());
        assert!(run(&args(&["allocate", "fir", "cpa", "many"])).is_err());
        let err = run(&args(&["allocate", "fir", "cpa", "1"])).unwrap_err();
        assert!(err.to_string().contains("allocation failed"));
    }
}
