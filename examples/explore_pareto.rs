//! Design-space exploration example: sweep the FIR kernel over register
//! budgets, RAM latencies and two devices, cache every result on disk, and
//! print the Pareto frontier plus the best-allocator summary.
//!
//! Run with:
//!
//! ```text
//! cargo run --example explore_pareto
//! ```
//!
//! Running it a second time answers every design point from the segment
//! cache file (watch the hit count) and prints byte-identical tables.

use srra_core::AllocatorRegistry;
use srra_explore::{
    best_allocators, pareto_frontier, render_best_allocators, render_frontier, DesignSpace,
    Explorer, SegmentStore,
};
use srra_fpga::DeviceModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kernel = srra_kernels::fir::paper()?;
    // Resolve the allocator axis from the registry by name: any registered
    // strategy — including ones added after this example was written — can be
    // swept without touching the explore crate.
    let registry = AllocatorRegistry::global();
    let allocators: Vec<_> = ["fr", "pr", "cpa", "ks", "greedy"]
        .iter()
        .map(|name| registry.get(name).expect("built-in strategy"))
        .collect();
    let space = DesignSpace::new()
        .with_kernel(kernel)
        .with_allocators(&allocators)
        .with_budgets(&[8, 16, 32, 64, 128])
        .with_ram_latencies(&[1, 2, 4])
        .with_devices(vec![DeviceModel::xcv1000(), DeviceModel::xcv300()]);
    println!(
        "exploring {} design points of the `fir` kernel...\n",
        space.len()
    );

    let cache_path = std::env::temp_dir().join("srra-explore-example.seg");
    let mut store = SegmentStore::open(&cache_path)?;
    let run = Explorer::new(4).explore(&space, &mut store)?;
    println!(
        "{} cache hits, {} evaluated (cache: {})\n",
        run.cache_hits,
        run.evaluated,
        cache_path.display()
    );

    let frontier = pareto_frontier(&run.records);
    print!("{}", render_frontier("fir", &frontier));
    println!();
    print!("{}", render_best_allocators(&best_allocators(&run.records)));
    Ok(())
}
