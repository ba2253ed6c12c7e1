//! Integration test: a shared `CompiledKernel` costs every allocation exactly as
//! the one-shot `&Kernel` entry points do.
//!
//! The context memoizes the cost model's memory stages in one slot per RAM
//! latency.  Stages cached under the wrong latency would make a later point
//! read another latency's stages, so each kernel's context is walked through
//! latencies 6, 1, 6 and one latency past the last slot, and every result is
//! compared with a fresh `&Kernel` call that derives everything afresh.
//!
//! The paper kernels' stages happen to be the same at every latency, so the
//! walk also covers one kernel whose stages are not.

use srra_core::{memory_cost, AllocatorRegistry, CompiledKernel, MemoryCostModel, ReplacementPlan};
use srra_fpga::{AreaModel, DeviceModel, EvaluationOptions, HardwareDesign};
use srra_ir::{Kernel, KernelBuilder};
use srra_kernels::compiled_paper_suite;

const BUDGET: u64 = 32;

/// `y[i][j] = a[j] + i * j`: `a[j]` is on the critical path only once two RAM
/// accesses outweigh the multiplier (latency 6, not latency 1).
fn latency_sensitive() -> Kernel {
    let b = KernelBuilder::new("latency_sensitive");
    let i = b.add_loop("i", 16);
    let j = b.add_loop("j", 8);
    let a = b.add_array("a", &[8], 16);
    let y = b.add_array("y", &[16, 8], 16);
    let product = b.mul(b.loop_index(i), b.loop_index(j));
    let sum = b.add(b.read(a, &[b.idx(j)]), product);
    b.store(y, &[b.idx(i), b.idx(j)], sum);
    b.build().expect("statically valid")
}

fn kernels() -> Vec<CompiledKernel> {
    let mut kernels = compiled_paper_suite();
    kernels.push(CompiledKernel::new(latency_sensitive()));
    kernels
}

#[test]
fn memory_stages_depend_on_the_ram_latency() {
    // Without this the walk below could not tell one latency's stages from
    // another's.
    let kernel = CompiledKernel::new(latency_sensitive());
    assert_eq!(kernel.memory_stages(1).len(), 1);
    assert_eq!(kernel.memory_stages(6).len(), 2);
}

#[test]
fn a_shared_context_costs_every_latency_like_a_fresh_kernel() {
    let past_slots = CompiledKernel::MEMORY_STAGE_SLOTS + 1;
    for context in kernels() {
        let (kernel, analysis) = (context.kernel(), context.analysis());
        for allocator in AllocatorRegistry::global().iter() {
            let allocation = allocator
                .allocate(&context, BUDGET)
                .unwrap_or_else(|err| panic!("{} {}: {err}", context.name(), allocator.name()));
            let plan = context.replacement_plan(&allocation);
            assert_eq!(plan, ReplacementPlan::new(kernel, analysis, &allocation));
            for device in [DeviceModel::xcv1000(), DeviceModel::xcv300()] {
                assert_eq!(
                    AreaModel::default().estimate_compiled(&context, &plan, &device),
                    AreaModel::default().estimate(kernel, &plan, &device)
                );
                for latency in [6, 1, 6, past_slots] {
                    let at = || {
                        format!(
                            "{} {} {} latency {latency}",
                            context.name(),
                            allocator.name(),
                            device.name()
                        )
                    };
                    let model = MemoryCostModel::default().with_ram_latency(latency);
                    assert_eq!(
                        context.memory_cost(&allocation, &model),
                        memory_cost(kernel, analysis, &allocation, &model),
                        "{}",
                        at()
                    );
                    let options = EvaluationOptions {
                        memory: model,
                        ..EvaluationOptions::default()
                    };
                    assert_eq!(
                        HardwareDesign::evaluate_compiled(&context, &allocation, &device, &options),
                        HardwareDesign::evaluate(kernel, analysis, &allocation, &device, &options),
                        "{}",
                        at()
                    );
                }
            }
        }
    }
}
