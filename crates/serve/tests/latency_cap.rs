//! RAM latencies above `MemoryCostModel::MAX_RAM_LATENCY` are refused before
//! any evaluation (both codecs alike: `validation_parity.rs`), and at the cap
//! every paper kernel's record still adds up.
//!
//! A latency near `u64::MAX` used to overflow the critical-path sums: a
//! release build served a record whose total was below its compute cycles,
//! and a debug build panicked.

use srra_core::{AllocatorRegistry, MemoryCostModel, RamLatencyTooLarge};
use srra_explore::{evaluate_point, DesignPoint};
use srra_fpga::DeviceModel;
use srra_kernels::compiled_paper_suite;
use srra_serve::{QueryPoint, Request};

const CAP: u64 = MemoryCostModel::MAX_RAM_LATENCY;

/// An `explore` and an `mexplore` whose second point has `ram_latency`, with
/// their op names.
fn explore_requests(ram_latency: u64) -> [(&'static str, Request); 2] {
    let points = vec![
        QueryPoint::new("fir", "cpa", 32),
        QueryPoint {
            ram_latency,
            ..QueryPoint::new("mat", "pr", 16)
        },
    ];
    [
        (
            "explore",
            Request::Explore {
                points: points.clone(),
            },
        ),
        ("mexplore", Request::MultiExplore { points }),
    ]
}

#[test]
fn explore_points_past_the_latency_cap_are_refused_with_the_typed_error() {
    for latency in [CAP + 1, u64::MAX / 2, u64::MAX] {
        for (op, request) in explore_requests(latency) {
            let err = Request::parse(&request.render()).expect_err("over-cap latency accepted");
            let cycles = latency;
            assert_eq!(err, format!("`{op}` {}", RamLatencyTooLarge { cycles }));
        }
    }
}

#[test]
fn latencies_up_to_the_cap_are_accepted() {
    for latency in [0, 1, CAP] {
        for (_, request) in explore_requests(latency) {
            assert_eq!(Request::parse(&request.render()), Ok(request));
        }
    }
}

#[test]
fn records_add_up_at_the_latency_cap() {
    let kernels = compiled_paper_suite();
    for (kernel_index, kernel) in kernels.iter().enumerate() {
        for allocator in AllocatorRegistry::global().iter() {
            for device in [DeviceModel::xcv1000(), DeviceModel::xcv300()] {
                let point = DesignPoint {
                    kernel_index,
                    kernel: kernel.name().to_owned(),
                    allocator,
                    budget: 32,
                    ram_latency: CAP,
                    device,
                };
                let record = evaluate_point(kernel, &point);
                assert!(record.feasible, "{}", point.canonical());
                assert_eq!(
                    record.total_cycles,
                    record.compute_cycles + record.memory_cycles + record.transfer_cycles,
                    "{}",
                    point.canonical()
                );
                assert!(record.memory_cycles > 0 || record.transfer_cycles > 0);
            }
        }
    }
}
