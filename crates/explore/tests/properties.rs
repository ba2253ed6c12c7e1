//! Property-based tests for the exploration engine, its stores and the Pareto
//! extraction: non-domination of every frontier point, byte-identical cached
//! re-runs, and parallel/serial agreement.

use proptest::prelude::*;
use srra_core::AllocatorKind;
use srra_explore::codec::{from_bytes, to_bytes};
use srra_explore::{
    dominates, exploration_csv, pareto_frontier, render_exploration, DesignSpace, Explorer,
    MemoryStore, PointRecord, SegmentStore,
};
use srra_fpga::DeviceModel;
use srra_ir::{Kernel, KernelBuilder};

/// A small two-statement kernel family so generated spaces stay cheap.
fn generated_kernel(ni: u64, nj: u64, nk: u64, chain: bool) -> Kernel {
    let b = KernelBuilder::new("generated");
    let i = b.add_loop("i", ni);
    let j = b.add_loop("j", nj);
    let k = b.add_loop("k", nk);
    let a = b.add_array("a", &[nk], 16);
    let bb = b.add_array("b", &[nk, nj], 16);
    let c = b.add_array("c", &[nj], 16);
    let d = b.add_array("d", &[ni, nk], 16);
    let e = b.add_array("e", &[ni, nj, nk], 16);
    let op1 = b.mul(b.read(a, &[b.idx(k)]), b.read(bb, &[b.idx(k), b.idx(j)]));
    b.store(d, &[b.idx(i), b.idx(k)], op1);
    let rhs = if chain {
        b.read(d, &[b.idx(i), b.idx(k)])
    } else {
        b.read(a, &[b.idx(k)])
    };
    let op2 = b.mul(b.read(c, &[b.idx(j)]), rhs);
    b.store(e, &[b.idx(i), b.idx(j), b.idx(k)], op2);
    b.build().expect("generated kernel is valid")
}

fn generated_space(
    ni: u64,
    nj: u64,
    nk: u64,
    chain: bool,
    budgets: &[u64],
    latencies: &[u64],
    both_devices: bool,
) -> DesignSpace {
    let devices = if both_devices {
        vec![DeviceModel::xcv1000(), DeviceModel::xcv300()]
    } else {
        vec![DeviceModel::xcv1000()]
    };
    DesignSpace::new()
        .with_kernel(generated_kernel(ni, nj, nk, chain))
        .with_allocators(&[
            AllocatorKind::FullReuse,
            AllocatorKind::PartialReuse,
            AllocatorKind::CriticalPathAware,
        ])
        .with_budgets(budgets)
        .with_ram_latencies(latencies)
        .with_devices(devices)
}

fn scratch_cache_path(tag: &str, case: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "srra-explore-prop-{tag}-{}-{case}.seg",
        std::process::id()
    ))
}

/// Strings stuffed with everything the JSONL escaping has to survive: quotes,
/// backslashes, control characters, JSON syntax and multi-byte code points.
fn nasty_string() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(vec![
            'a', 'Z', '0', ' ', ';', '=', ':', ',', '{', '}', '[', ']', '"', '\\', '/', '\n', '\r',
            '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'é', '→', '𝕊',
        ]),
        0..16,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// Finite but extreme `f64`s: subnormals, the type's edges, exact zeroes of
/// both signs, and arbitrary finite bit patterns.
fn extreme_f64() -> impl Strategy<Value = f64> {
    (any::<u64>(), 0u8..8).prop_map(|(bits, pick)| match pick {
        0 => 0.0,
        1 => -0.0,
        2 => f64::MAX,
        3 => f64::MIN,
        4 => f64::MIN_POSITIVE,
        5 => 5e-324, // Smallest positive subnormal.
        6 => f64::EPSILON,
        _ => {
            let raw = f64::from_bits(bits);
            if raw.is_finite() {
                raw
            } else {
                // NaN/inf have no JSON literal; fold them onto a finite value
                // derived from the same draw.
                (bits >> 12) as f64 * 1e-3
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pareto_points_are_mutually_non_dominated_and_cover_all_feasible(
        ni in 1u64..4,
        nj in 2u64..10,
        nk in 2u64..10,
        chain in any::<bool>(),
        budget_lo in 5u64..40,
        budget_hi in 40u64..160,
    ) {
        let space = generated_space(
            ni, nj, nk, chain,
            &[budget_lo, budget_hi],
            &[1, 2],
            true,
        );
        let run = Explorer::new(2)
            .explore(&space, &mut MemoryStore::new())
            .expect("in-memory exploration cannot fail");
        let frontier = pareto_frontier(&run.records);
        // (a) every frontier pair is mutually non-dominated.
        for x in &frontier {
            prop_assert!(x.feasible);
            for y in &frontier {
                prop_assert!(!dominates(x, y), "frontier point dominates another");
            }
        }
        // (b) every feasible record is either on the frontier or dominated by /
        // objective-equal to a frontier point.
        let covered = |r: &PointRecord| {
            frontier.iter().any(|f| {
                dominates(f, r)
                    || (f.total_cycles == r.total_cycles
                        && f.slices == r.slices
                        && f.registers_used == r.registers_used)
            })
        };
        for record in run.records.iter().filter(|r| r.feasible) {
            prop_assert!(covered(record), "feasible point neither on nor under the frontier");
        }
    }

    #[test]
    fn cached_reruns_are_byte_identical_to_cold_runs(
        ni in 1u64..4,
        nj in 2u64..8,
        nk in 2u64..8,
        chain in any::<bool>(),
        budget in 6u64..80,
        latency in 1u64..4,
        case in any::<u32>(),
    ) {
        let space = generated_space(ni, nj, nk, chain, &[budget], &[latency], false);
        let path = scratch_cache_path("rerun", u64::from(case));
        let _ = std::fs::remove_file(&path);

        let cold = {
            let mut store = SegmentStore::open(&path).expect("cache opens");
            Explorer::new(2).explore(&space, &mut store).expect("cold run")
        };
        prop_assert_eq!(cold.cache_hits, 0);
        let warm = {
            let mut store = SegmentStore::open(&path).expect("cache reopens");
            Explorer::new(2).explore(&space, &mut store).expect("warm run")
        };
        std::fs::remove_file(&path).expect("scratch cache removed");

        prop_assert_eq!(warm.cache_hits, space.len());
        prop_assert_eq!(warm.evaluated, 0);
        // Identical record lists after a disk round trip...
        prop_assert_eq!(&warm.records, &cold.records);
        // ...and byte-identical renders, text and CSV.
        prop_assert_eq!(render_exploration(&warm), render_exploration(&cold));
        prop_assert_eq!(exploration_csv(&warm), exploration_csv(&cold));
    }
}

// The record codec is microseconds-cheap per case, so it gets its own block
// with a much larger case budget than the exploration properties above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn point_record_json_lines_round_trip_bit_exactly(
        key in any::<u64>(),
        canonical in nasty_string(),
        kernel in nasty_string(),
        algorithm in nasty_string(),
        version in nasty_string(),
        device in nasty_string(),
        distribution in nasty_string(),
        feasible in any::<bool>(),
        fits in any::<bool>(),
        cycles in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        sizes in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        clock_period_ns in extreme_f64(),
        execution_time_us in extreme_f64(),
    ) {
        let (budget, ram_latency, total_cycles, compute_cycles, memory_cycles) = cycles;
        let (transfer_cycles, registers_used, slices, block_rams) = sizes;
        let record = PointRecord {
            key,
            canonical,
            kernel,
            algorithm,
            version,
            budget,
            ram_latency,
            device,
            feasible,
            fits,
            registers_used,
            total_cycles,
            compute_cycles,
            memory_cycles,
            transfer_cycles,
            clock_period_ns,
            execution_time_us,
            slices,
            block_rams,
            distribution,
        };
        let line = record.to_json_line();
        prop_assert!(!line.contains('\n'), "encoded record must stay on one line");
        let back = match PointRecord::from_json_line(&line) {
            Ok(back) => back,
            Err(err) => return Err(TestCaseError::fail(format!(
                "failed to parse own encoding `{line}`: {err}"
            ))),
        };
        prop_assert_eq!(&back, &record);
        // Bit-exact floats (PartialEq alone would let -0.0 == 0.0 slip by).
        prop_assert_eq!(
            back.clock_period_ns.to_bits(),
            record.clock_period_ns.to_bits()
        );
        prop_assert_eq!(
            back.execution_time_us.to_bits(),
            record.execution_time_us.to_bits()
        );
        // Re-encoding is byte-identical, so cached files never churn.
        prop_assert_eq!(back.to_json_line(), line);

        // The binary codec (wire payloads and segment files) is exact too.
        let bytes = to_bytes(&record).expect("a record always encodes");
        let back: PointRecord = match from_bytes(&bytes) {
            Ok(back) => back,
            Err(err) => return Err(TestCaseError::fail(format!(
                "failed to decode own binary encoding: {err}"
            ))),
        };
        prop_assert_eq!(&back, &record);
        prop_assert_eq!(
            back.clock_period_ns.to_bits(),
            record.clock_period_ns.to_bits()
        );
        prop_assert_eq!(
            back.execution_time_us.to_bits(),
            record.execution_time_us.to_bits()
        );
        prop_assert_eq!(to_bytes(&back).expect("re-encodes"), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_and_serial_exploration_produce_the_same_result_set(
        ni in 1u64..4,
        nj in 2u64..8,
        nk in 2u64..8,
        chain in any::<bool>(),
        budget_lo in 5u64..40,
        budget_hi in 40u64..120,
        jobs in 2usize..9,
    ) {
        let space = generated_space(
            ni, nj, nk, chain,
            &[budget_lo, budget_hi],
            &[1, 2],
            true,
        );
        let serial = Explorer::new(1)
            .explore(&space, &mut MemoryStore::new())
            .expect("serial run");
        let parallel = Explorer::new(jobs)
            .explore(&space, &mut MemoryStore::new())
            .expect("parallel run");
        prop_assert_eq!(serial.records.len(), space.len());
        prop_assert_eq!(&serial.records, &parallel.records);
        prop_assert_eq!(
            render_exploration(&serial),
            render_exploration(&parallel)
        );
    }
}
