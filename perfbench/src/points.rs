//! The design-point universe the workloads draw from, seeded sub-spaces of
//! it, and the record fingerprints the `explore_cold` output check compares
//! against `expected/explore_cold.txt`.

use std::collections::HashMap;
use std::fmt::Write as _;

use srra_core::{AllocatorRef, AllocatorRegistry, CompiledKernel};
use srra_explore::{fnv1a_64, DesignPoint, DesignSpace, Explorer, MemoryStore, PointRecord};
use srra_fpga::DeviceModel;
use srra_serve::QueryPoint;

use crate::util::Rng;

/// Register budgets of the recorded universe.  Every seeded sub-space of
/// the read-only workloads stays inside it, so the expected file covers
/// every input any seed can produce.
pub const BUDGETS: std::ops::RangeInclusive<u64> = 1..=64;
/// RAM latencies (cycles) of the recorded universe.
pub const LATENCIES: std::ops::RangeInclusive<u64> = 1..=6;

pub fn allocators() -> Vec<AllocatorRef> {
    AllocatorRegistry::global().iter().collect()
}

pub fn devices() -> Vec<DeviceModel> {
    vec![DeviceModel::xcv1000(), DeviceModel::xcv300()]
}

/// Every paper kernel × every registered allocator × both devices over the
/// given budget and latency axes, with fresh (un-memoized) kernel contexts.
pub fn space(budgets: &[u64], latencies: &[u64]) -> DesignSpace {
    DesignSpace::for_kernels(srra_kernels::compiled_paper_suite())
        .with_allocators(&allocators())
        .with_budgets(budgets)
        .with_ram_latencies(latencies)
        .with_devices(devices())
}

/// Budgets of the prefilled records the serving workloads read.  Every
/// allocator accepts them, so each record carries full model outputs and the
/// cost of a read does not hinge on how many tiny infeasible records a seed
/// draws.
pub const SERVED_BUDGETS: std::ops::RangeInclusive<u64> = 16..=64;

/// Seeded axes: `budgets` distinct budgets of `range` and `latencies`
/// distinct latencies of [`LATENCIES`].
pub fn seeded_axes(
    seed: u64,
    stream: u64,
    range: std::ops::RangeInclusive<u64>,
    budgets: usize,
    latencies: usize,
) -> (Vec<u64>, Vec<u64>) {
    let mut rng = Rng::new(seed, stream);
    (
        rng.sample_sorted(range, budgets),
        rng.sample_sorted(LATENCIES, latencies),
    )
}

/// The wire-level name of the point a record answers.
pub fn query_of(record: &PointRecord) -> QueryPoint {
    QueryPoint {
        kernel: record.kernel.clone(),
        algorithm: record.algorithm.clone(),
        budget: record.budget,
        ram_latency: record.ram_latency,
        device: record.device.clone(),
    }
}

/// The in-process reference answer for a named point: `evaluate_point` on a
/// kernel context of `kernels` (looked up by name).
pub fn reference_record(kernels: &[CompiledKernel], point: &QueryPoint) -> PointRecord {
    let kernel_index = kernels
        .iter()
        .position(|kernel| kernel.name() == point.kernel)
        .expect("query names a paper kernel");
    let design = DesignPoint {
        kernel_index,
        kernel: point.kernel.clone(),
        allocator: AllocatorRegistry::global()
            .get(&point.algorithm)
            .expect("registered allocator"),
        budget: point.budget,
        ram_latency: point.ram_latency,
        device: srra_serve::device_by_name(&point.device).expect("known device"),
    };
    srra_explore::evaluate_point(&kernels[kernel_index], &design)
}

/// Record indices in popularity order for Zipf ranks.  Consecutive ranks
/// cycle through every (kernel, algorithm, device) group, so the hottest
/// keys cover every group whatever the seed and the cost mix of the hot set
/// does not hinge on which few records a seed happens to make hottest.
pub fn popularity_order(records: &[PointRecord]) -> Vec<usize> {
    let mut seen: HashMap<(&str, &str, &str), usize> = HashMap::new();
    let slots: Vec<usize> = records
        .iter()
        .map(|r| {
            let count = seen
                .entry((&r.kernel, &r.algorithm, &r.device))
                .or_insert(0);
            *count += 1;
            *count - 1
        })
        .collect();
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| (slots[i], i));
    order
}

/// A 32-bit fingerprint of every model output of a record, independent of
/// the product's own encodings so a codec change cannot move it.
pub fn fingerprint(record: &PointRecord) -> u32 {
    let text = format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{:016x}|{:016x}|{}|{}|{}",
        record.canonical,
        record.kernel,
        record.algorithm,
        record.version,
        record.budget,
        record.ram_latency,
        record.device,
        record.feasible,
        record.fits,
        record.registers_used,
        record.total_cycles,
        record.compute_cycles,
        record.memory_cycles,
        record.transfer_cycles,
        record.clock_period_ns.to_bits(),
        record.execution_time_us.to_bits(),
        record.slices,
        record.block_rams,
        record.distribution,
    );
    let hash = fnv1a_64(text.as_bytes());
    (hash ^ (hash >> 32)) as u32
}

fn group_key(record: &PointRecord) -> String {
    format!(
        "{} {} {} {}",
        record.kernel, record.algorithm, record.device, record.ram_latency
    )
}

const EXPECTED: &str = include_str!("../expected/explore_cold.txt");

/// Expected fingerprints per (kernel, algorithm, device, latency) group,
/// one per budget of [`BUDGETS`].
pub struct Expected(HashMap<String, Vec<u32>>);

impl Expected {
    pub fn load() -> Self {
        let mut groups = HashMap::new();
        for line in EXPECTED.lines().filter(|line| !line.starts_with('#')) {
            let (key, hashes) = line.rsplit_once(' ').expect("expected line has a key");
            let values = (0..hashes.len() / 8)
                .map(|i| {
                    u32::from_str_radix(&hashes[i * 8..i * 8 + 8], 16).expect("hex fingerprint")
                })
                .collect();
            groups.insert(key.to_owned(), values);
        }
        Self(groups)
    }

    /// Whether `record` carries exactly the recorded model outputs.
    pub fn matches(&self, record: &PointRecord) -> bool {
        let slot = record
            .budget
            .checked_sub(*BUDGETS.start())
            .map(|i| i as usize);
        self.0
            .get(&group_key(record))
            .zip(slot)
            .and_then(|(values, slot)| values.get(slot))
            .is_some_and(|&value| value == fingerprint(record))
    }
}

/// Renders the expected file over the whole universe (`record-expected`).
pub fn record_expected() -> String {
    let budgets: Vec<u64> = BUDGETS.collect();
    let latencies: Vec<u64> = LATENCIES.collect();
    let run = Explorer::new(crate::util::nproc())
        .explore(&space(&budgets, &latencies), &mut MemoryStore::new())
        .expect("the in-memory store cannot fail");
    let mut groups: Vec<(String, Vec<(u64, u32)>)> = Vec::new();
    for record in &run.records {
        let key = group_key(record);
        match groups.iter_mut().find(|(held, _)| *held == key) {
            Some((_, values)) => values.push((record.budget, fingerprint(record))),
            None => groups.push((key, vec![(record.budget, fingerprint(record))])),
        }
    }
    let mut out = format!(
        "# explore_cold expected model outputs: <kernel> <algorithm> <device> <ram latency> \
         then one 8-hex-digit fingerprint per budget {}..={}.\n\
         # Regenerate with `srra-perfbench record-expected <path>` only when the model's outputs \
         are meant to change.\n",
        BUDGETS.start(),
        BUDGETS.end()
    );
    for (key, mut values) in groups {
        values.sort_unstable();
        out.push_str(&key);
        out.push(' ');
        for (_, value) in values {
            let _ = write!(out, "{value:08x}");
        }
        out.push('\n');
    }
    out
}
