//! Resource-constrained list scheduling of one loop-body iteration.

use std::collections::HashMap;

use srra_dfg::{DataFlowGraph, LatencyModel, NodeId, NodeKind, Storage, StorageMap};
use srra_ir::BinOp;

/// Hardware resource limits visible to the scheduler.
///
/// A fine-grain configurable architecture can instantiate one operator per operation
/// (a fully spatial implementation), so operator counts are unlimited by default; the
/// binding of arrays to BlockRAMs, however, fixes the number of concurrent accesses per
/// array to the RAM's port count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Concurrent accesses allowed per array per cycle (BlockRAM ports).
    pub ram_ports_per_array: u32,
    /// Maximum multipliers active in any cycle (`None` = unlimited, fully spatial).
    pub multipliers: Option<u32>,
    /// Maximum adders/subtractors/comparators active in any cycle (`None` = unlimited).
    pub alus: Option<u32>,
}

impl Default for ResourceLimits {
    fn default() -> Self {
        Self {
            ram_ports_per_array: 2,
            multipliers: None,
            alus: None,
        }
    }
}

/// Resource classes tracked by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Resource {
    RamPort(srra_ir::ArrayId),
    Multiplier,
    Alu,
}

/// The schedule of one steady-state loop iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationSchedule {
    start_times: Vec<u64>,
    finish_times: Vec<u64>,
    cycles: u64,
}

impl IterationSchedule {
    /// Start cycle of a node.
    pub fn start(&self, node: NodeId) -> u64 {
        self.start_times[node.index()]
    }

    /// Finish cycle of a node (start + latency).
    pub fn finish(&self, node: NodeId) -> u64 {
        self.finish_times[node.index()]
    }

    /// Total cycles one iteration occupies (the maximum finish time, at least 1).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }
}

/// Resource-constrained list scheduler.
///
/// Nodes are scheduled in priority order (longest path to a sink first, the classic
/// critical-path heuristic) at the earliest cycle where their predecessors have
/// finished and a resource of their class is free.
#[derive(Debug, Clone, Default)]
pub struct ListScheduler {
    limits: ResourceLimits,
}

impl ListScheduler {
    /// Creates a scheduler with the given resource limits.
    pub fn new(limits: ResourceLimits) -> Self {
        Self { limits }
    }

    /// The scheduler's resource limits.
    pub fn limits(&self) -> &ResourceLimits {
        &self.limits
    }

    fn resource_of(
        &self,
        dfg: &DataFlowGraph,
        node: NodeId,
        storage: &StorageMap,
    ) -> Option<(Resource, u32)> {
        match dfg.node(node).kind() {
            NodeKind::Reference { ref_id, array, .. } => {
                if storage.storage(*ref_id) == Storage::Ram {
                    Some((Resource::RamPort(*array), self.limits.ram_ports_per_array))
                } else {
                    None
                }
            }
            NodeKind::Binary { op, .. } => match op {
                BinOp::Mul | BinOp::Div => self
                    .limits
                    .multipliers
                    .map(|limit| (Resource::Multiplier, limit)),
                _ => self.limits.alus.map(|limit| (Resource::Alu, limit)),
            },
            NodeKind::Unary { .. } => self.limits.alus.map(|limit| (Resource::Alu, limit)),
            NodeKind::Input => None,
        }
    }

    /// Schedules one iteration of the loop body.
    pub fn schedule(
        &self,
        dfg: &DataFlowGraph,
        model: &LatencyModel,
        storage: &StorageMap,
    ) -> IterationSchedule {
        let n = dfg.node_count();
        let latency: Vec<u64> = dfg
            .node_ids()
            .map(|id| model.node_latency(dfg.node(id), storage))
            .collect();

        // Priority: longest latency path from the node to any sink (inclusive).
        let order = dfg.topological_order();
        let mut downstream = vec![0u64; n];
        for &node in order.iter().rev() {
            let best = dfg
                .successors(node)
                .iter()
                .map(|s| downstream[s.index()])
                .max()
                .unwrap_or(0);
            downstream[node.index()] = best + latency[node.index()];
        }

        let mut priority: Vec<NodeId> = dfg.node_ids().collect();
        priority.sort_by(|a, b| {
            downstream[b.index()]
                .cmp(&downstream[a.index()])
                .then(a.index().cmp(&b.index()))
        });

        let mut start = vec![u64::MAX; n];
        let mut finish = vec![0u64; n];
        let mut scheduled = vec![false; n];
        let mut usage: HashMap<(Resource, u64), u32> = HashMap::new();
        let mut remaining = n;

        while remaining > 0 {
            let mut progressed = false;
            for &node in &priority {
                if scheduled[node.index()] {
                    continue;
                }
                let preds_done = dfg.predecessors(node).iter().all(|p| scheduled[p.index()]);
                if !preds_done {
                    continue;
                }
                let ready: u64 = dfg
                    .predecessors(node)
                    .iter()
                    .map(|p| finish[p.index()])
                    .max()
                    .unwrap_or(0);
                let lat = latency[node.index()];
                let slot = match self.resource_of(dfg, node, storage) {
                    None => ready,
                    Some((resource, limit)) => {
                        let mut t = ready;
                        loop {
                            let span = lat.max(1);
                            let conflict = (t..t + span)
                                .any(|c| usage.get(&(resource, c)).copied().unwrap_or(0) >= limit);
                            if !conflict {
                                for c in t..t + span {
                                    *usage.entry((resource, c)).or_insert(0) += 1;
                                }
                                break t;
                            }
                            t += 1;
                        }
                    }
                };
                start[node.index()] = slot;
                finish[node.index()] = slot + lat;
                scheduled[node.index()] = true;
                remaining -= 1;
                progressed = true;
            }
            assert!(progressed, "scheduler made no progress (cyclic graph?)");
        }

        let cycles = finish.iter().copied().max().unwrap_or(0).max(1);
        IterationSchedule {
            start_times: start,
            finish_times: finish,
            cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_ir::examples::{paper_example, stencil3};
    use srra_ir::KernelBuilder;

    fn paper_dfg() -> (srra_ir::Kernel, DataFlowGraph) {
        let kernel = paper_example();
        let dfg = DataFlowGraph::from_kernel(&kernel);
        (kernel, dfg)
    }

    #[test]
    fn unconstrained_schedule_matches_the_critical_path() {
        let (_, dfg) = paper_dfg();
        let schedule = ListScheduler::default().schedule(
            &dfg,
            &LatencyModel::default(),
            &StorageMap::all_ram(),
        );
        // a/b (1) -> op1 (2) -> d (1) -> op2 (2) -> e (1) = 7 cycles.
        assert_eq!(schedule.cycles(), 7);
    }

    #[test]
    fn register_promotion_shortens_the_schedule() {
        let (kernel, dfg) = paper_dfg();
        let table = kernel.reference_table();
        let mut storage = StorageMap::all_ram();
        for name in ["a", "b", "d", "e"] {
            storage.set(table.find_by_name(name).unwrap().id(), Storage::Register);
        }
        let schedule = ListScheduler::default().schedule(&dfg, &LatencyModel::default(), &storage);
        assert_eq!(schedule.cycles(), 4);
    }

    #[test]
    fn precedence_is_respected() {
        let (_, dfg) = paper_dfg();
        let schedule = ListScheduler::default().schedule(
            &dfg,
            &LatencyModel::default(),
            &StorageMap::all_ram(),
        );
        for node in dfg.node_ids() {
            for &succ in dfg.successors(node) {
                assert!(schedule.start(succ) >= schedule.finish(node));
            }
        }
    }

    #[test]
    fn single_ported_ram_serialises_same_array_accesses() {
        // Three reads of the same array in one iteration: with one port they cannot
        // overlap, with two ports two of them can.
        let kernel = stencil3(32);
        let dfg = DataFlowGraph::from_kernel(&kernel);
        let single = ListScheduler::new(ResourceLimits {
            ram_ports_per_array: 1,
            ..ResourceLimits::default()
        })
        .schedule(&dfg, &LatencyModel::default(), &StorageMap::all_ram());
        let dual = ListScheduler::default().schedule(
            &dfg,
            &LatencyModel::default(),
            &StorageMap::all_ram(),
        );
        assert!(single.cycles() > dual.cycles());
    }

    #[test]
    fn limited_multipliers_serialise_independent_products() {
        // Two independent multiplications: unlimited multipliers run them in parallel,
        // a single multiplier serialises them.
        let b = KernelBuilder::new("two_muls");
        let i = b.add_loop("i", 8);
        let x = b.add_array("x", &[8], 16);
        let y = b.add_array("y", &[8], 16);
        let o = b.add_array("o", &[8], 16);
        let p1 = b.mul(b.read(x, &[b.idx(i)]), b.int(3));
        let p2 = b.mul(b.read(y, &[b.idx(i)]), b.int(5));
        let sum = b.add(p1, p2);
        b.store(o, &[b.idx(i)], sum);
        let kernel = b.build().unwrap();
        let dfg = DataFlowGraph::from_kernel(&kernel);
        let unlimited = ListScheduler::default().schedule(
            &dfg,
            &LatencyModel::default(),
            &StorageMap::all_ram(),
        );
        let constrained = ListScheduler::new(ResourceLimits {
            multipliers: Some(1),
            ..ResourceLimits::default()
        })
        .schedule(&dfg, &LatencyModel::default(), &StorageMap::all_ram());
        assert!(constrained.cycles() > unlimited.cycles());
    }

    #[test]
    fn zero_latency_graph_still_takes_one_cycle() {
        let (kernel, dfg) = paper_dfg();
        let table = kernel.reference_table();
        let mut storage = StorageMap::all_ram();
        for info in table.iter() {
            storage.set(info.id(), Storage::Register);
        }
        let zero_ops = LatencyModel::default()
            .with_mul_latency(0)
            .with_register_latency(0);
        let schedule = ListScheduler::default().schedule(&dfg, &zero_ops, &storage);
        assert_eq!(schedule.cycles(), 1);
    }
}
