//! Analytic area model: logic slices and BlockRAM usage.

use std::collections::BTreeMap;

use srra_core::{CompiledKernel, ReplacementPlan};
use srra_dfg::{DataFlowGraph, NodeKind};
use srra_ir::{BinOp, Kernel};

use crate::device::DeviceModel;

/// Estimated resource usage of a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaEstimate {
    /// Logic slices occupied.
    pub slices: u64,
    /// BlockRAM primitives occupied.
    pub block_rams: u64,
    /// Flip-flops used for scalar-replaced data.
    pub data_flip_flops: u64,
}

impl AreaEstimate {
    /// Slice occupancy on the given device, as a fraction.
    pub fn occupancy(&self, device: &DeviceModel) -> f64 {
        device.slice_occupancy(self.slices)
    }

    /// Returns `true` when the estimate fits the device.
    pub fn fits(&self, device: &DeviceModel) -> bool {
        device.fits(self.slices, self.block_rams)
    }
}

/// Analytic area estimator.
///
/// Slices are charged for the datapath operators (per operator class, scaled by operand
/// width), the scalar-replacement register file (one slice per two flip-flops, plus
/// multiplexing for rotation), the loop control and the RAM address generators.
/// BlockRAMs are charged for every array that still has RAM-resident data.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaModel {
    /// Slices for the loop controller and iteration counters.
    pub control_slices: u64,
    /// Slices per bit of a multiplier operand (array multiplier cost).
    pub multiplier_slices_per_bit: f64,
    /// Slices per bit of an adder/comparator/logic operator.
    pub alu_slices_per_bit: f64,
    /// Slices per data flip-flop (two flip-flops per slice => 0.5), including packing
    /// overhead.
    pub slices_per_flip_flop: f64,
    /// Extra slices per register of a partially replaced reference (rotation muxes).
    pub mux_slices_per_partial_register: f64,
    /// Slices per RAM-resident array (address generation).
    pub address_gen_slices: u64,
}

impl Default for AreaModel {
    fn default() -> Self {
        Self {
            control_slices: 60,
            multiplier_slices_per_bit: 9.0,
            alu_slices_per_bit: 0.6,
            slices_per_flip_flop: 0.55,
            mux_slices_per_partial_register: 0.7,
            address_gen_slices: 25,
        }
    }
}

impl AreaModel {
    /// Estimates the area of a design implementing `plan` for `kernel`.
    ///
    /// This builds the kernel's data-flow graph afresh to count its operators;
    /// [`AreaModel::estimate_compiled`] takes it from a shared context.
    pub fn estimate(
        &self,
        kernel: &Kernel,
        plan: &ReplacementPlan,
        device: &DeviceModel,
    ) -> AreaEstimate {
        self.estimate_on(kernel, &DataFlowGraph::from_kernel(kernel), plan, device)
    }

    /// [`AreaModel::estimate`] with the operators counted on the context's
    /// memoized data-flow graph.
    pub fn estimate_compiled(
        &self,
        kernel: &CompiledKernel,
        plan: &ReplacementPlan,
        device: &DeviceModel,
    ) -> AreaEstimate {
        self.estimate_on(kernel.kernel(), kernel.dfg(), plan, device)
    }

    fn estimate_on(
        &self,
        kernel: &Kernel,
        dfg: &DataFlowGraph,
        plan: &ReplacementPlan,
        device: &DeviceModel,
    ) -> AreaEstimate {
        // Datapath operators: one instance per DFG operation (spatial implementation).
        let mut operator_slices = 0.0f64;
        for node in dfg.nodes() {
            let bits = 16.0;
            match node.kind() {
                NodeKind::Binary { op, .. } => {
                    operator_slices += match op {
                        BinOp::Mul | BinOp::Div => self.multiplier_slices_per_bit * bits,
                        _ => self.alu_slices_per_bit * bits,
                    };
                }
                NodeKind::Unary { .. } => operator_slices += self.alu_slices_per_bit * bits,
                _ => {}
            }
        }

        // Scalar-replacement registers and their steering logic.
        let data_flip_flops = plan.total_register_bits();
        let mut register_slices = data_flip_flops as f64 * self.slices_per_flip_flop;
        for r in plan.refs() {
            if r.mode == srra_core::ReplacementMode::Partial {
                register_slices += r.beta as f64 * self.mux_slices_per_partial_register;
            }
        }

        // RAM-resident arrays: BlockRAMs by capacity, plus address generators.
        let mut ram_bits: BTreeMap<&str, u64> = BTreeMap::new();
        for r in plan.refs() {
            if r.steady_miss > 0.0 || r.prologue_loads > 0 || r.epilogue_stores > 0 {
                let decl = kernel
                    .arrays()
                    .iter()
                    .find(|a| a.name() == r.array_name)
                    .expect("array exists");
                ram_bits.insert(decl.name(), decl.total_bits());
            }
        }
        let block_rams: u64 = ram_bits
            .values()
            .map(|bits| device.block_rams_for(*bits))
            .sum();
        let address_slices = ram_bits.len() as u64 * self.address_gen_slices;

        let slices = self.control_slices
            + address_slices
            + operator_slices.ceil() as u64
            + register_slices.ceil() as u64;

        AreaEstimate {
            slices,
            block_rams,
            data_flip_flops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_core::{allocate, AllocatorKind, ReplacementPlan};
    use srra_ir::examples::paper_example;
    use srra_reuse::ReuseAnalysis;

    fn estimate(kind: AllocatorKind, budget: u64) -> AreaEstimate {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = allocate(kind, &kernel, &analysis, budget).unwrap();
        let plan = ReplacementPlan::new(&kernel, &analysis, &allocation);
        AreaModel::default().estimate(&kernel, &plan, &DeviceModel::xcv1000())
    }

    #[test]
    fn more_registers_cost_more_slices() {
        let base = estimate(AllocatorKind::NoReplacement, 0);
        let fr = estimate(AllocatorKind::FullReuse, 64);
        let cpa = estimate(AllocatorKind::CriticalPathAware, 64);
        assert!(fr.slices > base.slices);
        assert!(cpa.slices > base.slices);
        assert_eq!(base.data_flip_flops, 0);
        assert_eq!(fr.data_flip_flops, 53 * 16);
        assert_eq!(cpa.data_flip_flops, 64 * 16);
    }

    #[test]
    fn fully_replaced_read_only_arrays_still_occupy_their_block_ram() {
        // Even a fully replaced reference needs its array in RAM for the prologue
        // loads, so the BlockRAM count does not drop below the number of live arrays.
        let base = estimate(AllocatorKind::NoReplacement, 0);
        let fr = estimate(AllocatorKind::FullReuse, 64);
        assert_eq!(base.block_rams, fr.block_rams);
    }

    #[test]
    fn estimates_fit_the_paper_device() {
        let device = DeviceModel::xcv1000();
        for kind in [
            AllocatorKind::NoReplacement,
            AllocatorKind::FullReuse,
            AllocatorKind::PartialReuse,
            AllocatorKind::CriticalPathAware,
        ] {
            let est = estimate(kind, 64);
            assert!(est.fits(&device), "{kind:?} should fit: {est:?}");
            assert!(est.occupancy(&device) < 0.5);
        }
    }
}
