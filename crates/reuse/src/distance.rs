//! Dependence / reuse distances between references of the same array.
//!
//! The paper's reuse analysis "relies on the concept of dependence distance": the
//! compiler inspects the affine index functions and determines at which loop iterations
//! the same data element is accessed again.  Two flavours matter here:
//!
//! * **self reuse** — a single reference touches the same element again after one
//!   iteration of an invariant loop (handled in [`crate::registers`]), and
//! * **group reuse** — two distinct references of the same array (for example the
//!   shifted window references `in[i]`, `in[i+1]`, `in[i+2]` of a stencil or FIR
//!   kernel) touch the same element a fixed number of iterations apart.
//!
//! Group reuse is computed for *uniformly generated* references: references whose
//! subscripts have identical linear parts and differ only by constants.  This is the
//! classical Callahan–Carr–Kennedy setting and covers all six evaluation kernels.

use srra_ir::{Kernel, LoopId, RefId, RefInfo};

/// A constant iteration-space distance between two references of the same array.
///
/// `distance[d]` is the number of iterations of the loop at depth `d` separating the
/// two accesses of the same element; the source reference accesses the element first.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DependenceDistance {
    distance: Vec<i64>,
}

impl DependenceDistance {
    /// Creates a distance vector (one entry per loop, outermost first).
    pub fn new(distance: Vec<i64>) -> Self {
        Self { distance }
    }

    /// The per-loop distances, outermost first.
    pub fn components(&self) -> &[i64] {
        &self.distance
    }

    /// Returns `true` when every component is zero: the two references touch the same
    /// element in the same iteration.
    pub fn is_loop_independent(&self) -> bool {
        self.distance.iter().all(|&d| d == 0)
    }

    /// Returns `true` when the distance is lexicographically non-negative, i.e. the
    /// reuse is realisable by executing the loop in its written order.
    pub fn is_lexicographically_non_negative(&self) -> bool {
        for &d in &self.distance {
            if d > 0 {
                return true;
            }
            if d < 0 {
                return false;
            }
        }
        true
    }

    /// The outermost loop with a non-zero component, i.e. the loop that carries the
    /// reuse.  `None` for loop-independent reuse.
    pub fn carrying_loop(&self) -> Option<LoopId> {
        self.distance.iter().position(|&d| d != 0).map(LoopId::new)
    }
}

/// Computes the dependence distance between two uniformly generated references.
///
/// Returns `None` when the references target different arrays, have different ranks,
/// differ in their linear parts (not uniformly generated), or when the constant
/// difference cannot be produced by an integer iteration distance.
///
/// Each subscript dimension must be driven by at most one loop for the distance to be
/// uniquely determined; subscripts mixing several loops in one dimension (e.g. `i + j`)
/// are resolved through the innermost participating loop, which is the convention that
/// matches sliding-window kernels such as FIR (`x[i + j]`).
pub fn dependence_distance(
    depth: usize,
    from: &RefInfo,
    to: &RefInfo,
) -> Option<DependenceDistance> {
    if from.array() != to.array() || from.subscripts().len() != to.subscripts().len() {
        return None;
    }
    let mut distance = vec![0i64; depth];
    let mut constrained = vec![false; depth];
    for (s_from, s_to) in from.subscripts().iter().zip(to.subscripts()) {
        // Uniformly generated: identical linear parts.
        let loops_from = s_from.used_loops();
        let loops_to = s_to.used_loops();
        if loops_from != loops_to {
            return None;
        }
        for l in &loops_from {
            if s_from.coefficient(*l) != s_to.coefficient(*l) {
                return None;
            }
        }
        let delta = s_from.constant_term() - s_to.constant_term();
        if loops_from.is_empty() {
            if delta != 0 {
                return None;
            }
            continue;
        }
        // Resolve the constant difference through the innermost participating loop.
        let carrier = *loops_from.last()?;
        let coeff = s_from.coefficient(carrier);
        if coeff == 0 || delta % coeff != 0 {
            if delta != 0 {
                return None;
            }
            continue;
        }
        let component = delta / coeff;
        let slot = carrier.index();
        if slot >= depth {
            return None;
        }
        if constrained[slot] && distance[slot] != component {
            return None;
        }
        distance[slot] = component;
        constrained[slot] = true;
    }
    Some(DependenceDistance::new(distance))
}

/// A pair of reference groups of the same array that exhibit group (inter-reference)
/// temporal reuse.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupReusePair {
    /// The reference that accesses the shared element first (the "generator").
    pub source: RefId,
    /// The reference that re-accesses the element `distance` iterations later.
    pub sink: RefId,
    /// The separating iteration distance.
    pub distance: DependenceDistance,
}

/// Enumerates all group-reuse pairs of a kernel.
///
/// A pair is reported when the dependence distance between the two references exists
/// and is lexicographically non-negative (so that the source access really happens
/// first).  Loop-independent pairs (distance zero) are reported once, with the lower
/// [`RefId`] as the source.
pub fn group_reuse_pairs(kernel: &Kernel) -> Vec<GroupReusePair> {
    let table = kernel.reference_table();
    let depth = kernel.nest().depth();
    let mut pairs = Vec::new();
    for from in table.iter() {
        for to in table.iter() {
            if from.id() == to.id() || from.array() != to.array() {
                continue;
            }
            if let Some(distance) = dependence_distance(depth, from, to) {
                let keep = if distance.is_loop_independent() {
                    from.id() < to.id()
                } else {
                    distance.is_lexicographically_non_negative()
                };
                if keep {
                    pairs.push(GroupReusePair {
                        source: from.id(),
                        sink: to.id(),
                        distance,
                    });
                }
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_ir::examples::{paper_example, stencil3};
    use srra_ir::KernelBuilder;

    #[test]
    fn stencil_references_have_unit_distances() {
        let kernel = stencil3(64);
        let pairs = group_reuse_pairs(&kernel);
        // in[i] / in[i+1] / in[i+2] give three forward pairs:
        // in[i+1] -> in[i] distance 1, in[i+2] -> in[i+1] distance 1, in[i+2] -> in[i] distance 2.
        let distances: Vec<i64> = pairs.iter().map(|p| p.distance.components()[0]).collect();
        assert_eq!(pairs.len(), 3);
        assert!(distances.contains(&1));
        assert!(distances.contains(&2));
        for p in &pairs {
            assert!(p.distance.is_lexicographically_non_negative());
            assert_eq!(p.distance.carrying_loop(), Some(LoopId::new(0)));
        }
    }

    #[test]
    fn paper_example_has_no_group_reuse() {
        // Each array is referenced through a single subscript pattern.
        assert!(group_reuse_pairs(&paper_example()).is_empty());
    }

    #[test]
    fn distance_requires_uniform_generation() {
        // a[i] and a[2*i] are not uniformly generated.
        let b = KernelBuilder::new("nonuniform");
        let i = b.add_loop("i", 8);
        let a = b.add_array("a", &[16], 16);
        let t = b.add_array("t", &[16], 16);
        let sum = b.add(b.read(a, &[b.idx(i)]), b.read(a, &[b.scaled_idx(i, 2, 0)]));
        b.store(t, &[b.idx(i)], sum);
        let kernel = b.build().unwrap();
        let table = kernel.reference_table();
        let refs: Vec<_> = table.by_array(srra_ir::ArrayId::new(0));
        assert_eq!(refs.len(), 2);
        assert_eq!(
            dependence_distance(kernel.nest().depth(), refs[0], refs[1]),
            None
        );
    }

    #[test]
    fn loop_independent_distance_is_detected() {
        let d = DependenceDistance::new(vec![0, 0]);
        assert!(d.is_loop_independent());
        assert!(d.is_lexicographically_non_negative());
        assert_eq!(d.carrying_loop(), None);
        let neg = DependenceDistance::new(vec![0, -1]);
        assert!(!neg.is_lexicographically_non_negative());
        assert_eq!(neg.carrying_loop(), Some(LoopId::new(1)));
    }

    #[test]
    fn different_arrays_never_have_a_distance() {
        let kernel = paper_example();
        let table = kernel.reference_table();
        let a = table.find_by_name("a").unwrap();
        let c = table.find_by_name("c").unwrap();
        assert_eq!(dependence_distance(3, a, c), None);
    }

    #[test]
    fn sliding_window_distance_through_innermost_loop() {
        // FIR-style access x[i + j] vs x[i + j + 1]: distance 1 carried by j.
        let b = KernelBuilder::new("fir_like");
        let i = b.add_loop("i", 8);
        let j = b.add_loop("j", 4);
        let x = b.add_array("x", &[16], 16);
        let y = b.add_array("y", &[8], 16);
        let sum = b.add(
            b.read(x, &[b.idx_sum(i, j)]),
            b.read(x, &[b.idx_sum(i, j).with_constant(1)]),
        );
        b.store(y, &[b.idx(i)], sum);
        let kernel = b.build().unwrap();
        let table = kernel.reference_table();
        let refs = table.by_array(srra_ir::ArrayId::new(0));
        let d = dependence_distance(2, refs[1], refs[0]).unwrap();
        assert_eq!(d.components(), &[0, 1]);
        assert_eq!(d.carrying_loop(), Some(LoopId::new(1)));
    }
}
