use crate::array::ArrayDecl;
use crate::error::IrError;
use crate::reference::ReferenceTable;
use crate::stmt::Statement;
use crate::validate::validate_kernel;

/// Identifier of a loop within a [`LoopNest`], by depth (0 = outermost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LoopId(usize);

impl LoopId {
    /// Creates a loop identifier for the loop at the given depth.
    pub fn new(depth: usize) -> Self {
        Self(depth)
    }

    /// Returns the depth of the loop (0 = outermost).
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for LoopId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A single counted loop of a perfect nest.
///
/// Loops are normalised: the index ranges over `0..trip_count` with unit stride, which
/// is the canonical form used by the paper's data-reuse analysis.  Non-unit strides in
/// the original source (such as the decimation factor of the Dec-FIR kernel) are folded
/// into the subscript coefficients instead.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Loop {
    name: String,
    trip_count: u64,
}

impl Loop {
    /// Creates a loop with the given induction-variable name and trip count.
    pub fn new(name: impl Into<String>, trip_count: u64) -> Self {
        Self {
            name: name.into(),
            trip_count,
        }
    }

    /// Name of the induction variable.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of iterations the loop executes.
    pub fn trip_count(&self) -> u64 {
        self.trip_count
    }
}

/// A perfectly nested loop together with its body statements.
///
/// The body statements are executed, in order, once per iteration of the innermost
/// loop.  This is exactly the program shape assumed by the paper (perfect nests with
/// compile-time known bounds).
#[derive(Debug, Clone, PartialEq)]
pub struct LoopNest {
    loops: Vec<Loop>,
    body: Vec<Statement>,
}

impl LoopNest {
    /// Creates a loop nest from loops (outermost first) and body statements.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::NoLoops`] when `loops` is empty, [`IrError::EmptyBody`] when
    /// `body` is empty, and [`IrError::EmptyLoop`] when any trip count is zero.
    pub fn new(loops: Vec<Loop>, body: Vec<Statement>) -> Result<Self, IrError> {
        if loops.is_empty() {
            return Err(IrError::NoLoops);
        }
        if body.is_empty() {
            return Err(IrError::EmptyBody);
        }
        if let Some(l) = loops.iter().find(|l| l.trip_count() == 0) {
            return Err(IrError::EmptyLoop {
                loop_name: l.name().to_owned(),
            });
        }
        Ok(Self { loops, body })
    }

    /// Loops of the nest, outermost first.
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// The loop at the given depth, if any.
    pub fn loop_at(&self, id: LoopId) -> Option<&Loop> {
        self.loops.get(id.index())
    }

    /// Number of loops in the nest.
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// Trip count of the loop at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is deeper than the nest.
    pub fn trip_count(&self, id: LoopId) -> u64 {
        self.loops[id.index()].trip_count()
    }

    /// Trip counts of all loops, outermost first.
    pub fn trip_counts(&self) -> Vec<u64> {
        self.loops.iter().map(Loop::trip_count).collect()
    }

    /// Total number of innermost iterations (the product of all trip counts).
    pub fn total_iterations(&self) -> u64 {
        self.loops
            .iter()
            .map(Loop::trip_count)
            .fold(1u64, |acc, t| acc.saturating_mul(t))
    }

    /// Product of the trip counts of the loops strictly deeper than `id`.
    ///
    /// Returns 1 when `id` is the innermost loop.
    pub fn iterations_inside(&self, id: LoopId) -> u64 {
        self.loops
            .iter()
            .skip(id.index() + 1)
            .map(Loop::trip_count)
            .fold(1u64, |acc, t| acc.saturating_mul(t))
    }

    /// Product of the trip counts of the loops at depth `id` and shallower.
    pub fn iterations_outside_inclusive(&self, id: LoopId) -> u64 {
        self.loops
            .iter()
            .take(id.index() + 1)
            .map(Loop::trip_count)
            .fold(1u64, |acc, t| acc.saturating_mul(t))
    }

    /// Body statements executed each innermost iteration.
    pub fn body(&self) -> &[Statement] {
        &self.body
    }

    /// Loop identifiers, outermost first.
    pub fn loop_ids(&self) -> impl Iterator<Item = LoopId> + '_ {
        (0..self.loops.len()).map(LoopId::new)
    }

    /// Names of the induction variables, outermost first.
    pub fn loop_names(&self) -> Vec<&str> {
        self.loops.iter().map(Loop::name).collect()
    }
}

/// A named, validated computation: array declarations plus a perfect loop nest.
///
/// A `Kernel` is the unit consumed by the analyses (`srra-reuse`, `srra-dfg`) and by the
/// allocation algorithms in `srra-core`.  Construct one with [`Kernel::new`] or, more
/// conveniently, with [`crate::KernelBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    name: String,
    arrays: Vec<ArrayDecl>,
    nest: LoopNest,
}

impl Kernel {
    /// Creates and validates a kernel.
    ///
    /// # Errors
    ///
    /// Returns any validation error detected by [`validate_kernel`]: rank mismatches,
    /// unknown loops or arrays, duplicate names, out-of-bounds subscripts, etc.
    pub fn new(
        name: impl Into<String>,
        arrays: Vec<ArrayDecl>,
        nest: LoopNest,
    ) -> Result<Self, IrError> {
        let kernel = Self {
            name: name.into(),
            arrays,
            nest,
        };
        validate_kernel(&kernel)?;
        Ok(kernel)
    }

    /// Name of the kernel.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared arrays, in declaration order (indexable by [`crate::ArrayId`]).
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// The array declaration for `id`, if it exists.
    pub fn array(&self, id: crate::ArrayId) -> Option<&ArrayDecl> {
        self.arrays.get(id.index())
    }

    /// The loop nest of the kernel.
    pub fn nest(&self) -> &LoopNest {
        &self.nest
    }

    /// Enumerates every textual array reference in the body, assigning stable
    /// [`crate::RefId`]s.
    pub fn reference_table(&self) -> ReferenceTable {
        ReferenceTable::build(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{AccessKind, ArrayRef};
    use crate::expr::Expr;
    use crate::stmt::StoreTarget;
    use crate::AffineExpr;
    use crate::ArrayId;

    fn simple_body() -> Vec<Statement> {
        // a[i] = a[i] + 1
        let read = Expr::array(ArrayRef::new(
            ArrayId::new(0),
            vec![AffineExpr::index(LoopId::new(0))],
            AccessKind::Read,
        ));
        let value = Expr::add(read, Expr::int(1));
        vec![Statement::new(
            StoreTarget::Array(ArrayRef::new(
                ArrayId::new(0),
                vec![AffineExpr::index(LoopId::new(0))],
                AccessKind::Write,
            )),
            value,
        )]
    }

    #[test]
    fn loop_nest_rejects_empty_configurations() {
        assert_eq!(
            LoopNest::new(vec![], simple_body()).unwrap_err(),
            IrError::NoLoops
        );
        assert_eq!(
            LoopNest::new(vec![Loop::new("i", 4)], vec![]).unwrap_err(),
            IrError::EmptyBody
        );
        assert_eq!(
            LoopNest::new(vec![Loop::new("i", 0)], simple_body()).unwrap_err(),
            IrError::EmptyLoop {
                loop_name: "i".into()
            }
        );
    }

    #[test]
    fn iteration_products() {
        let nest = LoopNest::new(
            vec![Loop::new("i", 2), Loop::new("j", 20), Loop::new("k", 30)],
            simple_body(),
        )
        .unwrap();
        assert_eq!(nest.depth(), 3);
        assert_eq!(nest.total_iterations(), 1200);
        assert_eq!(nest.iterations_inside(LoopId::new(0)), 600);
        assert_eq!(nest.iterations_inside(LoopId::new(2)), 1);
        assert_eq!(nest.iterations_outside_inclusive(LoopId::new(0)), 2);
        assert_eq!(nest.iterations_outside_inclusive(LoopId::new(2)), 1200);
        assert_eq!(nest.trip_counts(), vec![2, 20, 30]);
        assert_eq!(nest.loop_names(), vec!["i", "j", "k"]);
    }

    #[test]
    fn kernel_requires_valid_references() {
        let nest = LoopNest::new(vec![Loop::new("i", 4)], simple_body()).unwrap();
        // No array declared -> unknown array error.
        let err = Kernel::new("bad", vec![], nest.clone()).unwrap_err();
        assert_eq!(err, IrError::UnknownArray { array_id: 0 });
        // Correct declaration validates.
        let ok = Kernel::new("good", vec![ArrayDecl::new("a", vec![4], 16)], nest).unwrap();
        assert_eq!(ok.name(), "good");
        assert_eq!(ok.arrays().len(), 1);
        // the read and the write of a[i] share one reference group
        assert_eq!(ok.reference_table().len(), 1);
    }

    #[test]
    fn loop_id_display() {
        assert_eq!(LoopId::new(2).to_string(), "L2");
    }
}
