use crate::array::ArrayRef;
use crate::expr::Expr;

/// The destination of a statement's value.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreTarget {
    /// Store into an array element (a memory write unless scalar-replaced).
    Array(ArrayRef),
    /// Define a scalar temporary visible to later statements of the same iteration.
    Scalar(String),
}

impl StoreTarget {
    /// Returns the array reference when the target is an array store.
    pub fn as_array(&self) -> Option<&ArrayRef> {
        match self {
            StoreTarget::Array(r) => Some(r),
            StoreTarget::Scalar(_) => None,
        }
    }

    /// Returns the scalar name when the target is a scalar definition.
    pub fn as_scalar(&self) -> Option<&str> {
        match self {
            StoreTarget::Array(_) => None,
            StoreTarget::Scalar(name) => Some(name),
        }
    }
}

/// One assignment executed per innermost loop iteration: `target = value`.
///
/// Statements execute in program order within an iteration; a scalar defined by an
/// earlier statement may be consumed by a later one, and an array element written by an
/// earlier statement may be read back by a later one (the `d[i][k]` flow in the paper's
/// Figure 1 example).
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    target: StoreTarget,
    value: Expr,
}

impl Statement {
    /// Creates a statement assigning `value` to `target`.
    pub fn new(target: StoreTarget, value: Expr) -> Self {
        Self { target, value }
    }

    /// The destination of the statement.
    pub fn target(&self) -> &StoreTarget {
        &self.target
    }

    /// The value expression of the statement.
    pub fn value(&self) -> &Expr {
        &self.value
    }

    /// All array references of the statement: value reads first, then the target write
    /// (if the target is an array).
    pub fn array_refs(&self) -> Vec<&ArrayRef> {
        let mut refs = self.value.array_refs();
        if let StoreTarget::Array(r) = &self.target {
            refs.push(r);
        }
        refs
    }

    /// Number of operation nodes in the statement's value expression.
    pub fn operation_count(&self) -> usize {
        self.value.operation_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{AccessKind, ArrayId};
    use crate::{AffineExpr, LoopId};

    fn read(array: usize) -> ArrayRef {
        ArrayRef::new(
            ArrayId::new(array),
            vec![AffineExpr::index(LoopId::new(0))],
            AccessKind::Read,
        )
    }

    fn write(array: usize) -> ArrayRef {
        read(array).with_access(AccessKind::Write)
    }

    #[test]
    fn store_target_accessors() {
        let a = StoreTarget::Array(write(0));
        assert!(a.as_array().is_some());
        assert!(a.as_scalar().is_none());
        let s = StoreTarget::Scalar("sum".into());
        assert_eq!(s.as_scalar(), Some("sum"));
        assert!(s.as_array().is_none());
    }

    #[test]
    fn array_refs_include_target_write_last() {
        let stmt = Statement::new(
            StoreTarget::Array(write(2)),
            Expr::mul(Expr::array(read(0)), Expr::array(read(1))),
        );
        let refs = stmt.array_refs();
        assert_eq!(refs.len(), 3);
        assert_eq!(refs[2].array(), ArrayId::new(2));
        assert!(refs[2].access().is_write());
        assert_eq!(stmt.operation_count(), 1);
    }

    #[test]
    fn scalar_target_contributes_no_array_ref() {
        let stmt = Statement::new(StoreTarget::Scalar("t".into()), Expr::array(read(0)));
        assert_eq!(stmt.array_refs().len(), 1);
    }
}
