use crate::array::ArrayRef;
use crate::loop_nest::LoopId;

/// Binary operators appearing in loop-body expressions.
///
/// The set covers everything the six evaluation kernels need (arithmetic, comparison,
/// min/max selection and bitwise operations for the binary-image-correlation kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division.
    Div,
    /// Minimum of the operands.
    Min,
    /// Maximum of the operands.
    Max,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Equality comparison (result is 0 or 1).
    CmpEq,
    /// Inequality comparison (result is 0 or 1).
    CmpNe,
    /// Less-than comparison (result is 0 or 1).
    CmpLt,
    /// Greater-than comparison (result is 0 or 1).
    CmpGt,
}

impl BinOp {
    /// Short mnemonic used in data-flow-graph labels.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::CmpEq => "cmpeq",
            BinOp::CmpNe => "cmpne",
            BinOp::CmpLt => "cmplt",
            BinOp::CmpGt => "cmpgt",
        }
    }

    /// Infix symbol used when pretty-printing the body as pseudo-C.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::CmpEq => "==",
            BinOp::CmpNe => "!=",
            BinOp::CmpLt => "<",
            BinOp::CmpGt => ">",
        }
    }

    /// Returns `true` for operators whose result only depends on the operand set, not
    /// on their order.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::Min
                | BinOp::Max
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::CmpEq
                | BinOp::CmpNe
        )
    }

    /// All binary operators, useful for property tests and latency tables.
    pub fn all() -> [BinOp; 13] {
        [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Min,
            BinOp::Max,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::CmpEq,
            BinOp::CmpNe,
            BinOp::CmpLt,
            BinOp::CmpGt,
        ]
    }
}

impl std::fmt::Display for BinOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Unary operators appearing in loop-body expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise complement.
    Not,
    /// Absolute value.
    Abs,
}

impl UnOp {
    /// Short mnemonic used in data-flow-graph labels.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::Abs => "abs",
        }
    }
}

impl std::fmt::Display for UnOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A loop-body expression tree.
///
/// Expressions are pure: all side effects (array stores) happen through
/// [`crate::Statement`] targets.  Scalar operands are named temporaries that carry
/// values between statements of the same iteration (for instance the value written to
/// `d[i][k]` in the paper's example is also consumed by the second statement).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A read (or, rarely, the value produced by a write) of an array element.
    ArrayAccess(ArrayRef),
    /// A named scalar temporary defined by an earlier statement in the same iteration.
    Scalar(String),
    /// The current value of a loop induction variable.
    LoopIndex(LoopId),
    /// An integer literal.
    IntConst(i64),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        operand: Box<Expr>,
    },
}

impl Expr {
    /// Convenience constructor for an array access operand.
    pub fn array(array_ref: ArrayRef) -> Self {
        Expr::ArrayAccess(array_ref)
    }

    /// Convenience constructor for a named scalar operand.
    pub fn scalar(name: impl Into<String>) -> Self {
        Expr::Scalar(name.into())
    }

    /// Convenience constructor for an integer literal.
    pub fn int(value: i64) -> Self {
        Expr::IntConst(value)
    }

    /// Convenience constructor for a loop-index operand.
    pub fn index(loop_id: LoopId) -> Self {
        Expr::LoopIndex(loop_id)
    }

    /// Convenience constructor for a binary operation.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Self {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Convenience constructor for `lhs + rhs`.
    ///
    /// Not `std::ops::Add`: this is an associated constructor taking both
    /// operands by value, not a method on `self`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(lhs: Expr, rhs: Expr) -> Self {
        Expr::binary(BinOp::Add, lhs, rhs)
    }

    /// Convenience constructor for `lhs * rhs`.
    ///
    /// Not `std::ops::Mul`: this is an associated constructor taking both
    /// operands by value, not a method on `self`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(lhs: Expr, rhs: Expr) -> Self {
        Expr::binary(BinOp::Mul, lhs, rhs)
    }

    /// Convenience constructor for a unary operation.
    pub fn unary(op: UnOp, operand: Expr) -> Self {
        Expr::Unary {
            op,
            operand: Box::new(operand),
        }
    }

    /// Visits every node of the expression tree in post-order.
    pub fn visit<'a>(&'a self, visitor: &mut impl FnMut(&'a Expr)) {
        match self {
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit(visitor);
                rhs.visit(visitor);
            }
            Expr::Unary { operand, .. } => operand.visit(visitor),
            _ => {}
        }
        visitor(self);
    }

    /// Collects every array reference in the expression, in post-order.
    pub fn array_refs(&self) -> Vec<&ArrayRef> {
        let mut refs = Vec::new();
        self.visit(&mut |node| {
            if let Expr::ArrayAccess(r) = node {
                refs.push(r);
            }
        });
        refs
    }

    /// Number of operation nodes (binary + unary) in the expression.
    pub fn operation_count(&self) -> usize {
        let mut count = 0;
        self.visit(&mut |node| {
            if matches!(node, Expr::Binary { .. } | Expr::Unary { .. }) {
                count += 1;
            }
        });
        count
    }

    /// Names of scalar temporaries consumed by this expression.
    pub fn scalar_uses(&self) -> Vec<&str> {
        let mut names = Vec::new();
        self.visit(&mut |node| {
            if let Expr::Scalar(name) = node {
                names.push(name.as_str());
            }
        });
        names
    }

    /// Depth of the expression tree (a single operand has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Expr::Binary { lhs, rhs, .. } => 1 + lhs.depth().max(rhs.depth()),
            Expr::Unary { operand, .. } => 1 + operand.depth(),
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{AccessKind, ArrayId};
    use crate::AffineExpr;

    fn sample_ref(array: usize) -> ArrayRef {
        ArrayRef::new(
            ArrayId::new(array),
            vec![AffineExpr::index(LoopId::new(0))],
            AccessKind::Read,
        )
    }

    #[test]
    fn binop_metadata_is_consistent() {
        for op in BinOp::all() {
            assert!(!op.mnemonic().is_empty());
            assert!(!op.symbol().is_empty());
            assert_eq!(op.to_string(), op.mnemonic());
        }
        assert!(BinOp::Add.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::Div.is_commutative());
        assert!(BinOp::Xor.is_commutative());
    }

    #[test]
    fn unop_mnemonics() {
        assert_eq!(UnOp::Neg.to_string(), "neg");
        assert_eq!(UnOp::Not.mnemonic(), "not");
        assert_eq!(UnOp::Abs.mnemonic(), "abs");
    }

    #[test]
    fn array_refs_are_collected_in_post_order() {
        let e = Expr::add(
            Expr::mul(Expr::array(sample_ref(0)), Expr::array(sample_ref(1))),
            Expr::array(sample_ref(2)),
        );
        let refs = e.array_refs();
        assert_eq!(refs.len(), 3);
        assert_eq!(refs[0].array(), ArrayId::new(0));
        assert_eq!(refs[1].array(), ArrayId::new(1));
        assert_eq!(refs[2].array(), ArrayId::new(2));
    }

    #[test]
    fn operation_count_and_depth() {
        let e = Expr::add(
            Expr::mul(Expr::array(sample_ref(0)), Expr::int(3)),
            Expr::unary(UnOp::Abs, Expr::scalar("t")),
        );
        assert_eq!(e.operation_count(), 3);
        assert_eq!(e.depth(), 3);
        assert_eq!(e.scalar_uses(), vec!["t"]);
    }

    #[test]
    fn leaves_have_depth_one_and_no_ops() {
        for leaf in [
            Expr::int(4),
            Expr::scalar("x"),
            Expr::index(LoopId::new(1)),
            Expr::array(sample_ref(0)),
        ] {
            assert_eq!(leaf.depth(), 1);
            assert_eq!(leaf.operation_count(), 0);
        }
    }
}
