use srra_ir::{AccessKind, ArrayId, BinOp, RefId, UnOp};

/// Identifier of a node within a [`DataFlowGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node identifier from its index.
    pub fn new(index: usize) -> Self {
        Self(index)
    }

    /// The index of the node in the graph's node list.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The kind of a data-flow-graph node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A memory reference (array element transfer).  The node's latency depends on
    /// whether the reference group is bound to registers or to a RAM block.
    Reference {
        /// The reference group this access belongs to.
        ref_id: RefId,
        /// The referenced array.
        array: ArrayId,
        /// Whether the access fetches or stores the element.
        access: AccessKind,
    },
    /// A binary arithmetic/logic operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Index of the statement the operation belongs to.
        statement: usize,
    },
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// Index of the statement the operation belongs to.
        statement: usize,
    },
    /// A leaf input that never touches memory: a constant, a loop index or an
    /// externally defined scalar.
    Input,
}

impl NodeKind {
    /// Returns the reference group when the node is a memory reference.
    pub fn as_reference(&self) -> Option<RefId> {
        match self {
            NodeKind::Reference { ref_id, .. } => Some(*ref_id),
            _ => None,
        }
    }

    /// Returns `true` for operation nodes (binary or unary).
    pub fn is_operation(&self) -> bool {
        matches!(self, NodeKind::Binary { .. } | NodeKind::Unary { .. })
    }
}

/// A node of the data-flow graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Node {
    id: NodeId,
    kind: NodeKind,
    label: String,
}

impl Node {
    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's kind.
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// Human-readable label (e.g. `a[k]` or `mul#0`), used in reports and tests.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Shorthand for [`NodeKind::as_reference`].
    pub fn reference(&self) -> Option<RefId> {
        self.kind.as_reference()
    }

    /// Shorthand for [`NodeKind::is_operation`].
    pub fn is_operation(&self) -> bool {
        self.kind.is_operation()
    }
}

/// A data-flow graph of one loop-body iteration.
///
/// Nodes are memory references, operations and leaf inputs; a directed edge `u -> v`
/// means `v` consumes the value produced by `u`.  The graph is a DAG by construction
/// (expressions are trees and cross-statement edges always point forward in program
/// order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataFlowGraph {
    nodes: Vec<Node>,
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
}

impl DataFlowGraph {
    /// Creates an empty graph.  Most callers use [`DataFlowGraph::from_kernel`]
    /// (defined in the `build` module) instead.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node and returns its identifier.
    pub fn add_node(&mut self, kind: NodeKind, label: impl Into<String>) -> NodeId {
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(Node {
            id,
            kind,
            label: label.into(),
        });
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    /// Adds a directed edge `from -> to`.  Duplicate edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        assert!(from.index() < self.nodes.len(), "unknown source node");
        assert!(to.index() < self.nodes.len(), "unknown sink node");
        if !self.succs[from.index()].contains(&to) {
            self.succs[from.index()].push(to);
            self.preds[to.index()].push(from);
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// The node with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterates over all nodes in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// All node identifiers in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// Successors of a node.
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        &self.succs[id.index()]
    }

    /// Predecessors of a node.
    pub fn predecessors(&self, id: NodeId) -> &[NodeId] {
        &self.preds[id.index()]
    }

    /// Nodes without predecessors.
    pub fn sources(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|n| self.preds[n.index()].is_empty())
            .collect()
    }

    /// Nodes without successors.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|n| self.succs[n.index()].is_empty())
            .collect()
    }

    /// All memory-reference nodes.
    pub fn reference_nodes(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|n| self.node(*n).reference().is_some())
            .collect()
    }

    /// All operation nodes.
    pub fn operation_nodes(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|n| self.node(*n).is_operation())
            .collect()
    }

    /// Nodes belonging to the given reference group.
    pub fn nodes_of_reference(&self, ref_id: RefId) -> Vec<NodeId> {
        self.node_ids()
            .filter(|n| self.node(*n).reference() == Some(ref_id))
            .collect()
    }

    /// A topological order of the nodes.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle; graphs built by
    /// [`DataFlowGraph::from_kernel`] are always acyclic.
    pub fn topological_order(&self) -> Vec<NodeId> {
        let mut in_degree: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut ready: Vec<NodeId> = self
            .node_ids()
            .filter(|n| in_degree[n.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(n) = ready.pop() {
            order.push(n);
            for &s in &self.succs[n.index()] {
                in_degree[s.index()] -= 1;
                if in_degree[s.index()] == 0 {
                    ready.push(s);
                }
            }
        }
        assert_eq!(
            order.len(),
            self.nodes.len(),
            "data-flow graph contains a cycle"
        );
        order
    }

    /// Returns `true` when the graph contains no directed cycle.
    pub fn is_acyclic(&self) -> bool {
        let mut in_degree: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut ready: Vec<NodeId> = self
            .node_ids()
            .filter(|n| in_degree[n.index()] == 0)
            .collect();
        let mut seen = 0usize;
        while let Some(n) = ready.pop() {
            seen += 1;
            for &s in &self.succs[n.index()] {
                in_degree[s.index()] -= 1;
                if in_degree[s.index()] == 0 {
                    ready.push(s);
                }
            }
        }
        seen == self.nodes.len()
    }

    /// Returns `true` when `to` is reachable from `from` following edges forward.
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut stack = vec![from];
        let mut visited = vec![false; self.nodes.len()];
        visited[from.index()] = true;
        while let Some(n) = stack.pop() {
            for &s in &self.succs[n.index()] {
                if s == to {
                    return true;
                }
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DataFlowGraph, [NodeId; 4]) {
        // a -> b -> d, a -> c -> d
        let mut g = DataFlowGraph::new();
        let a = g.add_node(NodeKind::Input, "a");
        let b = g.add_node(NodeKind::Input, "b");
        let c = g.add_node(NodeKind::Input, "c");
        let d = g.add_node(NodeKind::Input, "d");
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        (g, [a, b, c, d])
    }

    #[test]
    fn construction_and_queries() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![d]);
        assert_eq!(g.successors(a), &[b, c]);
        assert_eq!(g.predecessors(d), &[b, c]);
        assert!(g.is_acyclic());
        assert_eq!(g.node(a).label(), "a");
        assert_eq!(a.to_string(), "n0");
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let (mut g, [a, b, _, _]) = diamond();
        g.add_edge(a, b);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn topological_order_respects_edges() {
        let (g, _) = diamond();
        let order = g.topological_order();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        for from in g.node_ids() {
            for &to in g.successors(from) {
                assert!(pos(from) < pos(to));
            }
        }
    }

    #[test]
    fn reachability() {
        let (g, [a, b, c, d]) = diamond();
        assert!(g.reachable(a, d));
        assert!(g.reachable(a, a));
        assert!(!g.reachable(b, c));
        assert!(!g.reachable(d, a));
    }

    #[test]
    fn reference_and_operation_queries_on_empty_kinds() {
        let (g, _) = diamond();
        assert!(g.reference_nodes().is_empty());
        assert!(g.operation_nodes().is_empty());
        assert!(g.nodes_of_reference(RefId::new(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown sink node")]
    fn edge_to_unknown_node_panics() {
        let (mut g, [a, ..]) = diamond();
        g.add_edge(a, NodeId::new(99));
    }
}
