//! The DAG structure, validation, analysis, and simulation.

use std::collections::HashMap;
use std::fmt;

/// Index of a node inside a [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Operator set of a linear-computation CDFG.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeKind {
    /// Primary input: sample offset within the batch and channel index.
    Input {
        /// Which sample of the processed batch (0 for non-unfolded graphs).
        sample: usize,
        /// Input channel (column of `X`).
        channel: usize,
    },
    /// Previous-iteration state variable `S[n−1][index]`.
    StateIn {
        /// State index.
        index: usize,
    },
    /// A literal constant value.
    Const(f64),
    /// Two-operand addition.
    Add,
    /// Two-operand subtraction (`pred0 − pred1`).
    Sub,
    /// Multiplication by a constant.
    MulConst(f64),
    /// Multiplication by `2^amount` (hardwired shift; `amount` may be
    /// negative).
    Shift(i32),
    /// Arithmetic negation.
    Neg,
    /// A register (pipeline stage); value passes through, time restarts.
    Delay,
    /// Primary output: sample offset within the batch and channel index.
    Output {
        /// Which sample of the produced batch.
        sample: usize,
        /// Output channel (row of `Y`).
        channel: usize,
    },
    /// Next-iteration state variable `S[n][index]`.
    StateOut {
        /// State index.
        index: usize,
    },
}

impl NodeKind {
    /// Required number of predecessors.
    pub fn arity(&self) -> usize {
        match self {
            NodeKind::Input { .. } | NodeKind::StateIn { .. } | NodeKind::Const(_) => 0,
            NodeKind::Add | NodeKind::Sub => 2,
            NodeKind::MulConst(_)
            | NodeKind::Shift(_)
            | NodeKind::Neg
            | NodeKind::Delay
            | NodeKind::Output { .. }
            | NodeKind::StateOut { .. } => 1,
        }
    }

    /// `true` for nodes that occupy a functional unit (cost model).
    pub fn is_operation(&self) -> bool {
        matches!(
            self,
            NodeKind::Add | NodeKind::Sub | NodeKind::MulConst(_) | NodeKind::Shift(_)
        )
    }
}

/// A node's predecessor ids, held inline: no operator takes more than
/// two, so a node owns no heap memory. Derefs to `[NodeId]`, so
/// `preds.iter()`, `preds[k]` and `preds.len()` read it like a slice.
#[derive(Clone, Copy)]
pub struct Preds {
    len: u8,
    ids: [NodeId; 2],
}

impl Preds {
    /// `ids` as an inline list; `None` past two ids.
    fn new(ids: &[NodeId]) -> Option<Preds> {
        let (len, ids) = match *ids {
            [] => (0, [NodeId(0); 2]),
            [a] => (1, [a, NodeId(0)]),
            [a, b] => (2, [a, b]),
            _ => return None,
        };
        Some(Preds { len, ids })
    }
}

impl std::ops::Deref for Preds {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        &self.ids[..usize::from(self.len)]
    }
}

impl std::ops::DerefMut for Preds {
    fn deref_mut(&mut self) -> &mut [NodeId] {
        &mut self.ids[..usize::from(self.len)]
    }
}

impl<'a> IntoIterator for &'a Preds {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Preds {
    fn eq(&self, other: &Preds) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Preds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One node: an operator and its predecessor edges.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The operator.
    pub kind: NodeKind,
    /// Predecessor node ids (all strictly smaller than this node's id).
    pub preds: Preds,
}

const _: () = assert!(!std::mem::needs_drop::<Node>());

/// Error from [`Dfg::push`], [`Dfg::validate`], or [`Dfg::simulate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfgError {
    /// Wrong number of predecessors for the operator.
    Arity {
        /// Expected predecessor count.
        expected: usize,
        /// Supplied predecessor count.
        actual: usize,
    },
    /// A predecessor id does not refer to an already-created node.
    ForwardReference {
        /// The offending predecessor.
        pred: usize,
        /// The id the new node would get (or that holds the reference).
        node: usize,
    },
    /// Simulation referenced an input `(sample, channel)` that was not
    /// supplied.
    MissingInput {
        /// Sample offset within the batch.
        sample: usize,
        /// Input channel.
        channel: usize,
    },
    /// Simulation referenced a state index beyond the supplied state
    /// vector.
    MissingState {
        /// The missing state index.
        index: usize,
        /// Length of the supplied state vector.
        supplied: usize,
    },
    /// Simulation produced a NaN or infinite value at a node (numerical
    /// sentinel: poisoned inputs or coefficients are reported at the first
    /// node they reach instead of propagating silently).
    NonFinite {
        /// The node whose value became non-finite.
        node: usize,
    },
}

impl fmt::Display for DfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfgError::Arity { expected, actual } => {
                write!(f, "operator takes {expected} predecessors, got {actual}")
            }
            DfgError::ForwardReference { pred, node } => {
                write!(f, "node {node} references not-yet-created node {pred}")
            }
            DfgError::MissingInput { sample, channel } => {
                write!(
                    f,
                    "simulation is missing input (sample {sample}, channel {channel})"
                )
            }
            DfgError::MissingState { index, supplied } => {
                write!(
                    f,
                    "simulation references state {index} but only {supplied} were supplied"
                )
            }
            DfgError::NonFinite { node } => {
                write!(f, "simulation produced a non-finite value at node {node}")
            }
        }
    }
}

impl std::error::Error for DfgError {}

/// Per-operation delays for critical-path analysis (the paper uses
/// `t_add = 1`, `t_mul = m`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTiming {
    /// Delay of a constant multiplication.
    pub t_mul: f64,
    /// Delay of an addition/subtraction.
    pub t_add: f64,
    /// Delay of a hardwired shift (0 on an ASIC).
    pub t_shift: f64,
}

impl Default for OpTiming {
    fn default() -> Self {
        OpTiming {
            t_mul: 2.0,
            t_add: 1.0,
            t_shift: 0.0,
        }
    }
}

impl OpTiming {
    /// Delay contributed by one node.
    pub fn of(&self, kind: &NodeKind) -> f64 {
        match kind {
            NodeKind::Add | NodeKind::Sub => self.t_add,
            NodeKind::MulConst(_) => self.t_mul,
            NodeKind::Shift(_) => self.t_shift,
            // Negation folds into the consuming adder/subtractor.
            _ => 0.0,
        }
    }
}

/// Operation census of a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Additions and subtractions.
    pub adds: u64,
    /// Constant multiplications.
    pub muls: u64,
    /// Shifts.
    pub shifts: u64,
    /// Registers ([`NodeKind::Delay`]).
    pub delays: u64,
    /// Explicit negations.
    pub negs: u64,
}

/// An append-only dataflow DAG.
///
/// Nodes may only reference earlier nodes, so insertion order is a valid
/// topological order and the graph is acyclic by construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dfg {
    nodes: Vec<Node>,
}

impl Dfg {
    /// Creates an empty graph.
    pub fn new() -> Dfg {
        Dfg::default()
    }

    /// Appends a node.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError`] on arity mismatch or forward references.
    pub fn push(&mut self, kind: NodeKind, preds: &[NodeId]) -> Result<NodeId, DfgError> {
        let preds = match Preds::new(preds) {
            Some(list) if list.len() == kind.arity() => list,
            _ => {
                return Err(DfgError::Arity {
                    expected: kind.arity(),
                    actual: preds.len(),
                })
            }
        };
        let id = self.nodes.len();
        for p in &preds {
            if p.0 >= id {
                return Err(DfgError::ForwardReference {
                    pred: p.0,
                    node: id,
                });
            }
        }
        self.nodes.push(Node { kind, preds });
        Ok(NodeId(id))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Iterate over `(id, node)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Re-checks the structural invariants ([`Dfg::push`] enforces them on
    /// construction; transformation passes call this after rewriting a
    /// graph so a buggy pass is reported as a typed error instead of
    /// corrupting downstream analyses).
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::Arity`] or [`DfgError::ForwardReference`] for
    /// the first violating node.
    pub fn validate(&self) -> Result<(), DfgError> {
        for (i, n) in self.nodes.iter().enumerate() {
            if n.preds.len() != n.kind.arity() {
                return Err(DfgError::Arity {
                    expected: n.kind.arity(),
                    actual: n.preds.len(),
                });
            }
            for p in &n.preds {
                if p.0 >= i {
                    return Err(DfgError::ForwardReference { pred: p.0, node: i });
                }
            }
        }
        Ok(())
    }

    /// Counts operations by class.
    pub fn op_counts(&self) -> OpCounts {
        let mut c = OpCounts::default();
        for n in &self.nodes {
            match n.kind {
                NodeKind::Add | NodeKind::Sub => c.adds += 1,
                NodeKind::MulConst(_) => c.muls += 1,
                NodeKind::Shift(_) => c.shifts += 1,
                NodeKind::Delay => c.delays += 1,
                NodeKind::Neg => c.negs += 1,
                _ => {}
            }
        }
        c
    }

    /// Longest combinational path delay from any source (or register
    /// output) to any sink (or register input).
    pub fn critical_path(&self, timing: &OpTiming) -> f64 {
        self.finish_times(timing).into_iter().fold(0.0, f64::max)
    }

    /// Longest combinational path from a [`NodeKind::StateIn`] to a
    /// [`NodeKind::StateOut`] — the feedback section's critical path, the
    /// quantity that bounds throughput (§1: everything else can be
    /// pipelined away).
    pub fn feedback_critical_path(&self, timing: &OpTiming) -> f64 {
        // Longest path considering only paths originating at StateIn.
        let mut depth = vec![f64::NEG_INFINITY; self.nodes.len()];
        let mut best = 0.0_f64;
        for (i, n) in self.nodes.iter().enumerate() {
            let from_state = matches!(n.kind, NodeKind::StateIn { .. });
            let pred_depth = n
                .preds
                .iter()
                .map(|p| depth[p.0])
                .fold(f64::NEG_INFINITY, f64::max);
            let start = if from_state { 0.0 } else { pred_depth };
            // Registers cut combinational paths, and a node no path from
            // StateIn reaches stays unreachable.
            let d = if matches!(n.kind, NodeKind::Delay) || start == f64::NEG_INFINITY {
                f64::NEG_INFINITY
            } else {
                start + timing.of(&n.kind)
            };
            depth[i] = d;
            if matches!(n.kind, NodeKind::StateOut { .. }) && pred_depth > f64::NEG_INFINITY {
                best = best.max(pred_depth);
            }
        }
        best
    }

    /// Per-node combinational finish times (registers restart at 0).
    fn finish_times(&self, timing: &OpTiming) -> Vec<f64> {
        let mut t = vec![0.0_f64; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            let start = n.preds.iter().map(|p| t[p.0]).fold(0.0, f64::max);
            t[i] = if matches!(n.kind, NodeKind::Delay) {
                0.0
            } else {
                start + timing.of(&n.kind)
            };
        }
        t
    }

    /// Evaluates the graph for one iteration.
    ///
    /// `state` supplies every [`NodeKind::StateIn`] by index; `inputs`
    /// supplies every [`NodeKind::Input`] keyed by `(sample, channel)`.
    /// Returns the values of outputs keyed by `(sample, channel)` and of
    /// next states keyed by index.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::MissingInput`] or [`DfgError::MissingState`] if
    /// a referenced input or state value was not supplied, and
    /// [`DfgError::NonFinite`] if any node's value becomes NaN or infinite.
    #[allow(clippy::type_complexity)]
    pub fn simulate(
        &self,
        state: &[f64],
        inputs: &HashMap<(usize, usize), f64>,
    ) -> Result<(HashMap<(usize, usize), f64>, HashMap<usize, f64>), DfgError> {
        let mut v = vec![0.0_f64; self.nodes.len()];
        let mut outs = HashMap::new();
        let mut states = HashMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let p = |k: usize| v[n.preds[k].0];
            let value = match n.kind {
                NodeKind::Input { sample, channel } => *inputs
                    .get(&(sample, channel))
                    .ok_or(DfgError::MissingInput { sample, channel })?,
                NodeKind::StateIn { index } => *state.get(index).ok_or(DfgError::MissingState {
                    index,
                    supplied: state.len(),
                })?,
                NodeKind::Const(c) => c,
                NodeKind::Add => p(0) + p(1),
                NodeKind::Sub => p(0) - p(1),
                NodeKind::MulConst(c) => c * p(0),
                NodeKind::Shift(s) => p(0) * (s as f64).exp2(),
                NodeKind::Neg => -p(0),
                NodeKind::Delay => p(0),
                NodeKind::Output { sample, channel } => {
                    outs.insert((sample, channel), p(0));
                    p(0)
                }
                NodeKind::StateOut { index } => {
                    states.insert(index, p(0));
                    p(0)
                }
            };
            if !value.is_finite() {
                return Err(DfgError::NonFinite { node: i });
            }
            v[i] = value;
        }
        Ok((outs, states))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> (Dfg, NodeId) {
        // y = 0.5 * (x + s)
        let mut g = Dfg::new();
        let x = g
            .push(
                NodeKind::Input {
                    sample: 0,
                    channel: 0,
                },
                &[],
            )
            .unwrap();
        let s = g.push(NodeKind::StateIn { index: 0 }, &[]).unwrap();
        let a = g.push(NodeKind::Add, &[x, s]).unwrap();
        let m = g.push(NodeKind::MulConst(0.5), &[a]).unwrap();
        let y = g
            .push(
                NodeKind::Output {
                    sample: 0,
                    channel: 0,
                },
                &[m],
            )
            .unwrap();
        let _ = g.push(NodeKind::StateOut { index: 0 }, &[m]).unwrap();
        (g, y)
    }

    #[test]
    fn arity_enforced() {
        let mut g = Dfg::new();
        let x = g.push(NodeKind::Const(1.0), &[]).unwrap();
        assert_eq!(
            g.push(NodeKind::Add, &[x]).unwrap_err(),
            DfgError::Arity {
                expected: 2,
                actual: 1
            }
        );
        assert_eq!(
            g.push(NodeKind::Const(2.0), &[x]).unwrap_err(),
            DfgError::Arity {
                expected: 0,
                actual: 1
            }
        );
        // No operator takes three; the inline list refuses them too.
        assert_eq!(
            g.push(NodeKind::Add, &[x, x, x]).unwrap_err(),
            DfgError::Arity {
                expected: 2,
                actual: 3
            }
        );
    }

    #[test]
    fn forward_reference_rejected() {
        let mut g = Dfg::new();
        let err = g.push(NodeKind::Neg, &[NodeId(5)]).unwrap_err();
        assert_eq!(err, DfgError::ForwardReference { pred: 5, node: 0 });
    }

    #[test]
    fn simulation_semantics() {
        let (g, _) = chain();
        let mut inputs = HashMap::new();
        inputs.insert((0, 0), 3.0);
        let (outs, states) = g.simulate(&[1.0], &inputs).unwrap();
        assert_eq!(outs[&(0, 0)], 2.0);
        assert_eq!(states[&0], 2.0);
    }

    #[test]
    fn missing_input_reported() {
        let (g, _) = chain();
        let err = g.simulate(&[1.0], &HashMap::new()).unwrap_err();
        assert_eq!(
            err,
            DfgError::MissingInput {
                sample: 0,
                channel: 0
            }
        );
    }

    #[test]
    fn missing_state_reported() {
        let (g, _) = chain();
        let mut inputs = HashMap::new();
        inputs.insert((0, 0), 3.0);
        let err = g.simulate(&[], &inputs).unwrap_err();
        assert_eq!(
            err,
            DfgError::MissingState {
                index: 0,
                supplied: 0
            }
        );
    }

    #[test]
    fn non_finite_value_reported() {
        let (g, _) = chain();
        let mut inputs = HashMap::new();
        inputs.insert((0, 0), f64::NAN);
        let err = g.simulate(&[1.0], &inputs).unwrap_err();
        assert!(matches!(err, DfgError::NonFinite { .. }));
    }

    #[test]
    fn validate_accepts_pushed_graph() {
        let (g, _) = chain();
        assert!(g.validate().is_ok());
        assert!(Dfg::new().validate().is_ok());
    }

    #[test]
    fn op_census() {
        let (g, _) = chain();
        let c = g.op_counts();
        assert_eq!(c.adds, 1);
        assert_eq!(c.muls, 1);
        assert_eq!(c.shifts, 0);
    }

    #[test]
    fn critical_path_chains_delays() {
        let (g, _) = chain();
        let t = OpTiming {
            t_mul: 2.0,
            t_add: 1.0,
            t_shift: 0.0,
        };
        assert_eq!(g.critical_path(&t), 3.0);
        assert_eq!(g.feedback_critical_path(&t), 3.0);
    }

    #[test]
    fn registers_cut_paths() {
        // x -> * -> D -> + -> y : CP = max(mul, add) not mul+add.
        let mut g = Dfg::new();
        let x = g
            .push(
                NodeKind::Input {
                    sample: 0,
                    channel: 0,
                },
                &[],
            )
            .unwrap();
        let m = g.push(NodeKind::MulConst(0.3), &[x]).unwrap();
        let d = g.push(NodeKind::Delay, &[m]).unwrap();
        let a = g.push(NodeKind::Add, &[d, x]).unwrap();
        let _ = g
            .push(
                NodeKind::Output {
                    sample: 0,
                    channel: 0,
                },
                &[a],
            )
            .unwrap();
        let t = OpTiming {
            t_mul: 2.0,
            t_add: 1.0,
            t_shift: 0.0,
        };
        assert_eq!(g.critical_path(&t), 2.0);
    }

    #[test]
    fn feedback_path_ignores_input_only_paths() {
        // Long input-only chain, short state chain.
        let mut g = Dfg::new();
        let x = g
            .push(
                NodeKind::Input {
                    sample: 0,
                    channel: 0,
                },
                &[],
            )
            .unwrap();
        let mut acc = x;
        for _ in 0..5 {
            acc = g.push(NodeKind::MulConst(0.9), &[acc]).unwrap();
        }
        let s = g.push(NodeKind::StateIn { index: 0 }, &[]).unwrap();
        let sum = g.push(NodeKind::Add, &[acc, s]).unwrap();
        let _ = g.push(NodeKind::StateOut { index: 0 }, &[sum]).unwrap();
        let t = OpTiming {
            t_mul: 2.0,
            t_add: 1.0,
            t_shift: 0.0,
        };
        assert_eq!(g.critical_path(&t), 11.0);
        assert_eq!(g.feedback_critical_path(&t), 1.0);
    }

    #[test]
    fn shift_simulation() {
        let mut g = Dfg::new();
        let x = g
            .push(
                NodeKind::Input {
                    sample: 0,
                    channel: 0,
                },
                &[],
            )
            .unwrap();
        let up = g.push(NodeKind::Shift(3), &[x]).unwrap();
        let dn = g.push(NodeKind::Shift(-2), &[x]).unwrap();
        let a = g.push(NodeKind::Add, &[up, dn]).unwrap();
        let _ = g
            .push(
                NodeKind::Output {
                    sample: 0,
                    channel: 0,
                },
                &[a],
            )
            .unwrap();
        let mut inputs = HashMap::new();
        inputs.insert((0, 0), 4.0);
        let (outs, _) = g.simulate(&[], &inputs).unwrap();
        assert_eq!(outs[&(0, 0)], 33.0);
    }
}
