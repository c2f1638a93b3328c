//! Builders from state-space matrices to maximally-fast dataflow graphs.
//!
//! The *maximally fast* organization (§1 of the paper): every linear
//! combination does its constant multiplications in parallel and then sums
//! them in a fully balanced binary tree, so the feedback critical path is
//! `t_mul + ⌈log₂(1+R)⌉·t_add` regardless of unfolding.

use crate::{Dfg, DfgError, NodeId, NodeKind};
use lintra_linsys::count::{classify, CoeffClass, CLASSIFY_TOL};
use lintra_linsys::{StateSpace, UnfoldedSystem};
use lintra_matrix::Matrix;

/// A term awaiting summation: a node and whether it enters negated.
///
/// Exposed so other crates (the Horner builder in `lintra-transform`) can
/// compose linear combinations with the same balanced-tree machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Term {
    /// The value-producing node.
    pub node: NodeId,
    /// `true` when the term enters the sum negated.
    pub neg: bool,
}

/// A positive term wrapping an existing node.
pub fn plain_term(node: NodeId) -> Term {
    Term { node, neg: false }
}

/// Emits the multiplication terms of one matrix row applied to source
/// nodes, skipping zero coefficients and folding ±1 into wires/negations.
///
/// # Errors
///
/// Propagates [`DfgError`] from node insertion.
///
/// # Panics
///
/// Panics if `coeffs` and `srcs` have different lengths.
pub fn row_terms(g: &mut Dfg, coeffs: &[f64], srcs: &[NodeId]) -> Result<Vec<Term>, DfgError> {
    assert_eq!(coeffs.len(), srcs.len(), "row/source length mismatch");
    let mut terms = Vec::new();
    for (&c, &s) in coeffs.iter().zip(srcs) {
        if let Some(t) = coeff_term(g, c, s)? {
            terms.push(t);
        }
    }
    Ok(terms)
}

/// Sums terms into a single pending [`Term`] with a balanced tree; `None`
/// for an empty list.
///
/// # Errors
///
/// Propagates [`DfgError`] from node insertion.
pub fn sum_to_term(g: &mut Dfg, terms: Vec<Term>) -> Result<Option<Term>, DfgError> {
    balanced_tree(g, terms)
}

/// Sums terms into a node (`Const(0)` when empty, `Neg` applied if the
/// tree is negative).
///
/// # Errors
///
/// Propagates [`DfgError`] from node insertion.
pub fn sum_to_node(g: &mut Dfg, terms: Vec<Term>) -> Result<NodeId, DfgError> {
    balanced_sum(g, terms)
}

/// Materializes a pending term as a node (applies `Neg` when needed).
///
/// # Errors
///
/// Propagates [`DfgError`] from node insertion.
pub fn term_to_node(g: &mut Dfg, t: Term) -> Result<NodeId, DfgError> {
    if t.neg {
        g.push(NodeKind::Neg, &[t.node])
    } else {
        Ok(t.node)
    }
}

/// Combines terms with a balanced binary tree of adds/subs; `None` for an
/// empty list. The returned term may carry a pending negation.
fn balanced_tree(g: &mut Dfg, mut terms: Vec<Term>) -> Result<Option<Term>, DfgError> {
    if terms.is_empty() {
        return Ok(None);
    }
    while terms.len() > 1 {
        let mut next = Vec::with_capacity(terms.len().div_ceil(2));
        for pair in terms.chunks(2) {
            if pair.len() == 1 {
                next.push(pair[0]);
                continue;
            }
            let (a, b) = (pair[0], pair[1]);
            let combined = match (a.neg, b.neg) {
                (false, false) => Term {
                    node: g.push(NodeKind::Add, &[a.node, b.node])?,
                    neg: false,
                },
                (false, true) => Term {
                    node: g.push(NodeKind::Sub, &[a.node, b.node])?,
                    neg: false,
                },
                (true, false) => Term {
                    node: g.push(NodeKind::Sub, &[b.node, a.node])?,
                    neg: false,
                },
                (true, true) => Term {
                    node: g.push(NodeKind::Add, &[a.node, b.node])?,
                    neg: true,
                },
            };
            next.push(combined);
        }
        terms = next;
    }
    Ok(Some(terms[0]))
}

/// Sums terms to a single node, inserting a `Neg` if the whole tree is
/// negative, or a `Const(0)` node for an empty list.
fn balanced_sum(g: &mut Dfg, terms: Vec<Term>) -> Result<NodeId, DfgError> {
    match balanced_tree(g, terms)? {
        None => g.push(NodeKind::Const(0.0), &[]),
        Some(t) if t.neg => g.push(NodeKind::Neg, &[t.node]),
        Some(t) => Ok(t.node),
    }
}

/// Emits the term for one coefficient applied to `src`, skipping zeros.
fn coeff_term(g: &mut Dfg, coeff: f64, src: NodeId) -> Result<Option<Term>, DfgError> {
    Ok(match classify(coeff, CLASSIFY_TOL) {
        CoeffClass::Zero => None,
        CoeffClass::One => Some(Term {
            node: src,
            neg: false,
        }),
        CoeffClass::MinusOne => Some(Term {
            node: src,
            neg: true,
        }),
        // In the processor-oriented maximally fast form a power of two is
        // still a constant multiplication node; the ASIC passes in
        // `lintra-transform` rewrite it into a Shift.
        CoeffClass::PowerOfTwo { .. } | CoeffClass::General => Some(Term {
            node: g.push(NodeKind::MulConst(coeff), &[src])?,
            neg: false,
        }),
    })
}

/// Builds one stacked row group `dst_row = [lhs | rhs]·[v; w]`.
///
/// The `rhs` (input-side) contributions are first collapsed into their own
/// sub-tree and then enter the `lhs` (state-side) tree as a *single* leaf —
/// the paper's "on-arrival" organization: input work is pipelineable, so
/// the feedback path only pays `⌈log₂(terms_lhs + 1)⌉` adder levels
/// (`⌈log₂(1+R)⌉` in the dense case) no matter how far the system is
/// unfolded.
fn build_rows(
    g: &mut Dfg,
    lhs: &Matrix,
    lhs_src: &[NodeId],
    rhs: &Matrix,
    rhs_src: &[NodeId],
    mut sink: impl FnMut(usize) -> NodeKind,
) -> Result<(), DfgError> {
    for r in 0..lhs.rows() {
        let mut terms = Vec::new();
        for (j, &src) in lhs_src.iter().enumerate() {
            if let Some(t) = coeff_term(g, lhs[(r, j)], src)? {
                terms.push(t);
            }
        }
        let mut rhs_terms = Vec::new();
        for (j, &src) in rhs_src.iter().enumerate() {
            if let Some(t) = coeff_term(g, rhs[(r, j)], src)? {
                rhs_terms.push(t);
            }
        }
        if let Some(rhs_root) = balanced_tree(g, rhs_terms)? {
            terms.push(rhs_root);
        }
        let root = balanced_sum(g, terms)?;
        let kind = sink(r);
        g.push(kind, &[root])?;
    }
    Ok(())
}

/// Builds the maximally fast CDFG of one iteration of `sys`
/// (`S' = A·S + B·X`, `Y = C·S + D·X`), with inputs labelled as sample 0.
///
/// # Errors
///
/// Propagates [`DfgError`] from node insertion.
pub fn from_state_space(sys: &StateSpace) -> Result<Dfg, DfgError> {
    from_state_space_batched(sys, 1, sys.num_inputs(), sys.num_outputs())
}

/// Builds the maximally fast CDFG of an unfolded system, labelling inputs
/// and outputs with their within-batch sample indices.
///
/// # Errors
///
/// Propagates [`DfgError`] from node insertion.
pub fn from_unfolded(u: &UnfoldedSystem) -> Result<Dfg, DfgError> {
    let (p, q, _) = u.original_dims;
    from_state_space_batched(&u.system, u.batch(), p, q)
}

/// Shared builder: the block system's stacked inputs/outputs are labelled
/// `(sample, channel)` with `channel < p` (resp. `q`).
fn from_state_space_batched(
    sys: &StateSpace,
    batch: usize,
    p: usize,
    q: usize,
) -> Result<Dfg, DfgError> {
    assert_eq!(
        sys.num_inputs(),
        batch * p,
        "input width does not match batch"
    );
    assert_eq!(
        sys.num_outputs(),
        batch * q,
        "output width does not match batch"
    );
    let mut g = Dfg::new();
    let mut states = Vec::with_capacity(sys.num_states());
    for i in 0..sys.num_states() {
        states.push(g.push(NodeKind::StateIn { index: i }, &[])?);
    }
    let mut inputs = Vec::with_capacity(sys.num_inputs());
    for i in 0..sys.num_inputs() {
        inputs.push(g.push(
            NodeKind::Input {
                sample: i / p,
                channel: i % p,
            },
            &[],
        )?);
    }
    build_rows(&mut g, sys.a(), &states, sys.b(), &inputs, |r| {
        NodeKind::StateOut { index: r }
    })?;
    build_rows(&mut g, sys.c(), &states, sys.d(), &inputs, |r| {
        NodeKind::Output {
            sample: r / q,
            channel: r % q,
        }
    })?;
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpTiming;
    use lintra_linsys::count::{op_count, TrivialityRule};
    use lintra_linsys::unfold;
    use std::collections::HashMap;

    fn sys() -> StateSpace {
        StateSpace::new(
            Matrix::from_rows(&[&[0.4, 0.3], &[-0.2, 0.5]]),
            Matrix::from_rows(&[&[0.7], &[1.0]]),
            Matrix::from_rows(&[&[0.6, -1.0]]),
            Matrix::from_rows(&[&[0.35]]),
        )
        .unwrap()
    }

    #[test]
    fn graph_simulation_matches_state_space_step() {
        let s = sys();
        let g = from_state_space(&s).unwrap();
        let state = [0.7, -0.4];
        let mut inputs = HashMap::new();
        inputs.insert((0usize, 0usize), 1.3);
        let (outs, next) = g.simulate(&state, &inputs).unwrap();
        let (y, sn) = s.step(&state, &[1.3]).unwrap();
        assert!((outs[&(0, 0)] - y[0]).abs() < 1e-12);
        assert!((next[&0] - sn[0]).abs() < 1e-12);
        assert!((next[&1] - sn[1]).abs() < 1e-12);
    }

    #[test]
    fn graph_op_counts_match_linsys_counts() {
        let s = sys();
        let g = from_state_space(&s).unwrap();
        let c = op_count(&s, TrivialityRule::ZeroOne);
        let gc = g.op_counts();
        assert_eq!(gc.muls, c.muls);
        assert_eq!(gc.adds, c.adds);
    }

    #[test]
    fn unfolded_graph_matches_unfolded_counts() {
        let s = sys();
        for i in [1u32, 3, 5] {
            let u = unfold(&s, i).unwrap();
            let g = from_unfolded(&u).unwrap();
            let c = op_count(&u.system, TrivialityRule::ZeroOne);
            let gc = g.op_counts();
            assert_eq!(gc.muls, c.muls, "i={i}");
            assert_eq!(gc.adds, c.adds, "i={i}");
        }
    }

    #[test]
    fn feedback_critical_path_matches_formula_and_stays_flat() {
        // A dense system: CP = t_mul + ceil(log2(1+R)) * t_add for all i.
        let f = |i: usize, j: usize| 0.23 + 0.017 * i as f64 + 0.009 * j as f64;
        let dense = StateSpace::new(
            Matrix::from_fn(5, 5, f).scale(0.2),
            Matrix::from_fn(5, 1, f),
            Matrix::from_fn(1, 5, f),
            Matrix::from_fn(1, 1, f),
        )
        .unwrap();
        let t = OpTiming {
            t_mul: 2.0,
            t_add: 1.0,
            t_shift: 0.0,
        };
        let expect = 2.0 + (6.0_f64).log2().ceil();
        for i in 0..5u32 {
            let g = from_unfolded(&unfold(&dense, i).unwrap()).unwrap();
            assert_eq!(g.feedback_critical_path(&t), expect, "i={i}");
        }
    }

    #[test]
    fn unfolded_graph_simulates_batches_correctly() {
        let s = sys();
        let u = unfold(&s, 2).unwrap();
        let g = from_unfolded(&u).unwrap();
        // Reference: plain simulation.
        let xs = [0.5, -1.0, 2.0, 0.25, 0.75, -0.5];
        let inputs: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let want = s.simulate(&inputs).unwrap();
        // Graph: two batches of 3.
        let mut state = vec![0.0, 0.0];
        let mut got = Vec::new();
        for batch in xs.chunks(3) {
            let mut m = HashMap::new();
            for (k, &x) in batch.iter().enumerate() {
                m.insert((k, 0usize), x);
            }
            let (outs, next) = g.simulate(&state, &m).unwrap();
            for k in 0..3 {
                got.push(outs[&(k, 0)]);
            }
            state = vec![next[&0], next[&1]];
        }
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w[0]).abs() < 1e-10, "{g} vs {}", w[0]);
        }
    }

    #[test]
    fn trivial_coefficients_produce_no_mul_nodes() {
        let s = StateSpace::new(
            Matrix::from_rows(&[&[1.0, -1.0], &[0.0, 1.0]]),
            Matrix::from_rows(&[&[1.0], &[0.0]]),
            Matrix::from_rows(&[&[1.0, 0.0]]),
            Matrix::from_rows(&[&[0.0]]),
        )
        .unwrap();
        let g = from_state_space(&s).unwrap();
        assert_eq!(g.op_counts().muls, 0);
    }

    #[test]
    fn empty_row_yields_zero_constant() {
        let s = StateSpace::new(
            Matrix::from_rows(&[&[0.0]]),
            Matrix::from_rows(&[&[0.0]]),
            Matrix::from_rows(&[&[1.0]]),
            Matrix::from_rows(&[&[0.0]]),
        )
        .unwrap();
        let g = from_state_space(&s).unwrap();
        let (outs, next) = g.simulate(&[5.0], &HashMap::from([((0, 0), 9.0)])).unwrap();
        assert_eq!(next[&0], 0.0);
        assert_eq!(outs[&(0, 0)], 5.0);
    }

    #[test]
    fn adder_tree_is_balanced() {
        // 1 state term + 7 input terms: the input sub-tree is balanced
        // (depth ceil(log2 7) = 3) and joins the state tree as one leaf.
        let f = |_: usize, _: usize| 0.5;
        let s = StateSpace::new(
            Matrix::from_fn(1, 1, f),
            Matrix::from_fn(1, 7, f),
            Matrix::from_fn(1, 1, f),
            Matrix::from_fn(1, 7, f),
        )
        .unwrap();
        let g = from_state_space(&s).unwrap();
        let t = OpTiming {
            t_mul: 1.0,
            t_add: 1.0,
            t_shift: 0.0,
        };
        // Input path: mul (1) + 3 input-tree adds + 1 joining add = 5.
        assert_eq!(g.critical_path(&t), 5.0);
        // Feedback path: mul (1) + ceil(log2(1+R)) = 1 add -> 2.
        assert_eq!(g.feedback_critical_path(&t), 2.0);
    }
}
