//! Rewriting constant multiplications into shared shift-add networks.
//!
//! All [`NodeKind::MulConst`] nodes that hang off the *same* predecessor
//! node multiply one common variable — exactly an MCM instance. The pass
//! quantizes each group's constants to fixed point, synthesizes a shared
//! network with iterative pairwise matching, and rebuilds the graph with
//! `Shift`/`Add`/`Sub`/`Neg` nodes in place of the multipliers.

use lintra_dfg::{Dfg, DfgError, NodeId, NodeKind};
use lintra_mcm::{quantize, synthesize, McmSolution, OutputRef, Recoding, Source, Term};
use std::collections::HashMap;

/// Configuration of the multiplier-expansion pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McmPassConfig {
    /// Fractional bits of the fixed-point quantization.
    pub frac_bits: u32,
    /// Digit recoding used by the MCM synthesis.
    pub recoding: Recoding,
}

impl Default for McmPassConfig {
    fn default() -> Self {
        McmPassConfig {
            frac_bits: 12,
            recoding: Recoding::Csd,
        }
    }
}

/// Statistics of one [`expand_multiplications`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct McmPassReport {
    /// Multiplier nodes removed.
    pub muls_removed: u64,
    /// MCM groups (distinct driven variables with ≥ 1 constant mult).
    pub groups: u64,
    /// Additions/subtractions inserted by the shift-add networks.
    pub adds_inserted: u64,
    /// Shift nodes inserted.
    pub shifts_inserted: u64,
}

/// Per-group emission state: lazily materialized MCM expressions.
struct GroupEmitter {
    plan: McmSolution,
    /// Node computing each plan expression (scaled by `2^frac_bits`).
    expr_nodes: Vec<Option<NodeId>>,
    /// Output node per original constant, keyed by constant.
    outputs: HashMap<i64, usize>,
}

impl GroupEmitter {
    fn from_plan(constants: &[i64], plan: McmSolution) -> GroupEmitter {
        let outputs = constants.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        GroupEmitter {
            expr_nodes: vec![None; plan.exprs.len()],
            plan,
            outputs,
        }
    }

    fn term_node(
        &mut self,
        g: &mut Dfg,
        base: NodeId,
        t: &Term,
        report: &mut McmPassReport,
    ) -> Result<(NodeId, bool), DfgError> {
        let src = match t.source {
            Source::Input => base,
            Source::Expr(i) => self.expr_node(g, base, i, report)?,
        };
        let shifted = if t.shift != 0 {
            report.shifts_inserted += 1;
            g.push(NodeKind::Shift(t.shift as i32), &[src])?
        } else {
            src
        };
        Ok((shifted, t.neg))
    }

    fn expr_node(
        &mut self,
        g: &mut Dfg,
        base: NodeId,
        idx: usize,
        report: &mut McmPassReport,
    ) -> Result<NodeId, DfgError> {
        if let Some(n) = self.expr_nodes[idx] {
            return Ok(n);
        }
        let terms = self.plan.exprs[idx].terms.clone();
        let mut acc: Option<(NodeId, bool)> = None;
        for t in &terms {
            let (node, neg) = self.term_node(g, base, t, report)?;
            acc = Some(match acc {
                None => (node, neg),
                Some((prev, prev_neg)) => {
                    report.adds_inserted += 1;
                    match (prev_neg, neg) {
                        (false, false) => (g.push(NodeKind::Add, &[prev, node])?, false),
                        (false, true) => (g.push(NodeKind::Sub, &[prev, node])?, false),
                        (true, false) => (g.push(NodeKind::Sub, &[node, prev])?, false),
                        (true, true) => (g.push(NodeKind::Add, &[prev, node])?, true),
                    }
                }
            });
        }
        // MCM plans never emit empty expressions; degrade to a zero
        // constant rather than trusting that invariant with a panic.
        let (node, neg) = match acc {
            Some(v) => v,
            None => (g.push(NodeKind::Const(0.0), &[])?, false),
        };
        let node = if neg {
            g.push(NodeKind::Neg, &[node])?
        } else {
            node
        };
        self.expr_nodes[idx] = Some(node);
        Ok(node)
    }

    /// Emits the value `q · base` where `q` is the quantized constant, then
    /// rescales by `2^{-frac_bits}` through the output shift.
    fn output_node(
        &mut self,
        g: &mut Dfg,
        base: NodeId,
        q: i64,
        frac_bits: u32,
        report: &mut McmPassReport,
    ) -> Result<NodeId, DfgError> {
        let idx = self.outputs[&q];
        let (_, output) = self.plan.outputs[idx];
        match output {
            OutputRef::Zero => g.push(NodeKind::Const(0.0), &[]),
            OutputRef::Scaled(t) => {
                let src = match t.source {
                    Source::Input => base,
                    Source::Expr(i) => self.expr_node(g, base, i, report)?,
                };
                // Combine the plan shift with the binary-point restore.
                let total_shift = t.shift as i32 - frac_bits as i32;
                let shifted = if total_shift != 0 {
                    report.shifts_inserted += 1;
                    g.push(NodeKind::Shift(total_shift), &[src])?
                } else {
                    src
                };
                if t.neg {
                    g.push(NodeKind::Neg, &[shifted])
                } else {
                    Ok(shifted)
                }
            }
        }
    }
}

/// The MCM instances of `g`: for every node that drives a `MulConst`, the
/// node's index and its multipliers' constants quantized to `frac_bits`,
/// sorted and deduplicated — exactly what [`expand_multiplications`] hands
/// [`synthesize`] for that node.
pub fn constant_groups(g: &Dfg, frac_bits: u32) -> HashMap<usize, Vec<i64>> {
    let mut groups: HashMap<usize, Vec<i64>> = HashMap::new();
    for (_, n) in g.iter() {
        if let NodeKind::MulConst(c) = n.kind {
            groups
                .entry(n.preds[0].0)
                .or_default()
                .push(quantize(c, frac_bits));
        }
    }
    for consts in groups.values_mut() {
        consts.sort_unstable();
        consts.dedup();
    }
    groups
}

/// Replaces every `MulConst` node by a shared shift-add network (one MCM
/// instance per driven variable) and returns the rebuilt graph.
///
/// The rebuilt graph computes the *quantized* system: each constant `c` is
/// replaced by `round(c·2^w)/2^w`. With `w` fractional bits the output
/// error per multiplication is bounded by `2^{−w−1}·|x|`.
///
/// # Errors
///
/// Propagates [`DfgError`] from node insertion; the rebuilt graph is
/// re-validated before being returned.
pub fn expand_multiplications(
    g: &Dfg,
    config: McmPassConfig,
) -> Result<(Dfg, McmPassReport), DfgError> {
    let groups = constant_groups(g, config.frac_bits);
    let mut report = McmPassReport {
        groups: groups.len() as u64,
        ..Default::default()
    };
    // Unfolded graphs repeat the same coefficient rows across samples
    // (block-Toeplitz structure), so many groups share one constant set;
    // synthesize each distinct set once and clone the plan.
    let mut plans: HashMap<Vec<i64>, McmSolution> = HashMap::new();
    let mut emitters: HashMap<usize, GroupEmitter> = groups
        .into_iter()
        .map(|(pred, consts)| {
            let plan = plans
                .entry(consts.clone())
                .or_insert_with(|| synthesize(&consts, config.recoding))
                .clone();
            (pred, GroupEmitter::from_plan(&consts, plan))
        })
        .collect();

    let mut out = Dfg::new();
    let mut remap: Vec<NodeId> = Vec::with_capacity(g.len());
    for (_, n) in g.iter() {
        let mut preds = n.preds;
        for p in preds.iter_mut() {
            *p = remap[p.0];
        }
        let new_id = match (n.kind, n.preds.first()) {
            (NodeKind::MulConst(c), Some(pred)) => {
                let pred_old = pred.0;
                let base = remap[pred_old];
                let q = quantize(c, config.frac_bits);
                match emitters.get_mut(&pred_old) {
                    Some(em) => {
                        report.muls_removed += 1;
                        em.output_node(&mut out, base, q, config.frac_bits, &mut report)?
                    }
                    // Grouping is keyed by predecessor, so the group always
                    // exists; keep the multiplier if it somehow does not.
                    None => out.push(n.kind, &preds)?,
                }
            }
            (kind, _) => out.push(kind, &preds)?,
        };
        remap.push(new_id);
    }
    out.validate()?;
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintra_dfg::build;
    use lintra_linsys::StateSpace;
    use lintra_matrix::Matrix;
    use std::collections::HashMap as Map;

    /// Dyadic coefficients quantize exactly at 8 fractional bits.
    fn dyadic_sys() -> StateSpace {
        StateSpace::new(
            Matrix::from_rows(&[&[0.40625, 0.25], &[-0.71875, 0.5]]),
            Matrix::from_rows(&[&[0.828125], &[1.0]]),
            Matrix::from_rows(&[&[0.59375, -1.0]]),
            Matrix::from_rows(&[&[0.15625]]),
        )
        .unwrap()
    }

    #[test]
    fn rewritten_graph_is_exact_for_dyadic_coefficients() {
        let sys = dyadic_sys();
        let g = build::from_state_space(&sys).unwrap();
        let (h, report) = expand_multiplications(
            &g,
            McmPassConfig {
                frac_bits: 8,
                recoding: Recoding::Csd,
            },
        )
        .unwrap();
        assert!(report.muls_removed > 0);
        assert_eq!(h.op_counts().muls, 0, "all multipliers must be gone");
        let state = [0.3, -0.7];
        let inputs = Map::from([((0usize, 0usize), 1.25)]);
        let (o1, s1) = g.simulate(&state, &inputs).unwrap();
        let (o2, s2) = h.simulate(&state, &inputs).unwrap();
        assert!((o1[&(0, 0)] - o2[&(0, 0)]).abs() < 1e-12);
        for k in 0..2 {
            assert!((s1[&k] - s2[&k]).abs() < 1e-12);
        }
    }

    #[test]
    fn quantization_error_is_bounded() {
        let sys = StateSpace::new(
            Matrix::from_rows(&[&[0.437, 0.211], &[-0.713, 0.509]]),
            Matrix::from_rows(&[&[0.831], &[0.377]]),
            Matrix::from_rows(&[&[0.591, -0.299]]),
            Matrix::from_rows(&[&[0.153]]),
        )
        .unwrap();
        let g = build::from_state_space(&sys).unwrap();
        let (h, _) = expand_multiplications(
            &g,
            McmPassConfig {
                frac_bits: 12,
                recoding: Recoding::Csd,
            },
        )
        .unwrap();
        let state = [0.4, 0.9];
        let inputs = Map::from([((0usize, 0usize), -0.6)]);
        let (o1, _) = g.simulate(&state, &inputs).unwrap();
        let (o2, _) = h.simulate(&state, &inputs).unwrap();
        // ~4 coefficients per row, inputs ~1: error well under 4 * 2^-13.
        assert!((o1[&(0, 0)] - o2[&(0, 0)]).abs() < 1e-3);
    }

    #[test]
    fn sharing_across_constants_on_one_variable() {
        // Two multiplications of the same node by 185/256 and 235/256: the
        // MCM plan shares the 169 subexpression, so the rewrite inserts
        // fewer adds than independent CSD decomposition would.
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
        let m1 = g.push(NodeKind::MulConst(185.0 / 256.0), &[x]).unwrap();
        let m2 = g.push(NodeKind::MulConst(235.0 / 256.0), &[x]).unwrap();
        let a = g.push(NodeKind::Add, &[m1, m2]).unwrap();
        g.push(
            NodeKind::Output {
                sample: 0,
                channel: 0,
            },
            &[a],
        )
        .unwrap();

        let (h, report) = expand_multiplications(
            &g,
            McmPassConfig {
                frac_bits: 8,
                recoding: Recoding::Binary,
            },
        )
        .unwrap();
        assert_eq!(report.muls_removed, 2);
        assert!(
            report.adds_inserted <= 6,
            "expected shared plan, got {report:?}"
        );
        // Semantics preserved exactly (dyadic).
        let inputs = Map::from([((0usize, 0usize), 3.0)]);
        let (o, _) = h.simulate(&[], &inputs).unwrap();
        assert!((o[&(0, 0)] - 3.0 * (185.0 + 235.0) / 256.0).abs() < 1e-12);
    }

    #[test]
    fn groups_keyed_by_predecessor() {
        // Same constant on two different variables: two groups.
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
        let y = g
            .push(
                NodeKind::Input {
                    sample: 0,
                    channel: 1,
                },
                &[],
            )
            .unwrap();
        let m1 = g.push(NodeKind::MulConst(0.375), &[x]).unwrap();
        let m2 = g.push(NodeKind::MulConst(0.375), &[y]).unwrap();
        let a = g.push(NodeKind::Add, &[m1, m2]).unwrap();
        g.push(
            NodeKind::Output {
                sample: 0,
                channel: 0,
            },
            &[a],
        )
        .unwrap();
        let (_, report) = expand_multiplications(&g, McmPassConfig::default()).unwrap();
        assert_eq!(report.groups, 2);
    }

    #[test]
    fn trivial_and_negative_constants() {
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
        let m1 = g.push(NodeKind::MulConst(-0.5), &[x]).unwrap();
        let m2 = g.push(NodeKind::MulConst(2.0), &[x]).unwrap();
        let a = g.push(NodeKind::Add, &[m1, m2]).unwrap();
        g.push(
            NodeKind::Output {
                sample: 0,
                channel: 0,
            },
            &[a],
        )
        .unwrap();
        let (h, report) = expand_multiplications(
            &g,
            McmPassConfig {
                frac_bits: 4,
                recoding: Recoding::Csd,
            },
        )
        .unwrap();
        assert_eq!(report.muls_removed, 2);
        assert_eq!(report.adds_inserted, 0);
        let inputs = Map::from([((0usize, 0usize), 8.0)]);
        let (o, _) = h.simulate(&[], &inputs).unwrap();
        assert!((o[&(0, 0)] - (8.0 * 1.5)).abs() < 1e-12);
    }

    #[test]
    fn graph_without_multiplications_is_unchanged_semantically() {
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
        g.push(NodeKind::StateOut { index: 0 }, &[a]).unwrap();
        let (h, report) = expand_multiplications(&g, McmPassConfig::default()).unwrap();
        assert_eq!(report.muls_removed, 0);
        assert_eq!(report.groups, 0);
        assert_eq!(h.len(), g.len());
    }
}
