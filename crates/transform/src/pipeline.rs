//! Feed-forward pipelining: the §5 observation that "we can add to the
//! non-recursive part of the computational structure an arbitrary number of
//! pipeline delays and therefore increase throughput and reduce voltage to
//! an arbitrary low level".
//!
//! [`insert_registers`] cuts the graph at uniform combinational-depth
//! levels, placing a [`NodeKind::Delay`] on every edge that crosses a
//! level boundary — except edges inside the feedback section (on a path
//! from a `StateIn` to a `StateOut`), where a register would change the
//! recurrence. After the pass the combinational critical path is bounded
//! by one level (plus the longest single operation), while the feedback
//! path is untouched.

use lintra_dfg::{Dfg, DfgError, NodeId, NodeKind, OpTiming};

/// Report from [`insert_registers`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineReport {
    /// Registers inserted.
    pub registers: u64,
    /// Critical path before the pass.
    pub cp_before: f64,
    /// Critical path after the pass.
    pub cp_after: f64,
    /// Number of pipeline levels used.
    pub levels: u32,
}

/// Nodes that lie on some `StateIn → StateOut` path (the feedback
/// section); registers must not be inserted between two such nodes.
fn feedback_nodes(g: &Dfg) -> Vec<bool> {
    let n = g.len();
    // Reachable from StateIn (forward).
    let mut from_state = vec![false; n];
    for (id, node) in g.iter() {
        if matches!(node.kind, NodeKind::StateIn { .. })
            || node.preds.iter().any(|p| from_state[p.0])
        {
            from_state[id.0] = true;
        }
    }
    // Reaches StateOut (backward).
    let mut to_state = vec![false; n];
    for (id, node) in g.iter().collect::<Vec<_>>().into_iter().rev() {
        if matches!(node.kind, NodeKind::StateOut { .. }) {
            to_state[id.0] = true;
        }
        if to_state[id.0] {
            for p in &node.preds {
                to_state[p.0] = true;
            }
        }
    }
    (0..n).map(|i| from_state[i] && to_state[i]).collect()
}

/// Inserts pipeline registers so every combinational path outside the
/// feedback section is at most `level_delay` long (in `timing` units).
///
/// Returns the rebuilt graph (identical steady-state values: the
/// functional semantics of [`lintra_dfg::Dfg::simulate`] treat registers
/// as wires) and a [`PipelineReport`].
///
/// # Errors
///
/// Propagates [`DfgError`] from node insertion; the rebuilt graph is
/// re-validated before being returned.
///
/// # Panics
///
/// Panics if `level_delay` is not positive.
pub fn insert_registers(
    g: &Dfg,
    level_delay: f64,
    timing: &OpTiming,
) -> Result<(Dfg, PipelineReport), DfgError> {
    assert!(level_delay > 0.0, "level delay must be positive");
    let cp_before = g.critical_path(timing);
    let fb = feedback_nodes(g);

    // Combinational finish time per node, ignoring existing registers.
    let mut finish = vec![0.0_f64; g.len()];
    for (id, node) in g.iter() {
        let start = node.preds.iter().map(|p| finish[p.0]).fold(0.0, f64::max);
        finish[id.0] = start + timing.of(&node.kind);
    }
    // Stage k holds the nodes finishing in (k·Δ, (k+1)·Δ]; an edge crossing
    // s stage boundaries gets s registers. Any remaining combinational
    // path is then bounded by Δ plus one operation delay.
    let stage_of = |t: f64| {
        if t <= 0.0 {
            0i64
        } else {
            (t / level_delay).ceil() as i64 - 1
        }
    };

    let mut out = Dfg::new();
    let mut remap: Vec<NodeId> = Vec::with_capacity(g.len());
    // Cache: one register chain per (source node, levels crossed).
    let mut reg_cache: std::collections::HashMap<(usize, i64), NodeId> =
        std::collections::HashMap::new();
    let mut registers = 0u64;

    for (id, node) in g.iter() {
        let my_stage = stage_of(finish[id.0]);
        let mut preds = node.preds;
        for (slot, p) in preds.iter_mut().zip(&node.preds) {
            let mut src = remap[p.0];
            let crossings = my_stage - stage_of(finish[p.0]);
            if crossings > 0 && !(fb[p.0] && fb[id.0]) {
                for step in 1..=crossings {
                    src = match reg_cache.get(&(p.0, step)) {
                        Some(&existing) => existing,
                        None => {
                            registers += 1;
                            let prev = if step == 1 {
                                remap[p.0]
                            } else {
                                reg_cache[&(p.0, step - 1)]
                            };
                            let reg = out.push(NodeKind::Delay, &[prev])?;
                            reg_cache.insert((p.0, step), reg);
                            reg
                        }
                    };
                }
            }
            *slot = src;
        }
        remap.push(out.push(node.kind, &preds)?);
    }

    let cp_after = out.critical_path(timing);
    let levels = (cp_before / level_delay).ceil() as u32;
    out.validate()?;
    Ok((
        out,
        PipelineReport {
            registers,
            cp_before,
            cp_after,
            levels,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn chain_graph(n: usize) -> Dfg {
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
        for _ in 0..n {
            acc = g.push(NodeKind::MulConst(0.9), &[acc]).unwrap();
        }
        g.push(
            NodeKind::Output {
                sample: 0,
                channel: 0,
            },
            &[acc],
        )
        .unwrap();
        g
    }

    #[test]
    fn cuts_long_chains() {
        let g = chain_graph(8);
        let t = OpTiming {
            t_mul: 1.0,
            t_add: 1.0,
            t_shift: 0.0,
        };
        assert_eq!(g.critical_path(&t), 8.0);
        let (h, report) = insert_registers(&g, 2.0, &t).unwrap();
        assert!(report.cp_after <= 3.0, "cp_after {}", report.cp_after);
        assert!(report.registers >= 3);
        // Values unchanged.
        let inputs = HashMap::from([((0, 0), 2.0)]);
        let (o1, _) = g.simulate(&[], &inputs).unwrap();
        let (o2, _) = h.simulate(&[], &inputs).unwrap();
        assert!((o1[&(0, 0)] - o2[&(0, 0)]).abs() < 1e-12);
    }

    #[test]
    fn feedback_section_is_never_cut() {
        // s' = 0.9*(s + x): the mul/add are in the feedback loop.
        let mut g = Dfg::new();
        let s = g.push(NodeKind::StateIn { index: 0 }, &[]).unwrap();
        let x = g
            .push(
                NodeKind::Input {
                    sample: 0,
                    channel: 0,
                },
                &[],
            )
            .unwrap();
        // Long feed-forward preprocessing of x.
        let mut xa = x;
        for _ in 0..6 {
            xa = g.push(NodeKind::MulConst(1.1), &[xa]).unwrap();
        }
        let sum = g.push(NodeKind::Add, &[s, xa]).unwrap();
        let m = g.push(NodeKind::MulConst(0.9), &[sum]).unwrap();
        g.push(NodeKind::StateOut { index: 0 }, &[m]).unwrap();
        let t = OpTiming {
            t_mul: 1.0,
            t_add: 1.0,
            t_shift: 0.0,
        };
        let fb_before = g.feedback_critical_path(&t);
        let (h, report) = insert_registers(&g, 2.0, &t).unwrap();
        assert!(report.registers > 0);
        assert_eq!(
            h.feedback_critical_path(&t),
            fb_before,
            "feedback path must be untouched"
        );
    }

    #[test]
    fn fanout_shares_register_chains() {
        // One deep value consumed by two late users: the register chain is
        // built once.
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
        let m = g.push(NodeKind::MulConst(2.0), &[x]).unwrap();
        let mut deep = x;
        for _ in 0..4 {
            deep = g.push(NodeKind::MulConst(1.5), &[deep]).unwrap();
        }
        let a1 = g.push(NodeKind::Add, &[m, deep]).unwrap();
        let a2 = g.push(NodeKind::Add, &[m, deep]).unwrap();
        let s = g.push(NodeKind::Add, &[a1, a2]).unwrap();
        g.push(
            NodeKind::Output {
                sample: 0,
                channel: 0,
            },
            &[s],
        )
        .unwrap();
        let t = OpTiming {
            t_mul: 1.0,
            t_add: 1.0,
            t_shift: 0.0,
        };
        let (h, _) = insert_registers(&g, 2.0, &t).unwrap();
        // m is consumed at depth 4-ish twice; its register chain must be
        // shared, so the delay count stays small.
        let delays = h.op_counts().delays;
        assert!(delays <= 4, "got {delays} registers");
    }

    #[test]
    fn already_shallow_graph_unchanged() {
        let g = chain_graph(1);
        let t = OpTiming {
            t_mul: 1.0,
            t_add: 1.0,
            t_shift: 0.0,
        };
        let (h, report) = insert_registers(&g, 10.0, &t).unwrap();
        assert_eq!(report.registers, 0);
        assert_eq!(h.len(), g.len());
    }
}
