//! Unified cost models over the DFG node language.
//!
//! Before this module the repository had three disconnected notions of
//! "cost": processor cycles (`linsys::OpCount::cycles`), datapath energy
//! (`power::EnergyModel::energy_per_sample`, the paper's `C·V²` model) and
//! the critical path (`Dfg::critical_path`). [`CostModel`] puts them behind
//! one trait so the optimizers, the e-graph extractor and the bench tables
//! all price a graph the same way.
//!
//! Two entry points matter for exactness:
//!
//! * [`CostModel::census_cost`] prices an operation *census* ([`OpCounts`])
//!   with one `count · weight` product per class, summed multiplies-first.
//!   This is bit-identical to the legacy arithmetic
//!   (`muls·w_mul + adds·w_add` for cycles, `count · C·V²` per class for
//!   energy), which the parity-freeze tests pin down.
//! * [`CostModel::node_cost`] prices a single node — the additive objective
//!   the e-graph extractor minimizes per e-class.
//!
//! Non-additive models (the critical path) override [`CostModel::graph_cost`]
//! and keep `node_cost` as the per-node delay, which the extractor uses as
//! an additive surrogate.

use crate::graph::{Dfg, NodeKind, OpCounts, OpTiming};

/// A pricing function over DFG nodes, censuses and whole graphs.
pub trait CostModel {
    /// Short stable identifier (used in diagnostics and bench rows).
    fn name(&self) -> &'static str;

    /// Cost contributed by a single node of the given kind.
    fn node_cost(&self, kind: &NodeKind) -> f64;

    /// Cost of an operation census. The default prices each class by its
    /// representative [`node_cost`](CostModel::node_cost) and sums
    /// multiplies-first — the exact association order of the legacy
    /// cycle/energy formulas, so additive models inherit bit-identical
    /// parity for free.
    fn census_cost(&self, counts: &OpCounts) -> f64 {
        counts.muls as f64 * self.node_cost(&NodeKind::MulConst(0.0))
            + counts.adds as f64 * self.node_cost(&NodeKind::Add)
            + counts.shifts as f64 * self.node_cost(&NodeKind::Shift(0))
            + counts.delays as f64 * self.node_cost(&NodeKind::Delay)
            + counts.negs as f64 * self.node_cost(&NodeKind::Neg)
    }

    /// Cost of a whole graph; defaults to the census cost.
    fn graph_cost(&self, g: &Dfg) -> f64 {
        self.census_cost(&g.op_counts())
    }
}

/// Unit cost per arithmetic operation (adds + multiplies + shifts) — the
/// op-count tables of §3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCountCost;

impl CostModel for OpCountCost {
    fn name(&self) -> &'static str {
        "op-count"
    }

    fn node_cost(&self, kind: &NodeKind) -> f64 {
        match kind {
            NodeKind::Add | NodeKind::Sub | NodeKind::MulConst(_) | NodeKind::Shift(_) => 1.0,
            _ => 0.0,
        }
    }
}

/// Processor cycles per sample: `muls·w_mul + adds·w_add`, the §3/§4
/// instruction-count model (`linsys::OpCount::cycles`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleCost {
    /// Cycles per constant multiplication.
    pub w_mul: f64,
    /// Cycles per addition/subtraction.
    pub w_add: f64,
}

impl CostModel for CycleCost {
    fn name(&self) -> &'static str {
        "cycles"
    }

    fn node_cost(&self, kind: &NodeKind) -> f64 {
        match kind {
            NodeKind::MulConst(_) => self.w_mul,
            NodeKind::Add | NodeKind::Sub => self.w_add,
            _ => 0.0,
        }
    }
}

/// Longest register-to-register combinational delay — the clock-period
/// model behind the voltage feasibility checks. Not additive over nodes:
/// [`graph_cost`](CostModel::graph_cost) is the true critical path, while
/// [`node_cost`](CostModel::node_cost) (the per-node delay) serves the
/// extractor as an additive surrogate that favours shallow operators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalPathCost {
    /// Per-operation delays.
    pub timing: OpTiming,
}

impl CostModel for CriticalPathCost {
    fn name(&self) -> &'static str {
        "critical-path"
    }

    fn node_cost(&self, kind: &NodeKind) -> f64 {
        self.timing.of(kind)
    }

    fn graph_cost(&self, g: &Dfg) -> f64 {
        g.critical_path(&self.timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;

    fn small_graph() -> Dfg {
        // y = (x * 0.5 + s) << 1, s' = y
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
        let m = g.push(NodeKind::MulConst(0.5), &[x]).unwrap();
        let a = g.push(NodeKind::Add, &[m, s]).unwrap();
        let sh = g.push(NodeKind::Shift(1), &[a]).unwrap();
        g.push(
            NodeKind::Output {
                sample: 0,
                channel: 0,
            },
            &[sh],
        )
        .unwrap();
        g.push(NodeKind::StateOut { index: 0 }, &[sh]).unwrap();
        g
    }

    #[test]
    fn op_count_prices_arithmetic_only() {
        let g = small_graph();
        let m = OpCountCost;
        assert_eq!(m.graph_cost(&g), 3.0); // 1 mul + 1 add + 1 shift
        assert_eq!(m.node_cost(&NodeKind::Delay), 0.0);
        assert_eq!(m.node_cost(&NodeKind::Neg), 0.0);
    }

    #[test]
    fn cycle_cost_matches_the_legacy_formula_exactly() {
        // Bit-identical to OpCount::cycles = muls·w_mul + adds·w_add for
        // weights that do not round trivially.
        let (w_mul, w_add) = (3.000000000000123, 1.0000000007);
        let m = CycleCost { w_mul, w_add };
        for (muls, adds) in [(0u64, 0u64), (1, 0), (17, 5), (12345, 999)] {
            let counts = OpCounts {
                adds,
                muls,
                shifts: 7,
                delays: 3,
                negs: 2,
            };
            let legacy = muls as f64 * w_mul + adds as f64 * w_add;
            assert_eq!(m.census_cost(&counts), legacy);
        }
    }

    #[test]
    fn critical_path_cost_is_the_true_critical_path() {
        let g = small_graph();
        let timing = OpTiming::default();
        let m = CriticalPathCost { timing };
        assert_eq!(m.graph_cost(&g), g.critical_path(&timing));
        // The additive surrogate over-approximates the path.
        let additive: f64 = (0..g.len())
            .map(|i| m.node_cost(&g.node(NodeId(i)).kind))
            .sum();
        assert!(additive >= m.graph_cost(&g));
    }

    #[test]
    fn census_default_sums_multiplies_first() {
        // The default census order is pinned: models relying on it for
        // parity (CycleCost, EnergyCost in lintra-power) must not drift.
        let m = CycleCost {
            w_mul: 2.0,
            w_add: 1.0,
        };
        let counts = OpCounts {
            adds: 3,
            muls: 2,
            shifts: 1,
            delays: 1,
            negs: 0,
        };
        assert_eq!(m.census_cost(&counts), 2.0 * 2.0 + 3.0 * 1.0);
    }
}
