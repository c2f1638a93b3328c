//! Equality-saturation search over the `lintra-dfg` node language.
//!
//! The §5 ASIC flow applies one fixed transformation script (unfold →
//! generalized Horner → MCM). This crate replaces the *choice* of
//! realization with a search: an e-graph holds every discovered
//! realization of the same computation at once, rewrite rules grow it to
//! a bounded fixpoint, and a cost model picks the cheapest representative
//! ([Coward et al.]'s datapath-rewriting recipe over this repository's IR).
//!
//! * [`EGraph`] — hashconsed e-nodes ([`ENode`], the DFG node language
//!   with e-class children and bit-stable constants), a union-find over
//!   e-classes, and the congruence-closure [`EGraph::rebuild`].
//! * [`Rule`] / [`RuleSet`] — the rewrite library in two tiers.
//!   [`RuleSet::exact`] rules preserve every `f64` bit (commutativity,
//!   `a−b ↔ a+(−b)`, `−(−x) → x`, `±1`-multiplier folding, power-of-two
//!   multiplier ↔ shift, shift fusion, `x+0 → x`); the quantizing
//!   [`RuleSet::asic`] tier adds the CSD shift-add decomposition that
//!   reuses `lintra-mcm`'s recoding and carries the same
//!   `round(c·2^w)/2^w` semantics as the §5 MCM pass,
//!   [`Rule::McmShare`], which replays the §5 shared-MCM synthesis over
//!   base-class multiplier groups so cross-constant sharing is in the
//!   searched space, and [`Rule::CollectLinear`], which collapses every
//!   shift-add network over a single base onto its canonical multiplier
//!   hub (coefficients tracked in exact dyadic-rational arithmetic) so
//!   independently grown chains (per-constant CSD, cross-constant shared
//!   MCM under any grouping) become provably equal. Whole-graph Horner
//!   restructuring still enters through [`EGraph::add_dfg`] +
//!   [`EGraph::union_roots`].
//! * [`SaturationBudget`] — node/iteration bounds. Saturation never
//!   panics and never hangs: hitting a budget stops the search and leaves
//!   a valid e-graph behind ([`SaturationStats::stop`] says why), so
//!   extraction always returns the best representation found so far.
//! * [`extract`](EGraph::extract) — minimum-cost extraction under any
//!   [`lintra_dfg::CostModel`]; [`EGraph::extract_seeded`] samples
//!   alternative representatives deterministically for the property
//!   harness.
//!
//! # Example
//!
//! ```
//! use lintra_dfg::{Dfg, NodeKind, OpCountCost};
//! use lintra_egraph::{EGraph, RuleSet, SaturationBudget};
//!
//! # fn main() -> Result<(), lintra_egraph::EgraphError> {
//! // y = (x * 1.0) - x  — saturation discovers y = x + (−x) and folds
//! // the unit multiplier away.
//! let mut g = Dfg::new();
//! let x = g.push(NodeKind::Input { sample: 0, channel: 0 }, &[])?;
//! let m = g.push(NodeKind::MulConst(1.0), &[x])?;
//! let s = g.push(NodeKind::Sub, &[m, x])?;
//! g.push(NodeKind::Output { sample: 0, channel: 0 }, &[s])?;
//!
//! let (mut eg, roots) = EGraph::from_dfg(&g)?;
//! let stats = eg.saturate(&RuleSet::exact(), &SaturationBudget::default());
//! assert!(stats.saturated());
//! let best = eg.extract(&roots, &OpCountCost)?;
//! assert!(best.cost < 2.0); // the unit multiplier is gone
//! # Ok(())
//! # }
//! ```

mod fx;
mod graph;
mod rules;

pub use graph::{EGraph, ENode, EgraphError, Extraction, GraphRoots, Id};
pub use rules::{Rule, RuleSet};

use std::fmt;

/// Bounds on the saturation search. Budgets are a diagnostic surface, not
/// an error surface: exhausting one stops the search gracefully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaturationBudget {
    /// Cap on e-nodes ever created (hashconsing counts each shape once).
    /// Saturation checks it before each rule application and before each
    /// round of whole-graph rules, so the count can end above the cap: by
    /// what the seeded graphs already hold, and by what one application or
    /// one whole-graph round adds. Under the suite's 50 000 cap at 5.0 V,
    /// steam's seed alone is 69 880 e-nodes, and chemical's first sweep
    /// takes it from 21 929 to 80 760 (`tests/golden/egraph.txt`).
    pub max_enodes: usize,
    /// Cap on rule-application sweeps over the e-graph.
    pub max_iterations: usize,
}

impl Default for SaturationBudget {
    fn default() -> Self {
        SaturationBudget {
            max_enodes: 100_000,
            max_iterations: 8,
        }
    }
}

/// Why saturation stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A full sweep applied no new rewrite — the e-graph is saturated.
    Saturated,
    /// The iteration budget ran out before a fixpoint.
    IterationBudget,
    /// The e-node budget ran out mid-sweep.
    NodeBudget,
}

/// Outcome of one [`EGraph::saturate`] run.
///
/// The `*_s` fields break the wall-clock down by engine phase: `match_s`
/// is candidate-list assembly (worklist + kind index), `apply_s` is rule
/// application including the whole-graph sweeps, `rebuild_s` is
/// congruence restoration. They are observability, not results —
/// equality deliberately ignores them so differential tests can compare
/// two runs' *outcomes* without the clock getting a vote.
#[derive(Debug, Clone, Copy)]
pub struct SaturationStats {
    /// Sweeps performed (including the final no-change sweep).
    pub iterations: usize,
    /// E-nodes ever created.
    pub enodes: usize,
    /// Live e-classes after the final rebuild.
    pub classes: usize,
    /// Why the loop ended.
    pub stop: StopReason,
    /// Seconds spent assembling candidate lists (match phase).
    pub match_s: f64,
    /// Seconds spent applying rules, including whole-graph sweeps.
    pub apply_s: f64,
    /// Seconds spent restoring congruence after unions.
    pub rebuild_s: f64,
}

impl SaturationStats {
    /// `true` when the rule set reached its fixpoint within budget.
    pub fn saturated(&self) -> bool {
        self.stop == StopReason::Saturated
    }
}

impl PartialEq for SaturationStats {
    fn eq(&self, other: &Self) -> bool {
        // Timings excluded: two runs with identical outcomes are equal.
        self.iterations == other.iterations
            && self.enodes == other.enodes
            && self.classes == other.classes
            && self.stop == other.stop
    }
}

impl Eq for SaturationStats {}

impl fmt::Display for SaturationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stop = match self.stop {
            StopReason::Saturated => "saturated",
            StopReason::IterationBudget => "iteration budget exhausted",
            StopReason::NodeBudget => "e-node budget exhausted",
        };
        // Timings are deliberately absent: Display feeds deterministic
        // surfaces (diagnostics, logs compared across runs). The phase
        // breakdown travels through the fields and the bench report.
        write!(
            f,
            "{} iterations, {} e-nodes, {} e-classes ({stop})",
            self.iterations, self.enodes, self.classes
        )
    }
}
