//! Control-dataflow-graph (CDFG) intermediate representation.
//!
//! §1 of the paper defines linear systems in terms of their CDFG: all
//! operators are two-input additions, variable-plus-constant additions, or
//! constant multiplications. This crate provides that IR:
//!
//! * [`Dfg`] — an append-only DAG of [`NodeKind`] nodes (predecessors must
//!   precede their users, so the construction order *is* a topological
//!   order and cycles are impossible by construction; cross-iteration
//!   feedback is expressed through matching [`NodeKind::StateIn`] /
//!   [`NodeKind::StateOut`] pairs),
//! * [`build::from_state_space`] — the *maximally fast* form used
//!   throughout the paper: one constant multiplication per non-trivial
//!   coefficient followed by a balanced binary adder tree,
//! * critical-path analysis ([`Dfg::critical_path`],
//!   [`Dfg::feedback_critical_path`]) with per-operation timings,
//! * the unified [`cost::CostModel`] trait pricing nodes, censuses and
//!   graphs (op counts, processor cycles, critical path here; the `C·V²`
//!   energy model implements it from `lintra-power`),
//! * bit-true [`Dfg::simulate`] used to prove builders equivalent to the
//!   state-space semantics.
//!
//! # Examples
//!
//! ```
//! use lintra_dfg::{build, OpTiming};
//! use lintra_linsys::StateSpace;
//! use lintra_matrix::Matrix;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sys = StateSpace::new(
//!     Matrix::from_rows(&[&[0.5, 0.3], &[0.2, 0.4]]),
//!     Matrix::from_rows(&[&[1.0], &[0.7]]),
//!     Matrix::from_rows(&[&[0.6, 0.9]]),
//!     Matrix::from_rows(&[&[0.1]]),
//! )?;
//! let g = build::from_state_space(&sys)?;
//! // CP = t_mul + ceil(log2(1 + R)) * t_add with R = 2.
//! let t = OpTiming { t_mul: 2.0, t_add: 1.0, t_shift: 0.0 };
//! assert_eq!(g.feedback_critical_path(&t), 2.0 + 2.0);
//! # Ok(())
//! # }
//! ```

pub mod build;
pub mod cost;
mod graph;

pub use cost::{CostModel, CriticalPathCost, CycleCost, OpCountCost};
pub use graph::{Dfg, DfgError, NodeId, NodeKind, OpCounts, OpTiming};
