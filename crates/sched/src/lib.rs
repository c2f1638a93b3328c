//! Resource-constrained scheduling of linear-computation dataflow graphs.
//!
//! §4 of the paper trades extra processors for voltage: the key quantity is
//! `S_max(N, i)`, the throughput improvement of `N` processors running the
//! `i`-times unfolded computation relative to one processor running the
//! original. Rather than trusting the paper's "intricate algebraic
//! manipulation", this crate *measures* it: the unfolded CDFG is list
//! scheduled onto `N` homogeneous processors (unit-cycle ops, zero
//! communication cost — the paper's §4 simplifying assumptions are
//! explicit parameters here) and the schedule lengths are compared.
//!
//! * [`ProcessorModel`] — per-instruction cycle costs of the programmable
//!   processor,
//! * [`list_schedule`] — critical-path-priority list scheduling,
//! * [`Schedule`] — validated result with makespan and a correctness
//!   checker,
//! * [`speedup_curve`] — `S(N)` for a graph over a processor range.
//!
//! # Examples
//!
//! ```
//! use lintra_dfg::{build, OpTiming};
//! use lintra_linsys::{unfold, StateSpace};
//! use lintra_matrix::Matrix;
//! use lintra_sched::{list_schedule, ProcessorModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sys = StateSpace::new(
//!     Matrix::from_rows(&[&[0.5, 0.25], &[0.3, 0.4]]),
//!     Matrix::from_rows(&[&[0.7], &[0.2]]),
//!     Matrix::from_rows(&[&[0.9, 0.8]]),
//!     Matrix::from_rows(&[&[0.6]]),
//! )?;
//! let g = build::from_unfolded(&unfold(&sys, 3)?)?;
//! let m = ProcessorModel::unit();
//! let s1 = list_schedule(&g, 1, &m)?;
//! let s2 = list_schedule(&g, 2, &m)?;
//! assert!(s2.length <= s1.length);
//! s2.validate(&g, &m).unwrap();
//! # Ok(())
//! # }
//! ```

pub mod latency;

use lintra_dfg::{Dfg, NodeId, NodeKind};
use std::fmt;

/// Per-instruction cycle costs of a programmable processor.
///
/// The paper's §4 assumption (iv) is `mul = add = 1` cycle
/// ([`ProcessorModel::unit`]); §3 allows them to differ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessorModel {
    /// Cycles per constant multiplication.
    pub cycles_mul: u64,
    /// Cycles per addition/subtraction.
    pub cycles_add: u64,
    /// Cycles per shift instruction.
    pub cycles_shift: u64,
}

impl ProcessorModel {
    /// Every instruction takes one cycle (§4 assumption iv).
    pub fn unit() -> ProcessorModel {
        ProcessorModel {
            cycles_mul: 1,
            cycles_add: 1,
            cycles_shift: 1,
        }
    }

    /// A DSP-flavoured model: two-cycle multiplies.
    pub fn dsp() -> ProcessorModel {
        ProcessorModel {
            cycles_mul: 2,
            cycles_add: 1,
            cycles_shift: 1,
        }
    }

    /// Latency of a node; `0` for non-operations.
    pub fn latency(&self, kind: &NodeKind) -> u64 {
        match kind {
            NodeKind::Add | NodeKind::Sub => self.cycles_add,
            NodeKind::MulConst(_) => self.cycles_mul,
            NodeKind::Shift(_) => self.cycles_shift,
            _ => 0,
        }
    }

    /// Total work (cycles) of a graph = single-processor schedule length.
    pub fn total_work(&self, g: &Dfg) -> u64 {
        g.iter().map(|(_, n)| self.latency(&n.kind)).sum()
    }
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// The scheduled node.
    pub node: NodeId,
    /// Start cycle.
    pub start: u64,
    /// Processor index.
    pub processor: usize,
}

/// A complete schedule produced by [`list_schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Makespan in cycles.
    pub length: u64,
    /// Number of processors used.
    pub processors: usize,
    /// Placement of every operation node.
    pub slots: Vec<Slot>,
}

/// Error from [`list_schedule`] and [`speedup_curve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// Scheduling was requested onto zero processors (resource
    /// starvation): no operation could ever be placed.
    NoProcessors,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NoProcessors => {
                write!(f, "scheduling requires at least one processor")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Error from [`Schedule::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateScheduleError {
    /// Two operations overlap on one processor.
    ResourceConflict {
        /// The processor with the conflict.
        processor: usize,
        /// The two conflicting nodes.
        nodes: (usize, usize),
    },
    /// An operation starts before a predecessor finishes.
    DependencyViolation {
        /// The too-early node.
        node: usize,
        /// The unfinished predecessor.
        pred: usize,
    },
    /// An operation node was never scheduled.
    Unscheduled {
        /// The missing node.
        node: usize,
    },
}

impl fmt::Display for ValidateScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateScheduleError::ResourceConflict { processor, nodes } => {
                write!(
                    f,
                    "nodes {} and {} overlap on processor {processor}",
                    nodes.0, nodes.1
                )
            }
            ValidateScheduleError::DependencyViolation { node, pred } => {
                write!(f, "node {node} starts before predecessor {pred} finishes")
            }
            ValidateScheduleError::Unscheduled { node } => {
                write!(f, "operation node {node} missing from schedule")
            }
        }
    }
}

impl std::error::Error for ValidateScheduleError {}

impl Schedule {
    /// Checks resource and dependency feasibility against the graph.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self, g: &Dfg, model: &ProcessorModel) -> Result<(), ValidateScheduleError> {
        // Completion time of every node (non-ops complete with their preds).
        let mut finish = vec![0u64; g.len()];
        let mut start_of = vec![None::<u64>; g.len()];
        for s in &self.slots {
            start_of[s.node.0] = Some(s.start);
        }
        for (id, n) in g.iter() {
            let ready = n.preds.iter().map(|p| finish[p.0]).max().unwrap_or(0);
            if n.kind.is_operation() {
                let start =
                    start_of[id.0].ok_or(ValidateScheduleError::Unscheduled { node: id.0 })?;
                if start < ready {
                    // `ready` is the max predecessor finish, so a late
                    // predecessor must exist; fall back to the node itself
                    // rather than asserting the invariant.
                    let pred = n
                        .preds
                        .iter()
                        .find(|p| finish[p.0] > start)
                        .map(|p| p.0)
                        .unwrap_or(id.0);
                    return Err(ValidateScheduleError::DependencyViolation { node: id.0, pred });
                }
                finish[id.0] = start + model.latency(&n.kind);
            } else {
                finish[id.0] = ready;
            }
        }
        // Resource conflicts.
        let mut by_proc: Vec<Vec<&Slot>> = vec![Vec::new(); self.processors];
        for s in &self.slots {
            by_proc[s.processor].push(s);
        }
        for (p, slots) in by_proc.iter().enumerate() {
            let mut sorted = slots.clone();
            sorted.sort_by_key(|s| s.start);
            for w in sorted.windows(2) {
                let end = w[0].start + model.latency(&g.node(w[0].node).kind);
                if w[1].start < end {
                    return Err(ValidateScheduleError::ResourceConflict {
                        processor: p,
                        nodes: (w[0].node.0, w[1].node.0),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Critical-path-priority list scheduling of `g` onto `n_processors`
/// homogeneous processors (zero communication cost).
///
/// # Errors
///
/// Returns [`ScheduleError::NoProcessors`] when `n_processors == 0`.
pub fn list_schedule(
    g: &Dfg,
    n_processors: usize,
    model: &ProcessorModel,
) -> Result<Schedule, ScheduleError> {
    if n_processors == 0 {
        return Err(ScheduleError::NoProcessors);
    }

    // Priority: longest remaining path (including own latency).
    let mut priority = vec![0u64; g.len()];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); g.len()];
    for (id, n) in g.iter() {
        for p in &n.preds {
            succs[p.0].push(id.0);
        }
    }
    for i in (0..g.len()).rev() {
        let own = model.latency(&g.node(NodeId(i)).kind);
        let down = succs[i].iter().map(|&s| priority[s]).max().unwrap_or(0);
        priority[i] = own + down;
    }

    // Dependency bookkeeping: ops become ready when all preds are finished.
    let mut unfinished_preds = vec![0usize; g.len()];
    for (id, n) in g.iter() {
        // Count only predecessors that take time or are themselves waiting:
        // conservatively count all; non-ops finish when their preds do.
        unfinished_preds[id.0] = n.preds.len();
    }

    let mut finish_time = vec![0u64; g.len()];
    let mut finished = vec![false; g.len()];
    let mut ready: Vec<usize> = Vec::new();
    let mut slots = Vec::new();

    // Seed with sources; propagate through non-op nodes immediately.
    let mut resolve_queue: Vec<usize> =
        (0..g.len()).filter(|&i| unfinished_preds[i] == 0).collect();
    let mut proc_free = vec![0u64; n_processors];
    let mut pending: Vec<(u64, usize)> = Vec::new(); // (finish, node)

    // Helper: mark node finished at time t, release successors.
    fn finish_node(
        i: usize,
        t: u64,
        succs: &[Vec<usize>],
        unfinished_preds: &mut [usize],
        finish_time: &mut [u64],
        finished: &mut [bool],
        resolve_queue: &mut Vec<usize>,
    ) {
        finished[i] = true;
        finish_time[i] = t;
        for &s in &succs[i] {
            unfinished_preds[s] -= 1;
            if unfinished_preds[s] == 0 {
                resolve_queue.push(s);
            }
        }
    }

    let mut now = 0u64;
    loop {
        // Resolve all zero-latency nodes whose preds are done.
        while let Some(i) = resolve_queue.pop() {
            let n = g.node(NodeId(i));
            let ready_at = n.preds.iter().map(|p| finish_time[p.0]).max().unwrap_or(0);
            if n.kind.is_operation() {
                ready.push(i);
                // Stash readiness time in finish_time until scheduled.
                finish_time[i] = ready_at;
            } else {
                finish_node(
                    i,
                    ready_at,
                    &succs,
                    &mut unfinished_preds,
                    &mut finish_time,
                    &mut finished,
                    &mut resolve_queue,
                );
            }
        }

        if ready.is_empty() && pending.is_empty() {
            break;
        }

        // Schedule ready ops (whose data is available by `now`) onto free
        // processors, highest priority first.
        ready.sort_by_key(|&i| std::cmp::Reverse(priority[i]));
        let mut still_ready = Vec::new();
        for &i in ready.iter() {
            let data_ready = finish_time[i] <= now;
            let proc = (0..n_processors).find(|&p| proc_free[p] <= now);
            match (data_ready, proc) {
                (true, Some(p)) => {
                    let lat = model.latency(&g.node(NodeId(i)).kind);
                    slots.push(Slot {
                        node: NodeId(i),
                        start: now,
                        processor: p,
                    });
                    proc_free[p] = now + lat;
                    pending.push((now + lat, i));
                }
                _ => still_ready.push(i),
            }
        }
        ready = still_ready;

        // Advance time to the next completion (or next cycle if nothing is
        // in flight but data isn't ready yet — cannot happen with integer
        // readiness times, but guard anyway).
        if let Some(&(t, _)) = pending.iter().min_by_key(|&&(t, _)| t) {
            now = now.max(t);
            let (done, rest): (Vec<_>, Vec<_>) = pending.into_iter().partition(|&(t, _)| t <= now);
            pending = rest;
            for (t, i) in done {
                finish_node(
                    i,
                    t,
                    &succs,
                    &mut unfinished_preds,
                    &mut finish_time,
                    &mut finished,
                    &mut resolve_queue,
                );
            }
        } else if !ready.is_empty() {
            now += 1;
        }
    }

    let length = slots
        .iter()
        .map(|s| s.start + model.latency(&g.node(s.node).kind))
        .max()
        .unwrap_or(0);
    Ok(Schedule {
        length,
        processors: n_processors,
        slots,
    })
}

/// Schedule lengths and speedups for `1..=max_processors`.
///
/// Returns `(lengths, speedups)` where `speedups[n-1] =
/// lengths[0] / lengths[n-1]`.
///
/// # Errors
///
/// Propagates [`ScheduleError`] from the underlying schedules.
pub fn speedup_curve(
    g: &Dfg,
    max_processors: usize,
    model: &ProcessorModel,
) -> Result<(Vec<u64>, Vec<f64>), ScheduleError> {
    let mut lengths: Vec<u64> = Vec::with_capacity(max_processors);
    for n in 1..=max_processors {
        lengths.push(list_schedule(g, n, model)?.length);
    }
    let speedups = lengths
        .iter()
        .map(|&l| lengths[0] as f64 / l as f64)
        .collect();
    Ok((lengths, speedups))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintra_dfg::build;
    use lintra_linsys::{unfold, StateSpace};
    use lintra_matrix::Matrix;

    fn dense(p: usize, q: usize, r: usize) -> StateSpace {
        let f = |i: usize, j: usize| 0.21 + 0.011 * i as f64 + 0.0077 * j as f64;
        StateSpace::new(
            Matrix::from_fn(r, r, f).scale(0.25),
            Matrix::from_fn(r, p, f),
            Matrix::from_fn(q, r, f),
            Matrix::from_fn(q, p, f),
        )
        .unwrap()
    }

    #[test]
    fn single_processor_length_equals_total_work() {
        let g = build::from_state_space(&dense(1, 1, 4)).unwrap();
        let m = ProcessorModel::unit();
        let s = list_schedule(&g, 1, &m).unwrap();
        assert_eq!(s.length, m.total_work(&g));
        s.validate(&g, &m).unwrap();
    }

    #[test]
    fn more_processors_never_hurt() {
        let g = build::from_unfolded(&unfold(&dense(1, 1, 5), 4).unwrap()).unwrap();
        let m = ProcessorModel::unit();
        let (lengths, speedups) = speedup_curve(&g, 8, &m).unwrap();
        for w in lengths.windows(2) {
            assert!(w[1] <= w[0], "lengths {lengths:?}");
        }
        assert!(speedups[7] >= speedups[0]);
    }

    #[test]
    fn schedules_are_valid_for_all_processor_counts() {
        let g = build::from_unfolded(&unfold(&dense(2, 1, 3), 3).unwrap()).unwrap();
        for m in [ProcessorModel::unit(), ProcessorModel::dsp()] {
            for n in 1..=6 {
                let s = list_schedule(&g, n, &m).unwrap();
                s.validate(&g, &m).unwrap_or_else(|e| panic!("n={n}: {e}"));
            }
        }
    }

    #[test]
    fn length_bounded_below_by_work_and_critical_path() {
        let g = build::from_unfolded(&unfold(&dense(1, 1, 4), 5).unwrap()).unwrap();
        let m = ProcessorModel::unit();
        let work = m.total_work(&g);
        for n in 1..=6u64 {
            let s = list_schedule(&g, n as usize, &m).unwrap();
            assert!(s.length >= work.div_ceil(n), "work bound violated at n={n}");
        }
    }

    #[test]
    fn linear_speedup_up_to_r_processors() {
        // The paper's §4 claim: S(N, i_opt) is (at least nearly) linear for
        // N <= R on unfolded dense computations.
        let r = 4;
        let sys = dense(1, 1, r);
        let g = build::from_unfolded(&unfold(&sys, 5).unwrap()).unwrap();
        let m = ProcessorModel::unit();
        let (_, speedups) = speedup_curve(&g, r, &m).unwrap();
        for (idx, &s) in speedups.iter().enumerate() {
            let n = (idx + 1) as f64;
            assert!(
                s >= 0.9 * n,
                "speedup at N={n} is {s}, expected near-linear ({speedups:?})"
            );
        }
    }

    #[test]
    fn unbounded_processors_hit_critical_path() {
        let sys = dense(1, 1, 3);
        let g = build::from_state_space(&sys).unwrap();
        let m = ProcessorModel::unit();
        let s = list_schedule(&g, 64, &m).unwrap();
        // With unlimited resources the makespan is the graph depth in
        // cycles: mul (1) + tree adds.
        let t = lintra_dfg::OpTiming {
            t_mul: 1.0,
            t_add: 1.0,
            t_shift: 1.0,
        };
        assert_eq!(s.length as f64, g.critical_path(&t));
    }

    #[test]
    fn dsp_model_weights_multiplies() {
        let g = build::from_state_space(&dense(1, 1, 2)).unwrap();
        let unit = list_schedule(&g, 1, &ProcessorModel::unit())
            .unwrap()
            .length;
        let dsp = list_schedule(&g, 1, &ProcessorModel::dsp()).unwrap().length;
        let muls = g.op_counts().muls;
        assert_eq!(dsp, unit + muls);
    }

    #[test]
    fn zero_processors_is_a_typed_error() {
        let g = build::from_state_space(&dense(1, 1, 2)).unwrap();
        let m = ProcessorModel::unit();
        assert_eq!(
            list_schedule(&g, 0, &m).unwrap_err(),
            ScheduleError::NoProcessors
        );
        assert!(speedup_curve(&g, 0, &m).unwrap().0.is_empty());
    }

    #[test]
    fn validator_catches_conflicts() {
        let g = build::from_state_space(&dense(1, 1, 2)).unwrap();
        let m = ProcessorModel::unit();
        let mut s = list_schedule(&g, 2, &m).unwrap();
        // Force two ops onto processor 0 at the same start.
        if s.slots.len() >= 2 {
            let start = s.slots[0].start;
            s.slots[1].start = start;
            s.slots[1].processor = s.slots[0].processor;
            assert!(s.validate(&g, &m).is_err());
        }
    }
}
