//! Text renderers for the paper tables.
//!
//! The `table{2,3,4}` binaries, the golden-snapshot tests, and the CLI
//! `tables` command all print through these functions, so "what the table
//! looks like" is defined exactly once — a formatting drift in a binary
//! can no longer diverge from the committed golden files.

use crate::{mean, median, EgraphRow, EgraphSynthRow, McmPlanRow, Table2Row, Table3Row, Table4Row};
use lintra::engine::crc32;
use lintra::opt::single::UnfoldingOutcome;
use std::fmt::Write as _;

/// Renders Table 2 (single-processor power reduction) exactly as the
/// `table2` binary prints it.
pub fn render_table2(rows: &[Table2Row], v0: f64, freq_only: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2: Power Reduction in a Single Processor (initial V = {v0})"
    );
    if freq_only {
        let _ = writeln!(
            out,
            "(frequency-reduction/shutdown only — no voltage scaling)"
        );
    }
    let _ = writeln!(
        out,
        "{:<9} {:>2} {:>2} {:>3} | {:>6} {:>3} {:>6} {:>6} {:>6} | {:>6} {:>3} {:>6} {:>6} {:>6}",
        "", "", "", "", "dense", "", "", "", "", "real", "", "", "", ""
    );
    let _ = writeln!(
        out,
        "{:<9} {:>2} {:>2} {:>3} | {:>6} {:>3} {:>6} {:>6} {:>6} | {:>6} {:>3} {:>6} {:>6} {:>6}",
        "Name", "P", "Q", "R", "Ops0", "i", "Ops", "Frq", "Pwr", "Ops0", "i", "Ops", "Frq", "Pwr"
    );
    let mut reductions = Vec::new();
    for row in rows {
        let (p, q, r) = row.dims;
        let d = &row.result.dense;
        let e = &row.result.real;
        let pick = |o: &UnfoldingOutcome| {
            if freq_only {
                o.power_reduction_frequency_only()
            } else {
                o.power_reduction()
            }
        };
        let _ = writeln!(
            out,
            "{:<9} {:>2} {:>2} {:>3} | {:>6} {:>3} {:>6} {:>6.3} {:>6.2} | {:>6} {:>3} {:>6} {:>6.3} {:>6.2}",
            row.name,
            p,
            q,
            r,
            d.ops_initial.total(),
            d.unfolding,
            d.ops_unfolded.total(),
            d.frequency_ratio(),
            pick(d),
            e.ops_initial.total(),
            e.unfolding,
            e.ops_unfolded.total(),
            e.frequency_ratio(),
            pick(e),
        );
        reductions.push(pick(e));
    }
    let _ = writeln!(
        out,
        "\naverage power reduction (real coefficients): x{:.2}",
        mean(&reductions)
    );
    out
}

/// Renders Table 3 (unfolding plus multiple processors) exactly as the
/// `table3` binary prints it.
pub fn render_table3(rows: &[Table3Row], v0: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3: Power Reduction with Unfolding and Multiple Processors (initial V = {v0})"
    );
    let _ = writeln!(
        out,
        "{:<9} | {:>9} {:>8} | {:>3} {:>10} {:>8} {:>8}",
        "", "single", "", "", "multi", "", ""
    );
    let _ = writeln!(
        out,
        "{:<9} | {:>9} {:>8} | {:>3} {:>10} {:>8} {:>8}",
        "Name", "Frq", "Pwr", "N", "Smax(N,i)", "V", "Pwr"
    );
    let mut single = Vec::new();
    let mut multi = Vec::new();
    for row in rows {
        let s = &row.single.real;
        let m = &row.multi;
        let _ = writeln!(
            out,
            "{:<9} | {:>9.3} {:>8.2} | {:>3} {:>10.2} {:>8.2} {:>8.2}",
            row.name,
            s.frequency_ratio(),
            s.power_reduction(),
            m.processors,
            m.speedup,
            m.scaling.voltage,
            m.power_reduction(),
        );
        single.push(s.power_reduction());
        multi.push(m.power_reduction());
    }
    let _ = writeln!(
        out,
        "\naverages: single x{:.2}, multiprocessor x{:.2}",
        mean(&single),
        mean(&multi)
    );
    out
}

/// Renders Table 4 (ASIC energy per sample) exactly as the `table4`
/// binary prints it.
pub fn render_table4(rows: &[Table4Row], v0: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4: Improvements in energy per sample (initial V = {v0}, floor 1.1 V)"
    );
    let _ = writeln!(
        out,
        "{:<9} {:>4} {:>8} | {:>16} {:>18} {:>12}",
        "Name", "n", "V", "Initial [nJ/smp]", "Optimized [nJ/smp]", "Improvement"
    );
    let mut factors = Vec::new();
    for row in rows {
        let r = &row.result;
        let _ = writeln!(
            out,
            "{:<9} {:>4} {:>8.2} | {:>16.2} {:>18.3} {:>12.1}",
            row.name,
            r.unfolding + 1,
            r.voltage,
            r.initial.total_nj(),
            r.optimized.total_nj(),
            r.improvement(),
        );
        factors.push(r.improvement());
    }
    let _ = writeln!(
        out,
        "\naverage improvement: x{:.1}   median: x{:.1}",
        mean(&factors),
        median(&factors)
    );
    out
}

/// Renders the e-graph suite as the `egraph_suite` binary prints it: one
/// line per design with its unfolding, operating voltage, saturation
/// outcome, the optimized and script energies per sample (printed with
/// `{:?}`, so they round-trip to the exact `f64`) and the gain over the
/// script. The golden snapshot of this text pins every saturation and
/// extraction bit for bit.
pub fn render_egraph(rows: &[EgraphRow], v0: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E-graph suite: equality saturation vs the fixed script (initial V = {v0})"
    );
    for row in rows {
        let r = &row.result;
        let _ = writeln!(
            out,
            "{:<9} i={} V={:?} | {} | optimized {:?} J, script {:?} J, vs script x{:.6}",
            row.name,
            r.unfolding,
            r.voltage,
            r.stats,
            r.optimized.total_j(),
            r.script.total_j(),
            r.vs_script(),
        );
    }
    out
}

/// Renders the synthetic e-graph designs as the `egraph_synth` binary
/// prints them: one line per design with its index, shape, unfolding,
/// operating voltage, saturation outcome and the exact optimized and
/// script energies per sample, in the format of [`render_egraph`]. The
/// header names the seed and voltage the rows were drawn at.
pub fn render_egraph_synth(rows: &[EgraphSynthRow], seed: u64, v0: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E-graph synthetic designs: the first synth_egraph pass of seed {seed} (initial V = {v0})"
    );
    for (k, row) in rows.iter().enumerate() {
        let r = &row.result;
        let (p, q, rr) = row.dims;
        let _ = writeln!(
            out,
            "{k:>2} P={p} Q={q} R={rr:<2} i={} V={:?} | {} | optimized {:?} J, script {:?} J, vs script x{:.6}",
            r.unfolding,
            r.voltage,
            r.stats,
            r.optimized.total_j(),
            r.script.total_j(),
            r.vs_script(),
        );
    }
    out
}

/// Renders the suite's MCM plans as the `mcm_plans` binary prints them:
/// one line per distinct constant group of each design, with the
/// unfolding, the group size, the plan's adds and shifts, and a CRC-32 of
/// the plan's `Display` text. The golden snapshot of this text pins every
/// plan the §5 script synthesizes, expression by expression.
pub fn render_mcm_plans(rows: &[McmPlanRow], v0: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "MCM plans of the §5 script (initial V = {v0:.1}, CSD, 12 fractional bits)"
    );
    for row in rows {
        let plan = &row.plan;
        let _ = writeln!(
            out,
            "{:<9} V={v0:.1} i={} n={} adds={} shifts={} crc32={:08x}",
            row.name,
            row.unfolding,
            row.constants,
            plan.adds(),
            plan.shifts(),
            crc32(plan.to_string().as_bytes()),
        );
    }
    out
}
