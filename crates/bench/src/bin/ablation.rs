//! Prints the ablations of the design choices behind the §5 flow, on
//! `iir6` at batch depth `n = 7`:
//!
//! (a) MCM pairwise matching vs naive per-constant CSD decomposition,
//! (b) Horner restructuring on vs off at a fixed unfolding depth,
//! (c) balanced-tree vs chain association (critical-path effect),
//! (d) triviality class {0, ±1} vs {0, ±1, ±2^k}.

use lintra::dfg::{build, OpTiming};
use lintra::linsys::count::{op_count, TrivialityRule};
use lintra::linsys::unfold;
use lintra::mcm::{naive_cost, synthesize, Recoding};
use lintra::suite::by_name;
use lintra::transform::horner::HornerForm;
use lintra::{ErrorClass, LintraError};

fn main() -> Result<(), LintraError> {
    let d = by_name("iir6")
        .ok_or_else(|| LintraError::new(ErrorClass::Validation, "VAL-CONFIG", "no design iir6"))?;
    let n = 7u32;

    // (a) MCM vs naive CSD on the Horner state constants.
    let hf = HornerForm::new(&d.system, n)?;
    let mut naive_total = 0usize;
    let mut shared_total = 0usize;
    for j in 0..d.system.num_states() {
        let q: Vec<i64> = hf
            .state_column_constants(j)
            .iter()
            .map(|&c| lintra::mcm::quantize(c, 12))
            .collect();
        if q.is_empty() {
            continue;
        }
        naive_total += naive_cost(&q, Recoding::Csd).adds;
        shared_total += synthesize(&q, Recoding::Csd).adds();
    }
    println!("=== Ablations (iir6, n = {n}) ===");
    println!("(a) state-constant adds: naive CSD {naive_total}, pairwise-matched {shared_total}");

    // (b) Horner vs direct unfolding at the same depth.
    let direct = build::from_unfolded(&unfold(&d.system, n)?)?.op_counts();
    let horner = hf.to_dfg()?.op_counts();
    println!(
        "(b) ops per batch: direct unfold {} mul {} add; Horner {} mul {} add",
        direct.muls, direct.adds, horner.muls, horner.adds
    );

    // (c) balanced tree vs chain: critical path of the base design. A
    // chain association pays one sequential add per term on the widest
    // row; the widest row of [A|B] or [C|D] has up to R + P terms.
    let t = OpTiming {
        t_mul: 2.0,
        t_add: 1.0,
        t_shift: 0.0,
    };
    let g = build::from_state_space(&d.system)?;
    let balanced_cp = g.critical_path(&t);
    let widest = (d.system.num_states() + d.system.num_inputs()) as f64;
    let chain_cp = t.t_mul + (widest - 1.0) * t.t_add;
    println!("(c) critical path: balanced tree {balanced_cp}, chain upper bound {chain_cp}");

    // (d) triviality rules.
    let plain = op_count(&d.system, TrivialityRule::ZeroOne);
    let pow2 = op_count(&d.system, TrivialityRule::ZeroOnePow2);
    println!(
        "(d) triviality {{0,±1}}: {} muls; {{0,±1,±2^k}}: {} muls + {} shifts",
        plain.muls, pow2.muls, pow2.shifts
    );
    Ok(())
}
