//! Deep differential for MCM pairwise matching: `synthesize`, which
//! scores expression pairs by counting, against `synthesize_reference`,
//! which runs the original candidate loop, on every constant group the §5
//! script hands the MCM pass across the suite.
//!
//! The groups come from each design's Horner graph at the unfolding
//! `asic::optimize` picks at Table 4's 3.3 V and at the e-graph suite's
//! 5.0 V, where the largest reach 94–103 constants. Under both recodings
//! that is several seconds of reference-loop work, so the test is ignored
//! by default and run in release:
//!
//! ```sh
//! cargo test --release -p lintra --test mcm_differential -- --include-ignored
//! ```

use lintra::dfg::NodeKind;
use lintra::mcm::{quantize, synthesize, synthesize_reference, Recoding};
use lintra::opt::{asic, TechConfig};
use lintra::suite::suite;
use lintra::transform::horner::HornerForm;
use std::collections::{BTreeSet, HashMap};

/// Every distinct group of quantized `MulConst` constants (one group per
/// driven variable, sorted and deduplicated, as the MCM pass builds it)
/// in the suite's Horner graphs at both initial supplies.
fn suite_groups() -> BTreeSet<Vec<i64>> {
    let cfg = asic::AsicConfig::default();
    let mut groups = BTreeSet::new();
    for v0 in [3.3, 5.0] {
        for d in suite() {
            let script = asic::optimize(&d.system, &TechConfig::dac96(v0), &cfg).unwrap();
            let g = HornerForm::new(&d.system, script.unfolding)
                .unwrap()
                .to_dfg()
                .unwrap();
            let mut by_pred: HashMap<usize, Vec<i64>> = HashMap::new();
            for (_, n) in g.iter() {
                if let NodeKind::MulConst(c) = n.kind {
                    by_pred
                        .entry(n.preds[0].0)
                        .or_default()
                        .push(quantize(c, cfg.frac_bits));
                }
            }
            for mut consts in by_pred.into_values() {
                consts.sort_unstable();
                consts.dedup();
                groups.insert(consts);
            }
        }
    }
    groups
}

#[test]
#[ignore = "seconds of reference-loop work; run in release with --include-ignored"]
fn counting_matches_the_reference_on_every_suite_group() {
    let groups = suite_groups();
    let largest = groups.iter().map(Vec::len).max().unwrap_or(0);
    assert!(
        largest >= 100,
        "the 5.0 V groups are missing: largest {largest}"
    );
    for recoding in [Recoding::Csd, Recoding::Binary] {
        for consts in &groups {
            let plan = synthesize(consts, recoding);
            plan.verify().unwrap();
            assert_eq!(
                plan,
                synthesize_reference(consts, recoding),
                "{recoding:?} plan differs for {consts:?}"
            );
        }
    }
}
