//! Deep differential for MCM pairwise matching: `synthesize`, which
//! scores most expression pairs by counting aligned terms into
//! `(shift, flip)` buckets, against `synthesize_reference`, which runs the
//! original candidate loop (one greedy match per candidate transform), on
//! every constant group the §5 script hands the MCM pass across the
//! suite.
//!
//! This checks the scorer. Both functions share the pair memo that picks
//! each extraction, so a memo bug would show in neither; the memo is held
//! to a full O(E²) rescan at every extraction by the unit tests
//! `memoized_matching_equals_full_rescan*` in `crates/mcm`, and
//! `tests/golden/mcm_plans.txt` pins the plans themselves.
//!
//! The groups come from each design's Horner graph at the unfolding
//! `asic::optimize` picks at Table 4's 3.3 V and at the e-graph suite's
//! 5.0 V, where the largest reach 94–103 constants. Under both recodings
//! that is seconds of reference-loop work, so the test is ignored by
//! default and run in release:
//!
//! ```sh
//! cargo test --release -p lintra --test mcm_differential -- --include-ignored
//! ```

use lintra::mcm::{synthesize, synthesize_reference, Recoding};
use lintra::opt::{asic, TechConfig};
use lintra::suite::suite;
use lintra::transform::horner::HornerForm;
use lintra::transform::mcm_pass::constant_groups;
use std::collections::BTreeSet;

/// Every distinct group of quantized `MulConst` constants (one group per
/// driven variable, as the MCM pass builds it) in the suite's Horner
/// graphs at both initial supplies.
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
            groups.extend(constant_groups(&g, cfg.frac_bits).into_values());
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
