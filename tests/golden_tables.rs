//! Golden-snapshot tests for the paper tables.
//!
//! `tests/golden/table{2,3,4}.txt` are the committed reference renderings
//! (generated by the `table{2,3,4}` binaries and identical to what the
//! CLI `tables` command prints). Each test regenerates its table through
//! the engine's `table{2,3,4}_rows_engine` — the only suite path — and
//! diffs the text exactly, so a change to the optimizers, the renderers,
//! or the engine's caching that moves any digit shows up as a failing
//! diff, not a silent drift. The `lintra-benchmark` harness checks the
//! same files on every `paper_suite` pass.
//!
//! To refresh after an intentional change (the bins run on one engine
//! worker per core; the output is the same at every worker count):
//!
//! ```text
//! cargo run --release -p lintra-bench --bin table2 > tests/golden/table2.txt
//! cargo run --release -p lintra-bench --bin table3 > tests/golden/table3.txt
//! cargo run --release -p lintra-bench --bin table4 > tests/golden/table4.txt
//! ```

use lintra::engine::ThreadPool;
use lintra_bench::render::{render_table2, render_table3, render_table4};
use lintra_bench::{table2_rows_engine, table3_rows_engine, table4_rows_engine, SuiteCaches};

/// Line-by-line diff with context, so a golden failure pinpoints the row.
fn assert_matches_golden(got: &str, golden: &str, name: &str) {
    if got == golden {
        return;
    }
    let mut report = format!("{name}: regenerated table differs from tests/golden/{name}.txt\n");
    for (k, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
        if g != w {
            report.push_str(&format!("line {}:\n  golden: {w}\n  got:    {g}\n", k + 1));
        }
    }
    let (got_n, want_n) = (got.lines().count(), golden.lines().count());
    if got_n != want_n {
        report.push_str(&format!(
            "line counts differ: golden {want_n}, got {got_n}\n"
        ));
    }
    panic!("{report}");
}

#[test]
fn table2_matches_golden_snapshot() {
    let (rows, _) = table2_rows_engine(3.3, &ThreadPool::new(4), &SuiteCaches::new()).unwrap();
    let got = render_table2(&rows, 3.3, false);
    assert_matches_golden(&got, include_str!("golden/table2.txt"), "table2");
}

#[test]
fn table3_matches_golden_snapshot() {
    let (rows, _) = table3_rows_engine(3.3, &ThreadPool::new(4), &SuiteCaches::new()).unwrap();
    let got = render_table3(&rows, 3.3);
    assert_matches_golden(&got, include_str!("golden/table3.txt"), "table3");
}

#[test]
fn table4_matches_golden_snapshot() {
    let (rows, _) = table4_rows_engine(3.3, &ThreadPool::new(4), &SuiteCaches::new()).unwrap();
    let got = render_table4(&rows, 3.3);
    assert_matches_golden(&got, include_str!("golden/table4.txt"), "table4");
}
