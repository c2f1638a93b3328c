//! Differential test layer for the sweep engine.
//!
//! Every optimizer strategy has one body, driven by a `SweepCache`; the
//! only thing a cache changes is *where* the unfolded systems and Horner
//! forms come from. So the from-scratch oracle is checked exactly there:
//! the cached unfolding search, unfolded systems and Horner forms must
//! equal `linsys::count::best_unfolding`, `unfold` and `HornerForm::new`
//! on every suite design at both paper voltages. Above that layer the
//! suite drivers must be **bit-identical** at 1, 4 and 8 workers and on a
//! warm registry versus a cold one — `assert_eq!` on result structs whose
//! `PartialEq` compares every `f64` exactly, not within a tolerance.
//! Diagnostics are compared separately so a reordering introduced by the
//! deterministic merge fails loudly even if the numbers agree.

use std::fmt::Debug;

use lintra::engine::{CacheStats, SweepCache, ThreadPool};
use lintra::linsys::count::TrivialityRule;
use lintra::linsys::unfold;
use lintra::opt::multi::ProcessorSelection;
use lintra::opt::{asic, multi, Diagnostic, TechConfig};
use lintra::suite::suite;
use lintra::transform::horner::HornerForm;
use lintra_bench::{
    egraph_rows_engine, table2_rows_engine, table3_rows_engine, table4_rows_engine, SuiteCaches,
};

/// The paper's two initial supply voltages.
const VOLTAGES: [f64; 2] = [3.3, 5.0];

/// Worker counts exercised by every fan-out test: degenerate (1, the
/// "sequential" path), the acceptance configuration (4), and
/// oversubscribed (8 workers, 8 designs).
const JOBS: [usize; 3] = [1, 4, 8];

#[test]
fn best_unfolding_matches_the_from_scratch_oracle_for_every_design() {
    for v0 in VOLTAGES {
        let cycles = TechConfig::dac96(v0).cycle_cost();
        let (wm, wa) = (cycles.w_mul, cycles.w_add);
        for d in suite() {
            // One cache across both rules, as the suite drivers share it.
            let mut cache = SweepCache::new(&d.system);
            for rule in [TrivialityRule::ZeroOne, TrivialityRule::ZeroOnePow2] {
                let want = lintra::linsys::count::best_unfolding(&d.system, rule, wm, wa).unwrap();
                let got = lintra::engine::best_unfolding(&mut cache, rule, wm, wa).unwrap();
                assert_eq!(got, want, "{} {rule:?} at {v0} V", d.name);
            }
        }
    }
}

#[test]
fn horner_and_unfolded_forms_match_the_from_scratch_oracle_for_every_design() {
    let cfg = asic::AsicConfig::default();
    for v0 in VOLTAGES {
        let tech = TechConfig::dac96(v0);
        for d in suite() {
            let depth = asic::optimize(&d.system, &tech, &cfg).unwrap().unfolding;
            let mut cache = SweepCache::new(&d.system);
            for i in 0..=depth {
                let want = HornerForm::new(&d.system, i).unwrap();
                assert_eq!(cache.horner(i).unwrap(), want, "{} i={i} at {v0} V", d.name);
            }
            // The e-graph strategy seeds from the unfolded system at the
            // ASIC depth, served by the chain the Horner search built.
            let want = unfold(&d.system, depth).unwrap();
            assert_eq!(cache.unfolded(depth).unwrap(), want, "{} at {v0} V", d.name);
        }
    }
}

#[test]
fn multi_processor_pooled_matches_sequential_for_every_design() {
    for v0 in VOLTAGES {
        let tech = TechConfig::dac96(v0);
        for d in suite() {
            let (_, _, r) = d.dims();
            for selection in [
                ProcessorSelection::StatesCount,
                ProcessorSelection::SearchBest { max: r + 2 },
            ] {
                let one = multi::optimize(&d.system, &tech, selection).unwrap();
                for jobs in JOBS {
                    let pool = ThreadPool::new(jobs);
                    let par =
                        multi::optimize_with_pool(&d.system, &tech, selection, &pool).unwrap();
                    let what = format!("{} {selection:?} x{jobs} at {v0} V", d.name);
                    assert_eq!(one.diagnostics, par.diagnostics, "{what}: diagnostics");
                    assert_eq!(one, par, "{what}");
                }
            }
        }
    }
}

/// Runs one suite driver on a cold registry at every worker count, then a
/// second time on the 1-worker run's (now warm) registry, and requires
/// every run to equal the 1-worker cold run — diagnostics first, in
/// order, then the whole rows.
fn assert_identical_runs<T, F, D>(name: &str, run: F, diagnostics: D)
where
    T: PartialEq + Debug,
    F: Fn(&ThreadPool, &SuiteCaches) -> (Vec<T>, CacheStats),
    D: Fn(&T) -> Vec<Diagnostic>,
{
    let caches = SuiteCaches::new();
    let (cold, _) = run(&ThreadPool::new(1), &caches);
    let mut runs = Vec::new();
    for jobs in JOBS {
        let (rows, _) = run(&ThreadPool::new(jobs), &SuiteCaches::new());
        runs.push((format!("{name} with {jobs} worker(s)"), rows));
    }
    let (warm, stats) = run(&ThreadPool::new(4), &caches);
    assert!(stats.hits > 0, "{name}: a warm registry must serve hits");
    runs.push((format!("{name} on a warm registry"), warm));
    for (what, rows) in runs {
        let got: Vec<_> = rows.iter().map(&diagnostics).collect();
        let want: Vec<_> = cold.iter().map(&diagnostics).collect();
        assert_eq!(got, want, "{what}: diagnostics order");
        assert_eq!(rows, cold, "{what}");
    }
}

#[test]
fn table2_parallel_rows_are_bit_identical_at_every_worker_count() {
    assert_identical_runs(
        "table2",
        |pool, caches| table2_rows_engine(3.3, pool, caches).unwrap(),
        |row| row.result.diagnostics.clone(),
    );
}

#[test]
fn table3_parallel_rows_are_bit_identical_at_every_worker_count() {
    assert_identical_runs(
        "table3",
        |pool, caches| table3_rows_engine(3.3, pool, caches).unwrap(),
        |row| [&row.single.diagnostics[..], &row.multi.diagnostics[..]].concat(),
    );
}

#[test]
fn table4_parallel_rows_are_bit_identical_at_every_worker_count() {
    assert_identical_runs(
        "table4",
        |pool, caches| table4_rows_engine(3.3, pool, caches).unwrap(),
        |row| row.result.diagnostics.clone(),
    );
}

#[test]
fn egraph_rows_are_bit_identical_at_every_worker_count() {
    assert_identical_runs(
        "egraph",
        |pool, caches| egraph_rows_engine(3.3, pool, caches).unwrap(),
        |row| row.result.diagnostics.clone(),
    );
}

/// The three tables on one shared registry — as `lintra tables` and the
/// service's `tables` op run them — equal the tables each on a cold one.
#[test]
fn tables_on_one_shared_registry_match_cold_registries() {
    let pool = ThreadPool::new(4);
    let shared = SuiteCaches::new();
    let cold = SuiteCaches::new;
    let t2 = table2_rows_engine(3.3, &pool, &shared).unwrap().0;
    assert_eq!(t2, table2_rows_engine(3.3, &pool, &cold()).unwrap().0);
    let (t3, stats) = table3_rows_engine(3.3, &pool, &shared).unwrap();
    assert!(stats.hits > 0, "Table 3 reuses Table 2's searches");
    assert_eq!(t3, table3_rows_engine(3.3, &pool, &cold()).unwrap().0);
    let t4 = table4_rows_engine(3.3, &pool, &shared).unwrap().0;
    assert_eq!(t4, table4_rows_engine(3.3, &pool, &cold()).unwrap().0);
}

/// Repeated parallel runs are deterministic among themselves (scheduling
/// noise cannot leak into the report), not just equal to the 1-worker
/// baseline once.
#[test]
fn parallel_runs_are_reproducible_across_invocations() {
    let pool = ThreadPool::new(4);
    let run = || {
        table3_rows_engine(3.3, &pool, &SuiteCaches::new())
            .unwrap()
            .0
    };
    let first = run();
    for _ in 0..3 {
        assert_eq!(first, run());
    }
}
