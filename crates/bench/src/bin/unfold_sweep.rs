//! Regenerates the §2 phenomenon behind EQ 4/5: per-sample operation
//! counts first fall with unfolding, bottom out at `i_opt`, then rise.
//! Prints one CSV block per design plus a dense reference. The designs
//! fan out over one engine worker per core, each unfolding incrementally
//! through its own `SweepCache`.

use lintra::engine::{SweepCache, ThreadPool};
use lintra::linsys::count::{dense_iopt, dense_ops_per_sample};
use lintra::suite::suite;
use lintra::LintraError;
use lintra_bench::unfold_sweep_cached;

fn main() -> Result<(), lintra::LintraError> {
    let designs = suite();
    let items: Vec<_> = designs
        .iter()
        .map(|d| {
            let (p, q, r) = d.dims();
            let iopt = dense_iopt(p as u64, q as u64, r as u64, 1.0, 1.0);
            (d.clone(), (3 * iopt + 4).min(40) as u32)
        })
        .collect();
    let sweeps = ThreadPool::auto()
        .map(items, |(d, max_i)| {
            unfold_sweep_cached(max_i, &mut SweepCache::new(&d.system))
        })
        .into_iter()
        .map(|r| r.map_err(LintraError::from)?)
        .collect::<Result<Vec<_>, LintraError>>()?;

    println!("# Per-sample operation counts vs unfolding factor (EQ 4/5)");
    for (d, rows) in designs.iter().zip(&sweeps) {
        let (p, q, r) = d.dims();
        let iopt = dense_iopt(p as u64, q as u64, r as u64, 1.0, 1.0);
        println!("\n## {} (P={p} Q={q} R={r}; dense i_opt = {iopt})", d.name);
        println!("i,muls_per_sample,adds_per_sample,total,dense_total");
        for &(i, m, a) in rows {
            let dense = dense_ops_per_sample(p as u64, q as u64, r as u64, i as u64);
            println!("{i},{m:.2},{a:.2},{:.2},{:.2}", m + a, dense.total());
        }
    }
    Ok(())
}
