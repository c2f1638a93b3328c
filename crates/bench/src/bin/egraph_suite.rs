//! Runs the equality-saturation strategy over the suite at 5.0 V and
//! prints one line per design: unfolding, voltage, saturation outcome,
//! exact optimized and script energies, and the gain over the fixed §5
//! script. 5.0 V is the e-graph suite's voltage in `lintra-benchmark`'s
//! `paper_suite`, and there most designs stop on the e-node budget
//! mid-sweep — the setting most sensitive to the engine's insertion
//! order. The suite fans out over one engine worker per core.

use lintra::engine::ThreadPool;
use lintra_bench::{egraph_rows_engine, render::render_egraph, SuiteCaches};

const V0: f64 = 5.0;

fn main() -> Result<(), lintra::LintraError> {
    let (rows, _) = egraph_rows_engine(V0, &ThreadPool::auto(), &SuiteCaches::new())?;
    print!("{}", render_egraph(&rows, V0));
    Ok(())
}
