//! Prints every distinct MCM plan of the §5 script over the suite, at
//! Table 4's 3.3 V and at the e-graph suite's 5.0 V: one line per
//! constant group with its size, adds, shifts and a CRC-32 of the plan.
//! The suite fans out over one engine worker per core.

use lintra::engine::ThreadPool;
use lintra_bench::{mcm_plan_rows_engine, render::render_mcm_plans, SuiteCaches};

fn main() -> Result<(), lintra::LintraError> {
    let pool = ThreadPool::auto();
    for v0 in [3.3, 5.0] {
        let (rows, _) = mcm_plan_rows_engine(v0, &pool, &SuiteCaches::new())?;
        print!("{}", render_mcm_plans(&rows, v0));
    }
    Ok(())
}
