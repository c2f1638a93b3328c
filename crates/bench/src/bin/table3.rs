//! Regenerates Table 3: power reduction with unfolding plus multiple
//! processors (`N = R`, measured schedule speedups), side by side with the
//! single-processor columns of Table 2. The suite fans out over one engine
//! worker per core.

use lintra::engine::ThreadPool;
use lintra_bench::{render::render_table3, table3_rows_engine, SuiteCaches};

fn main() -> Result<(), lintra::LintraError> {
    let v0 = 3.3;
    let (rows, _) = table3_rows_engine(v0, &ThreadPool::auto(), &SuiteCaches::new())?;
    print!("{}", render_table3(&rows, v0));
    Ok(())
}
