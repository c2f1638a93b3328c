//! Regenerates Table 2: power reduction in a single processor using the
//! unfolding-driven voltage–throughput trade-off.
//!
//! Columns mirror the paper: the dense-coefficient analytical prediction
//! and the real-coefficient heuristic, each with initial ops, chosen
//! unfolding, unfolded ops (per iteration of `i+1` samples), relative
//! clock frequency, and the power-reduction factor. Pass `--v0 <volts>`
//! to change the initial voltage (default 3.3; the paper also quotes 5.0)
//! and `--freq-only` for the no-voltage-scaling fallback. The suite fans
//! out over one engine worker per core.

use lintra::engine::ThreadPool;
use lintra_bench::{render::render_table2, table2_rows_engine, v0_arg, SuiteCaches};

fn main() -> Result<(), lintra::LintraError> {
    let args: Vec<String> = std::env::args().collect();
    let Some(v0) = v0_arg(&args) else {
        eprintln!("usage: table2 [--v0 VOLTS] [--freq-only]: --v0 expects a positive voltage");
        std::process::exit(2);
    };
    let freq_only = args.iter().any(|a| a == "--freq-only");

    let (rows, _) = table2_rows_engine(v0, &ThreadPool::auto(), &SuiteCaches::new())?;
    print!("{}", render_table2(&rows, v0, freq_only));
    Ok(())
}
