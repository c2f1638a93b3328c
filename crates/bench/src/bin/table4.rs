//! Regenerates Table 4: energy per sample before and after the §5
//! transformation ordering (unfold → generalized Horner → MCM), with the
//! improvement factors and suite average/median. Voltage is conservatively
//! clamped at 1.1 V, as in the paper. Pass `--verbose` to also print the
//! paper's worked MCM example. The suite fans out over one engine worker
//! per core.

use lintra::engine::ThreadPool;
use lintra_bench::{render::render_table4, table4_rows_engine, v0_arg, SuiteCaches};

fn main() -> Result<(), lintra::LintraError> {
    let args: Vec<String> = std::env::args().collect();
    let verbose = args.iter().any(|a| a == "--verbose");
    // The paper does not print Table 4's initial voltage; 3.3 V reproduces
    // its reported improvement scale (average ~x30). Use --v0 5.0 for the
    // high-voltage variant.
    let Some(v0) = v0_arg(&args) else {
        eprintln!("usage: table4 [--v0 VOLTS] [--verbose]: --v0 expects a positive voltage");
        std::process::exit(2);
    };

    let (rows, _) = table4_rows_engine(v0, &ThreadPool::auto(), &SuiteCaches::new())?;
    print!("{}", render_table4(&rows, v0));

    if verbose {
        use lintra::mcm::{naive_cost, synthesize, Recoding};
        println!("\n-- the paper's §5 worked example --");
        let naive = naive_cost(&[185, 235], Recoding::Binary);
        let sol = synthesize(&[185, 235], Recoding::Binary);
        println!(
            "y1 = 185x, y2 = 235x: naive {} shifts + {} adds; shared plan {} shifts + {} adds:",
            naive.shifts,
            naive.adds,
            sol.cost().shifts,
            sol.cost().adds
        );
        print!("{sol}");
    }
    Ok(())
}
