//! Runs the equality-saturation strategy over the 24 synthetic designs of
//! `lintra-benchmark`'s first `synth_egraph` pass at seed 1 (3.3 V) and
//! prints one line per design: shape, unfolding, voltage, saturation
//! outcome and the exact optimized and script energies. Unlike the 5.0 V
//! suite, these designs reach a second and third sweep, where the
//! saturation engine's worklist and backoff run at scale. The designs
//! fan out over one engine worker per core.

use lintra::engine::ThreadPool;
use lintra::matrix::rng::SplitMix64;
use lintra_bench::{egraph_synth_rows, render::render_egraph_synth, synth_designs};

const SEED: u64 = 1;
const DESIGNS: usize = 24;
const V0: f64 = 3.3;

fn main() -> Result<(), lintra::LintraError> {
    let designs = synth_designs(&mut SplitMix64::new(SEED), DESIGNS);
    let rows = egraph_synth_rows(&designs, V0, &ThreadPool::auto())?;
    print!("{}", render_egraph_synth(&rows, SEED, V0));
    Ok(())
}
