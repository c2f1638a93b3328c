//! Semantic-equivalence integration tests: every transformation in the
//! repertoire must preserve the input/output behaviour of every suite
//! design.

use lintra::dfg::build;
use lintra::linsys::unfold;
use lintra::suite::{stimulus, suite};
use lintra::transform::horner::HornerForm;
use lintra::transform::mcm_pass::{expand_multiplications, McmPassConfig};
use std::collections::HashMap;

/// Simulates a per-batch dataflow graph over a sample stream.
fn run_graph(
    g: &lintra::dfg::Dfg,
    batch: usize,
    _p: usize,
    q: usize,
    r: usize,
    inputs: &[Vec<f64>],
) -> Vec<Vec<f64>> {
    let mut state = vec![0.0; r];
    let mut out = Vec::new();
    for chunk in inputs.chunks(batch) {
        let mut m = HashMap::new();
        for (s, x) in chunk.iter().enumerate() {
            for (c, &v) in x.iter().enumerate() {
                m.insert((s, c), v);
            }
        }
        let (outs, next) = g.simulate(&state, &m).unwrap();
        for s in 0..batch {
            out.push((0..q).map(|c| outs[&(s, c)]).collect());
        }
        state = (0..r).map(|i| next[&i]).collect();
    }
    out
}

fn max_err(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| x.iter().zip(y).map(|(u, v)| (u - v).abs()))
        .fold(0.0, f64::max)
}

#[test]
fn unfolding_preserves_every_design() {
    for d in suite() {
        let (p, _, _) = d.dims();
        let input = stimulus(p, 60, 7);
        let want = d.system.simulate(&input).unwrap();
        for i in [1u32, 2, 4] {
            let u = unfold(&d.system, i).unwrap();
            let n = u.batch();
            let take = input.len() / n * n;
            let got = u.simulate_samples(&input[..take]).unwrap();
            let err = max_err(&want[..take], &got);
            assert!(err < 1e-8, "{} i={i}: err {err}", d.name);
        }
    }
}

#[test]
fn maximally_fast_graphs_preserve_every_design() {
    for d in suite() {
        let (p, q, r) = d.dims();
        let input = stimulus(p, 30, 11);
        let want = d.system.simulate(&input).unwrap();
        let g = build::from_state_space(&d.system).unwrap();
        let got = run_graph(&g, 1, p, q, r, &input);
        let err = max_err(&want, &got);
        assert!(err < 1e-9, "{}: err {err}", d.name);
    }
}

#[test]
fn horner_graphs_preserve_every_design() {
    for d in suite() {
        let (p, q, r) = d.dims();
        let i = 3u32;
        let h = HornerForm::new(&d.system, i).unwrap();
        let g = h.to_dfg().unwrap();
        let n = h.batch;
        let input = stimulus(p, 10 * n, 13);
        let want = d.system.simulate(&input).unwrap();
        let got = run_graph(&g, n, p, q, r, &input);
        let err = max_err(&want, &got);
        assert!(err < 1e-8, "{}: err {err}", d.name);
    }
}

#[test]
fn mcm_rewrite_stays_within_quantization_error() {
    for d in suite() {
        let (p, q, r) = d.dims();
        let g = build::from_state_space(&d.system).unwrap();
        let (rewritten, report) = expand_multiplications(
            &g,
            McmPassConfig {
                frac_bits: 20,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(rewritten.op_counts().muls, 0, "{}", d.name);
        assert!(report.muls_removed > 0, "{}", d.name);
        let input = stimulus(p, 40, 17);
        let want = run_graph(&g, 1, p, q, r, &input);
        let got = run_graph(&rewritten, 1, p, q, r, &input);
        // 20 fractional bits; the recursion amplifies coefficient error by
        // roughly the filter's Q, so the bound is loose for the high-Q
        // band-pass designs.
        let err = max_err(&want, &got);
        assert!(err < 5e-3, "{}: err {err}", d.name);
    }
}

#[test]
fn transform_composition_unfold_horner_mcm() {
    // The full §5 pipeline at once, checked against plain simulation.
    for d in suite() {
        let (p, q, r) = d.dims();
        let h = HornerForm::new(&d.system, 4).unwrap();
        let g = h.to_dfg().unwrap();
        let (rewritten, _) = expand_multiplications(
            &g,
            McmPassConfig {
                frac_bits: 22,
                ..Default::default()
            },
        )
        .unwrap();
        let n = h.batch;
        let input = stimulus(p, 8 * n, 23);
        let want = d.system.simulate(&input).unwrap();
        let got = run_graph(&rewritten, n, p, q, r, &input);
        let err = max_err(&want, &got);
        assert!(err < 5e-3, "{}: err {err}", d.name);
    }
}
