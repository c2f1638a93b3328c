//! Cross-crate HLS integration tests: pipelining and latency analysis
//! composed over the real benchmark suite.

use lintra::dfg::{build, OpTiming};
use lintra::linsys::unfold;
use lintra::sched::latency::{batch_latency, BatchArrival};
use lintra::suite::{stimulus, suite};
use lintra::transform::horner::HornerForm;
use lintra::transform::mcm_pass::{expand_multiplications, McmPassConfig};
use lintra::transform::pipeline::insert_registers;
use std::collections::HashMap;

fn timing() -> OpTiming {
    OpTiming {
        t_mul: 2.0,
        t_add: 1.0,
        t_shift: 0.0,
    }
}

#[test]
fn pipelining_the_full_asic_graph_preserves_values_and_feedback() {
    for d in suite() {
        let (p, q, r) = d.dims();
        let h = HornerForm::new(&d.system, 3).unwrap();
        let g0 = h.to_dfg().unwrap();
        let (g1, _) = expand_multiplications(&g0, McmPassConfig::default()).unwrap();
        let t = timing();
        let fb_before = g1.feedback_critical_path(&t);
        let (g2, report) = insert_registers(&g1, 3.0, &t).unwrap();
        let fb_after = g2.feedback_critical_path(&t);
        assert!(
            fb_after <= fb_before + 1e-9,
            "{}: feedback path grew",
            d.name
        );
        // Every feed-forward path is cut to one level (+ one op); only the
        // feedback section — which registers must not touch — may remain
        // longer.
        assert!(
            g2.critical_path(&t) <= (3.0 + t.t_mul).max(fb_after),
            "{}: cp {} not cut to level (fb {fb_after})",
            d.name,
            g2.critical_path(&t)
        );
        let _ = report;

        // Semantics unchanged (registers are wires to the simulator).
        let input = stimulus(p, 4 * h.batch, 5);
        let run = |g: &lintra::dfg::Dfg| {
            let mut state = vec![0.0; r];
            let mut out = Vec::new();
            for chunk in input.chunks(h.batch) {
                let mut m = HashMap::new();
                for (s, xs) in chunk.iter().enumerate() {
                    for (c, &x) in xs.iter().enumerate() {
                        m.insert((s, c), x);
                    }
                }
                let (outs, next) = g.simulate(&state, &m).unwrap();
                for s in 0..h.batch {
                    for c in 0..q {
                        out.push(outs[&(s, c)]);
                    }
                }
                state = (0..r).map(|i| next[&i]).collect();
            }
            out
        };
        let a = run(&g1);
        let b = run(&g2);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12, "{}", d.name);
        }
    }
}

#[test]
fn on_arrival_latency_beats_block_on_every_unfolded_design() {
    let t = timing();
    for d in suite() {
        let g = build::from_unfolded(&unfold(&d.system, 4).unwrap()).unwrap();
        let block = batch_latency(&g, &t, 20.0, BatchArrival::Block);
        let onarr = batch_latency(&g, &t, 20.0, BatchArrival::OnArrival);
        assert!(
            onarr.avg_latency < block.avg_latency,
            "{}: on-arrival {} !< block {}",
            d.name,
            onarr.avg_latency,
            block.avg_latency
        );
    }
}
