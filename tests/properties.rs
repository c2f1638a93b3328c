//! Property-style tests on the core invariants, driven by the in-tree
//! deterministic [`SplitMix64`] generator (no external proptest
//! dependency): each test sweeps a seeded family of random cases.

use lintra::linsys::count::{
    dense_adds, dense_iopt, dense_muls, dense_op_count, op_count, TrivialityRule,
};
use lintra::linsys::{unfold, LinsysError};
use lintra::mcm::{naive_cost, synthesize, Recoding};
use lintra::power::{VoltageError, VoltageModel};
use lintra::prelude::SplitMix64;
use lintra::suite::{random_stable, stimulus};

/// MCM always computes the right constants and never beats the naive
/// decomposition in the wrong direction.
#[test]
fn mcm_correct_and_no_worse_than_naive() {
    let mut rng = SplitMix64::new(0x6d636d);
    for _ in 0..64 {
        let n = rng.next_below(11) as usize + 1;
        let constants: Vec<i64> = (0..n).map(|_| rng.range_i64(-4096, 4096)).collect();
        let recoding = if rng.next_bool() {
            Recoding::Csd
        } else {
            Recoding::Binary
        };
        let sol = synthesize(&constants, recoding);
        assert!(sol.verify().is_ok(), "plan wrong for {constants:?}:\n{sol}");
        assert!(sol.adds() <= naive_cost(&constants, recoding).adds);
    }
}

/// Unfolded batch simulation is sample-exact with the original system.
#[test]
fn unfolding_equivalence() {
    let mut rng = SplitMix64::new(0x756e66);
    for _ in 0..64 {
        let seed = rng.next_below(1000);
        let p = rng.next_below(2) as usize + 1;
        let q = rng.next_below(2) as usize + 1;
        let r = rng.next_below(5) as usize + 1;
        let i = rng.next_below(6) as u32;
        let sparsity = rng.range_f64(0.0, 0.8);
        let sys = random_stable(p, q, r, sparsity, seed);
        let u = unfold(&sys, i).unwrap();
        let n = u.batch();
        let input = stimulus(p, 6 * n, seed ^ 0xabcd);
        let want = sys.simulate(&input).unwrap();
        let got = u.simulate_samples(&input).unwrap();
        for (a, b) in want.iter().zip(&got) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-7, "{x} vs {y}");
            }
        }
    }
}

/// Guardrail: unfolding a system with spectral radius ≥ 1 is a typed
/// numerical error, never a silent divergence.
#[test]
fn unfolding_unstable_system_is_typed_error() {
    let mut rng = SplitMix64::new(0x726873);
    for _ in 0..32 {
        let r = rng.next_below(5) as usize + 1;
        let seed = rng.next_u64();
        let (a, b, c, d) = lintra::diag::fault::unstable_system(1, 1, r, seed);
        let sys = lintra::linsys::StateSpace::new(a, b, c, d).unwrap();
        assert!(
            sys.spectral_radius() >= 1.0,
            "fault construction must be unstable"
        );
        let i = rng.next_below(5) as u32 + 1;
        match unfold(&sys, i) {
            Err(LinsysError::UnstableSystem { spectral_radius }) => {
                assert!(spectral_radius >= 1.0);
            }
            other => panic!("expected UnstableSystem, got {other:?}"),
        }
    }
}

/// Guardrail: fixed-point overflow in the bit-true simulator is reported
/// with the offending node id, not a wrapped or poisoned value.
#[test]
fn fixed_overflow_reports_offending_node() {
    use lintra::fixed::{simulate_fixed, Fixed, FixedSimError};
    use lintra::matrix::Matrix;
    // ρ(A) = 2: the state doubles every sample until the i64 raw value
    // overflows, whatever the seed-chosen starting magnitude.
    let sys = lintra::linsys::StateSpace::new(
        Matrix::from_rows(&[&[2.0]]),
        Matrix::from_rows(&[&[1.0]]),
        Matrix::from_rows(&[&[1.0]]),
        Matrix::from_rows(&[&[0.0]]),
    )
    .unwrap();
    let g = lintra::dfg::build::from_state_space(&sys).unwrap();
    let frac = 20u32;
    let mut rng = SplitMix64::new(0x6f7666);
    for _ in 0..16 {
        let mut state = vec![Fixed::from_raw(rng.range_i64(1, 1 << 40), frac)];
        let inputs =
            std::collections::HashMap::from([((0usize, 0usize), Fixed::from_f64(1.0, frac))]);
        let mut saw_overflow = false;
        for _ in 0..80 {
            match simulate_fixed(&g, &state, &inputs, frac) {
                Ok((_, next)) => state = vec![next[&0]],
                Err(FixedSimError::Overflow { node }) => {
                    assert!(node < g.len(), "node id {node} out of range");
                    saw_overflow = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(saw_overflow, "doubling state never overflowed");
    }
}

/// Guardrail: asking the voltage inversion for a speedup (slowdown < 1)
/// or feeding it non-finite values is a typed error, and a non-finite
/// target is a convergence failure rather than a hang or a NaN voltage.
#[test]
fn infeasible_voltage_inversion_is_typed_error() {
    let m = VoltageModel::dac96();
    let mut rng = SplitMix64::new(0x766c74);
    for _ in 0..32 {
        let v0 = rng.range_f64(1.5, 5.0);
        let speedup = rng.range_f64(0.01, 0.999);
        match m.voltage_for_slowdown(v0, speedup) {
            Err(VoltageError::InfeasibleSlowdown { slowdown }) => {
                assert!((slowdown - speedup).abs() < 1e-12);
            }
            other => panic!("expected InfeasibleSlowdown, got {other:?}"),
        }
    }
    assert!(matches!(
        m.voltage_for_slowdown(3.3, f64::NAN),
        Err(VoltageError::InfeasibleSlowdown { .. })
    ));
    // A slowdown so large the delay target overflows: convergence error.
    assert!(matches!(
        m.voltage_for_slowdown(3.3, 1e308),
        Err(VoltageError::NonConvergence { .. })
    ));
}

/// The empirical count of a structurally dense random system matches
/// the closed forms at every unfolding.
#[test]
fn dense_closed_forms() {
    let mut rng = SplitMix64::new(0x646e73);
    for _ in 0..64 {
        let seed = rng.next_below(500);
        let p = rng.next_below(2) as usize + 1;
        let q = rng.next_below(2) as usize + 1;
        let r = rng.next_below(4) as usize + 1;
        let i = rng.next_below(5);
        let sys = random_stable(p, q, r, 0.0, seed);
        let u = unfold(&sys, i as u32).unwrap();
        let c = op_count(&u.system, TrivialityRule::ZeroOne);
        assert_eq!(c.muls, dense_muls(p as u64, q as u64, r as u64, i));
        assert_eq!(c.adds, dense_adds(p as u64, q as u64, r as u64, i));
    }
}

/// The closed-form i_opt is a true minimum of the per-sample count.
#[test]
fn iopt_is_global_minimum() {
    for p in 1u64..4 {
        for q in 1u64..4 {
            for r in 1u64..16 {
                let iopt = dense_iopt(p, q, r, 1.0, 1.0);
                let per = |i: u64| dense_op_count(p, q, r, i).cycles(1.0, 1.0) / (i + 1) as f64;
                let best = per(iopt);
                for i in 0..(3 * iopt + 8) {
                    assert!(best <= per(i) + 1e-9, "i={i} beats iopt={iopt}");
                }
            }
        }
    }
}

/// Voltage inversion: scale_for_slowdown returns a voltage that
/// realizes the requested slowdown (or clamps at the floor), and the
/// power reduction formula is consistent.
#[test]
fn voltage_scaling_consistent() {
    let m = VoltageModel::dac96();
    let mut rng = SplitMix64::new(0x766f6c);
    for _ in 0..64 {
        let v0 = rng.range_f64(1.5, 5.0);
        let slowdown = rng.range_f64(1.0, 50.0);
        let s = m.scale_for_slowdown(v0, slowdown).unwrap();
        assert!(s.voltage >= m.v_min() - 1e-12);
        assert!(s.voltage <= v0 + 1e-12);
        if !s.clamped() {
            let achieved = m.slowdown_between(v0, s.voltage);
            assert!((achieved - slowdown).abs() / slowdown < 1e-6);
        }
        let expect = (v0 / s.voltage).powi(2) * slowdown;
        assert!((s.power_reduction() - expect).abs() < 1e-9 * expect);
    }
}

/// Simulation linearity: the response to a scaled input is the scaled
/// response (defining property of a linear system).
#[test]
fn simulation_is_linear() {
    let mut rng = SplitMix64::new(0x6c696e);
    for _ in 0..64 {
        let seed = rng.next_below(300);
        let alpha = rng.range_f64(-3.0, 3.0);
        let sys = random_stable(2, 2, 4, 0.3, seed);
        let x = stimulus(2, 24, seed ^ 0x55);
        let scaled: Vec<Vec<f64>> = x
            .iter()
            .map(|v| v.iter().map(|&e| alpha * e).collect())
            .collect();
        let y = sys.simulate(&x).unwrap();
        let ys = sys.simulate(&scaled).unwrap();
        for (a, b) in y.iter().zip(&ys) {
            for (u, v) in a.iter().zip(b) {
                assert!((alpha * u - v).abs() < 1e-8);
            }
        }
    }
}

/// Exact QR eigenvalues agree with the norm-based spectral-radius
/// estimate on random stable systems.
#[test]
fn eigen_radius_matches_estimate() {
    use lintra::matrix::{spectral_radius_estimate, spectral_radius_exact};
    let mut rng = SplitMix64::new(0x656967);
    for _ in 0..32 {
        let seed = rng.next_below(200);
        let r = rng.next_below(5) as usize + 1;
        let sys = random_stable(1, 1, r, 0.2, seed);
        let exact = spectral_radius_exact(sys.a());
        let est = spectral_radius_estimate(sys.a(), 16).value;
        assert!(exact < 1.0, "stable by construction");
        assert!(
            (exact - est).abs() <= 0.05 * exact.max(0.05),
            "{exact} vs {est}"
        );
    }
}

/// Pipelining never changes simulated values and never lengthens the
/// feedback path.
#[test]
fn pipelining_preserves_values() {
    use lintra::dfg::{build, OpTiming};
    use lintra::transform::pipeline::insert_registers;
    let mut rng = SplitMix64::new(0x706970);
    for _ in 0..32 {
        let seed = rng.next_below(100);
        let r = rng.next_below(3) as usize + 1;
        let levels = rng.next_below(4) as u32 + 1;
        let sys = random_stable(1, 1, r, 0.3, seed);
        let g = build::from_state_space(&sys).unwrap();
        let t = OpTiming {
            t_mul: 2.0,
            t_add: 1.0,
            t_shift: 0.0,
        };
        let (h, _) = insert_registers(&g, levels as f64, &t).unwrap();
        assert!(h.feedback_critical_path(&t) <= g.feedback_critical_path(&t) + 1e-9);
        let mut inputs = std::collections::HashMap::new();
        inputs.insert((0usize, 0usize), 0.7);
        let state = vec![0.3; r];
        let (o1, s1) = g.simulate(&state, &inputs).unwrap();
        let (o2, s2) = h.simulate(&state, &inputs).unwrap();
        assert!((o1[&(0, 0)] - o2[&(0, 0)]).abs() < 1e-12);
        for i in 0..r {
            assert!((s1[&i] - s2[&i]).abs() < 1e-12);
        }
    }
}

/// The single-constant CSD cost is never better than the exhaustive
/// adder-graph oracle and never worse than binary recoding.
#[test]
fn scm_cost_ordering() {
    use lintra::mcm::csd::single_constant_cost;
    use lintra::mcm::optimal::ScmOracle;
    let oracle = ScmOracle::new(3);
    for c in 1i64..400 {
        let csd = single_constant_cost(c, Recoding::Csd).adds as u32;
        let bin = single_constant_cost(c, Recoding::Binary).adds as u32;
        assert!(csd <= bin);
        if let Some(opt) = oracle.min_adds(c) {
            assert!(csd >= opt, "CSD {csd} beats the oracle {opt} for {c}");
        }
    }
}

/// Incremental unfolding through the engine's [`SweepCache`] is
/// *bit-identical* (not just tolerance-equal — `UnfoldedSystem`'s
/// `PartialEq` compares `f64` entries exactly) to from-scratch
/// `unfold(sys, i)` at every step of the trajectory `i = 0..12`, for a
/// seeded family of random stable systems.
#[test]
fn sweep_cache_incremental_unfold_matches_scratch() {
    use lintra::engine::SweepCache;
    let mut rng = SplitMix64::new(0x63616368);
    for _ in 0..24 {
        let seed = rng.next_below(1000);
        let p = rng.next_below(2) as usize + 1;
        let q = rng.next_below(2) as usize + 1;
        let r = rng.next_below(5) as usize + 1;
        let sparsity = rng.range_f64(0.0, 0.8);
        let sys = random_stable(p, q, r, sparsity, seed);
        let mut cache = SweepCache::new(&sys);
        for i in 0..12u32 {
            let scratch = unfold(&sys, i).unwrap();
            let cached = cache.unfolded(i).unwrap();
            assert_eq!(
                cached, scratch,
                "cache diverged from scratch unfolding at i={i} (P={p} Q={q} R={r} seed={seed})"
            );
        }
        // Stepping down after stepping up must replay from the cache and
        // still be bit-identical.
        let replay = cache.unfolded(5).unwrap();
        assert_eq!(replay, unfold(&sys, 5).unwrap());
        assert!(
            cache.stats().hits > 0,
            "trajectory reuse must register as cache hits"
        );
    }
}
