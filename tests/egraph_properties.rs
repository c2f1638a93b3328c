//! Property harness for the equality-saturation engine, driven by the
//! in-tree deterministic [`SplitMix64`] generator.
//!
//! The central claim: saturating with the **exact** rule tier and
//! extracting *any* representative — under any cost model, or sampled by
//! seed — yields a graph that simulates **bit-identically** (`f64`, with
//! `±0.0` canonicalized) to the original. The harness sweeps well over
//! 100 random dataflow graphs per invocation: seeded random stable
//! filters (state-space and unfolded batch forms) plus hand-rolled mixed
//! graphs exercising `Shift`/`Neg`/`Delay`/`Const` shapes the filter
//! builder never emits. A second family of tests drives every rewrite
//! rule in isolation on a minimal graph.

use std::collections::HashMap;

use lintra::dfg::{build, CostModel, CycleCost, Dfg, NodeId, NodeKind, OpCountCost};
use lintra::egraph::{EGraph, Rule, RuleSet, SaturationBudget, StopReason};
use lintra::linsys::unfold;
use lintra::mcm::Recoding;
use lintra::prelude::SplitMix64;
use lintra::suite::random_stable;

/// Canonical bit pattern: folds `-0.0` onto `+0.0` (the one IEEE value
/// pair that is `==` but not bit-equal; `x + 0.0` normalizes it).
fn bits(v: f64) -> u64 {
    (v + 0.0).to_bits()
}

/// Simulates both graphs on the same stimulus and asserts the full
/// interface (every output key and every next-state) agrees bit-for-bit.
fn assert_bit_identical(
    ctx: &str,
    original: &Dfg,
    candidate: &Dfg,
    state: &[f64],
    inputs: &HashMap<(usize, usize), f64>,
) {
    candidate
        .validate()
        .unwrap_or_else(|e| panic!("{ctx}: extracted graph invalid: {e}"));
    let (o1, s1) = original.simulate(state, inputs).unwrap();
    let (o2, s2) = candidate.simulate(state, inputs).unwrap();
    assert_eq!(o1.len(), o2.len(), "{ctx}: output arity changed");
    assert_eq!(s1.len(), s2.len(), "{ctx}: state arity changed");
    for (k, v) in &o1 {
        let w = o2
            .get(k)
            .unwrap_or_else(|| panic!("{ctx}: output {k:?} missing"));
        assert_eq!(
            bits(*v),
            bits(*w),
            "{ctx}: output {k:?} drifted: {v:e} vs {w:e}"
        );
    }
    for (k, v) in &s1 {
        let w = s2
            .get(k)
            .unwrap_or_else(|| panic!("{ctx}: state {k} missing"));
        assert_eq!(
            bits(*v),
            bits(*w),
            "{ctx}: state {k} drifted: {v:e} vs {w:e}"
        );
    }
}

/// Like [`assert_bit_identical`] but with a relative tolerance, for rule
/// tiers that legitimately reassociate or quantize.
fn assert_close(
    ctx: &str,
    original: &Dfg,
    candidate: &Dfg,
    state: &[f64],
    inputs: &HashMap<(usize, usize), f64>,
    tol: f64,
) {
    candidate
        .validate()
        .unwrap_or_else(|e| panic!("{ctx}: extracted graph invalid: {e}"));
    let (o1, s1) = original.simulate(state, inputs).unwrap();
    let (o2, s2) = candidate.simulate(state, inputs).unwrap();
    for (k, v) in &o1 {
        let w = o2[k];
        assert!(
            (v - w).abs() <= tol * (1.0 + v.abs()),
            "{ctx}: output {k:?} drifted: {v} vs {w}"
        );
    }
    for (k, v) in &s1 {
        let w = s2[k];
        assert!(
            (v - w).abs() <= tol * (1.0 + v.abs()),
            "{ctx}: state {k} drifted: {v} vs {w}"
        );
    }
}

/// A full stimulus for a graph: one value per `(sample, channel)` input
/// key the graph mentions, plus a dense state vector.
fn stimulus_for(g: &Dfg, rng: &mut SplitMix64) -> (Vec<f64>, HashMap<(usize, usize), f64>) {
    let mut inputs = HashMap::new();
    let mut max_state = 0usize;
    for (_, n) in g.iter() {
        match n.kind {
            NodeKind::Input { sample, channel } => {
                inputs
                    .entry((sample, channel))
                    .or_insert_with(|| rng.range_f64(-2.0, 2.0));
            }
            NodeKind::StateIn { index } => max_state = max_state.max(index + 1),
            _ => {}
        }
    }
    let state = (0..max_state).map(|_| rng.range_f64(-1.0, 1.0)).collect();
    (state, inputs)
}

/// Saturates `g` with the exact tier and asserts bit-identity of every
/// extraction flavour the crate offers (two cost models plus three
/// seeded samples of alternative representatives).
fn check_exact_roundtrip(ctx: &str, g: &Dfg, rng: &mut SplitMix64) {
    let rules = RuleSet::exact();
    assert!(rules.bit_exact(), "exact tier must be bit-exact");
    let (mut eg, roots) = EGraph::from_dfg(g).unwrap();
    let stats = eg.saturate(&rules, &SaturationBudget::default());
    assert!(
        stats.saturated(),
        "{ctx}: exact tier should saturate small graphs, got {stats}"
    );

    let (state, inputs) = stimulus_for(g, rng);
    let best = eg.extract(&roots, &OpCountCost).unwrap();
    assert_bit_identical(&format!("{ctx} (op-count)"), g, &best.dfg, &state, &inputs);
    // Op-count can never increase: the original is one representative.
    let original_ops = {
        let c = g.op_counts();
        (c.adds + c.muls + c.shifts) as f64
    };
    assert!(
        best.cost <= original_ops + 1e-9,
        "{ctx}: extraction cost {} beats original {original_ops}?",
        best.cost
    );

    let cycles = eg
        .extract(
            &roots,
            &CycleCost {
                w_mul: 2.0,
                w_add: 1.0,
            },
        )
        .unwrap();
    assert_bit_identical(&format!("{ctx} (cycles)"), g, &cycles.dfg, &state, &inputs);

    for seed in [1u64, 0xbeef, 0x5eed] {
        let sampled = eg.extract_seeded(&roots, seed).unwrap();
        assert_bit_identical(
            &format!("{ctx} (seeded {seed:#x})"),
            g,
            &sampled.dfg,
            &state,
            &inputs,
        );
    }
}

/// 64 random stable filters, each loaded both as the plain state-space
/// graph and (for a third of them) as an unfolded multi-sample batch
/// graph — together with the mixed-graph sweep below this puts the
/// per-invocation case count well past 100.
#[test]
fn exact_saturation_is_bit_identical_on_random_filters() {
    let mut rng = SplitMix64::new(0x4547_5052);
    for case in 0..64 {
        let seed = rng.next_below(10_000);
        let p = rng.next_below(2) as usize + 1;
        let q = rng.next_below(2) as usize + 1;
        let r = rng.next_below(4) as usize + 1;
        let sparsity = rng.range_f64(0.0, 0.7);
        let sys = random_stable(p, q, r, sparsity, seed);

        let g = build::from_state_space(&sys).unwrap();
        check_exact_roundtrip(&format!("filter #{case} (P={p} Q={q} R={r})"), &g, &mut rng);

        if case % 3 == 0 {
            let i = rng.next_below(3) as u32 + 1;
            let u = build::from_unfolded(&unfold(&sys, i).unwrap()).unwrap();
            check_exact_roundtrip(&format!("unfolded #{case} (i={i})"), &u, &mut rng);
        }
    }
}

/// A random DAG over the full node language: inputs, states, constants,
/// adds/subs, multipliers (unit, power-of-two and arbitrary), shifts,
/// negations and registers, closed with unique outputs and one
/// `StateOut` per state variable.
fn random_mixed_graph(rng: &mut SplitMix64) -> Dfg {
    let p = rng.next_below(2) as usize + 1;
    let r = rng.next_below(2) as usize + 1;
    let q = rng.next_below(2) as usize + 1;
    let mut g = Dfg::new();
    let mut pool: Vec<NodeId> = Vec::new();
    for channel in 0..p {
        pool.push(g.push(NodeKind::Input { sample: 0, channel }, &[]).unwrap());
    }
    for index in 0..r {
        pool.push(g.push(NodeKind::StateIn { index }, &[]).unwrap());
    }
    pool.push(
        g.push(NodeKind::Const(rng.range_f64(-2.0, 2.0)), &[])
            .unwrap(),
    );
    if rng.next_bool() {
        pool.push(g.push(NodeKind::Const(0.0), &[]).unwrap());
    }

    let ops = rng.next_below(9) as usize + 4;
    for _ in 0..ops {
        let a = pool[rng.next_below(pool.len() as u64) as usize];
        let b = pool[rng.next_below(pool.len() as u64) as usize];
        let node = match rng.next_below(6) {
            0 => g.push(NodeKind::Add, &[a, b]),
            1 => g.push(NodeKind::Sub, &[a, b]),
            2 => {
                let c = match rng.next_below(5) {
                    0 => 1.0,
                    1 => -1.0,
                    2 => 4.0,
                    3 => -0.5,
                    _ => rng.range_f64(-3.0, 3.0),
                };
                g.push(NodeKind::MulConst(c), &[a])
            }
            3 => g.push(NodeKind::Shift(rng.range_i64(-2, 3) as i32), &[a]),
            4 => g.push(NodeKind::Neg, &[a]),
            _ => g.push(NodeKind::Delay, &[a]),
        };
        pool.push(node.unwrap());
    }

    for channel in 0..q {
        let src = pool[pool.len() - 1 - rng.next_below((pool.len() / 2) as u64 + 1) as usize];
        g.push(NodeKind::Output { sample: 0, channel }, &[src])
            .unwrap();
    }
    for index in 0..r {
        let src = pool[rng.next_below(pool.len() as u64) as usize];
        g.push(NodeKind::StateOut { index }, &[src]).unwrap();
    }
    g
}

/// 48 hand-rolled mixed graphs — shapes (`Shift`, `Neg`, `Delay`,
/// explicit constants, shared fan-out) the filter builder never emits.
#[test]
fn exact_saturation_is_bit_identical_on_random_mixed_graphs() {
    let mut rng = SplitMix64::new(0x6d69_7865);
    for case in 0..48 {
        let g = random_mixed_graph(&mut rng);
        check_exact_roundtrip(&format!("mixed #{case}"), &g, &mut rng);
    }
}

/// Budgets bound the *search*, never the *correctness*: whatever budget
/// the saturation loop is given — including ones too small for a single
/// sweep — extraction must still succeed and still be bit-identical.
#[test]
fn any_budget_still_extracts_a_bit_identical_graph() {
    let mut rng = SplitMix64::new(0x6275_6467);
    for case in 0..24 {
        let g = random_mixed_graph(&mut rng);
        let (mut eg, roots) = EGraph::from_dfg(&g).unwrap();
        let budget = SaturationBudget {
            max_enodes: rng.next_below(200) as usize + 1,
            max_iterations: rng.next_below(4) as usize,
        };
        let stats = eg.saturate(&RuleSet::exact(), &budget);
        assert!(stats.enodes <= budget.max_enodes.max(eg.len()));
        let (state, inputs) = stimulus_for(&g, &mut rng);
        let best = eg.extract(&roots, &OpCountCost).unwrap();
        assert_bit_identical(
            &format!("budget #{case} ({budget:?}, {stats})"),
            &g,
            &best.dfg,
            &state,
            &inputs,
        );
    }
}

/// Builds the minimal graph targeting one rule, returning the graph.
/// Channels: x=(0,0), y=(0,1).
fn minimal_graph_for(rule: &Rule) -> Dfg {
    let mut g = Dfg::new();
    let x = g
        .push(
            NodeKind::Input {
                sample: 0,
                channel: 0,
            },
            &[],
        )
        .unwrap();
    let sink = match rule {
        Rule::AddCommute => {
            let y = input(&mut g, 1);
            g.push(NodeKind::Add, &[x, y]).unwrap()
        }
        Rule::SubToAddNeg => {
            let y = input(&mut g, 1);
            g.push(NodeKind::Sub, &[x, y]).unwrap()
        }
        Rule::NegNeg => {
            let n1 = g.push(NodeKind::Neg, &[x]).unwrap();
            g.push(NodeKind::Neg, &[n1]).unwrap()
        }
        Rule::MulOne => g.push(NodeKind::MulConst(1.0), &[x]).unwrap(),
        Rule::MulPow2 => g.push(NodeKind::MulConst(4.0), &[x]).unwrap(),
        Rule::ShiftFuse => {
            let s1 = g.push(NodeKind::Shift(1), &[x]).unwrap();
            g.push(NodeKind::Shift(2), &[s1]).unwrap()
        }
        Rule::AddZero => {
            let zero = g.push(NodeKind::Const(0.0), &[]).unwrap();
            g.push(NodeKind::Add, &[x, zero]).unwrap()
        }
        // 0.75 = 2⁻¹ + 2⁻² recodes in CSD to 2⁰ − 2⁻², one subtraction.
        Rule::CsdDecompose { .. } => g.push(NodeKind::MulConst(0.75), &[x]).unwrap(),
        Rule::CollectLinear => {
            // 5x as a shift-add chain; collection grows the 5·x hub.
            let s2 = g.push(NodeKind::Shift(2), &[x]).unwrap();
            g.push(NodeKind::Add, &[s2, x]).unwrap()
        }
        // Two multipliers off one base: sharing synthesizes one plan.
        Rule::McmShare { .. } => {
            let m1 = g.push(NodeKind::MulConst(0.75), &[x]).unwrap();
            let m2 = g.push(NodeKind::MulConst(1.5), &[x]).unwrap();
            g.push(NodeKind::Add, &[m1, m2]).unwrap()
        }
    };
    g.push(
        NodeKind::Output {
            sample: 0,
            channel: 0,
        },
        &[sink],
    )
    .unwrap();
    g
}

fn input(g: &mut Dfg, channel: usize) -> NodeId {
    g.push(NodeKind::Input { sample: 0, channel }, &[]).unwrap()
}

/// Every rule, alone on its minimal graph: saturation terminates, the
/// rewrite preserves semantics (bit-identically for the exact tier,
/// within quantization tolerance otherwise), and the rules that exist to
/// *cheapen* the graph demonstrably do so under the matching cost model.
#[test]
fn each_rule_is_semantics_preserving_in_isolation() {
    let all_rules = [
        Rule::AddCommute,
        Rule::SubToAddNeg,
        Rule::NegNeg,
        Rule::MulOne,
        Rule::MulPow2,
        Rule::ShiftFuse,
        Rule::AddZero,
        Rule::CsdDecompose {
            frac_bits: 16,
            recoding: Recoding::Csd,
        },
        Rule::CollectLinear,
        Rule::McmShare {
            frac_bits: 16,
            recoding: Recoding::Csd,
        },
    ];
    let mut rng = SplitMix64::new(0x7275_6c65);
    for rule in all_rules {
        let g = minimal_graph_for(&rule);
        let (mut eg, roots) = EGraph::from_dfg(&g).unwrap();
        let stats = eg.saturate(&RuleSet::single(rule), &SaturationBudget::default());
        assert!(
            stats.saturated(),
            "{}: single rule must fixpoint, got {stats}",
            rule.name()
        );

        for trial in 0..8 {
            let (state, inputs) = stimulus_for(&g, &mut rng);
            let best = eg.extract(&roots, &OpCountCost).unwrap();
            let ctx = format!("rule {} trial {trial}", rule.name());
            if rule.bit_exact() {
                assert_bit_identical(&ctx, &g, &best.dfg, &state, &inputs);
            } else {
                // 16 fractional bits: quantization error ≤ 2⁻¹⁷ per
                // constant; reassociation stays within a few ulps.
                assert_close(&ctx, &g, &best.dfg, &state, &inputs, 1e-4);
            }
        }

        // The simplifying rules must actually pay off under a model that
        // can see the difference.
        match rule {
            Rule::NegNeg => {
                // Negations are free in every census model, so the win is
                // structural: the double negation must extract away.
                let best = eg.extract(&roots, &OpCountCost).unwrap();
                assert_eq!(
                    best.dfg.op_counts().negs,
                    0,
                    "neg-neg: both negations should cancel"
                );
            }
            Rule::MulOne | Rule::AddZero | Rule::ShiftFuse | Rule::CollectLinear => {
                let best = eg.extract(&roots, &OpCountCost).unwrap();
                let before = {
                    let c = g.op_counts();
                    (c.adds + c.muls + c.shifts) as f64
                };
                assert!(
                    best.cost < before,
                    "{}: expected a cheaper representative ({} vs {before})",
                    rule.name(),
                    best.cost
                );
            }
            Rule::MulPow2 | Rule::CsdDecompose { .. } | Rule::McmShare { .. } => {
                // Shift-add forms are free/cheap under the cycle model.
                let cycles = CycleCost {
                    w_mul: 2.0,
                    w_add: 1.0,
                };
                let best = eg.extract(&roots, &cycles).unwrap();
                let mul_cost = 2.0 * g.op_counts().muls as f64;
                assert!(
                    best.cost < mul_cost,
                    "{}: shift-add form should beat the multiplier ({} vs {mul_cost})",
                    rule.name(),
                    best.cost
                );
            }
            _ => {}
        }
    }
}

/// Drives the incremental engine ([`EGraph::saturate`]: kind-indexed
/// candidates, dirty-class worklist, backoff scheduler) and the
/// full-rescan reference engine ([`EGraph::saturate_reference`]) over the
/// same graph and asserts their *outcomes* are identical: same stats
/// (timings excluded), and bit-identical extractions under every flavour
/// the crate offers. Each extraction is also checked against its own
/// oracle, the reference relaxation ([`EGraph::extract_reference`],
/// [`EGraph::extract_seeded_reference`]).
fn assert_engines_agree(ctx: &str, g: &Dfg, rules: &RuleSet, budget: &SaturationBudget) {
    let (mut fast, roots_f) = EGraph::from_dfg(g).unwrap();
    let (mut slow, roots_s) = EGraph::from_dfg(g).unwrap();
    let sf = fast.saturate(rules, budget);
    let ss = slow.saturate_reference(rules, budget);
    assert_eq!(sf, ss, "{ctx}: stats diverge: {sf} vs {ss}");
    let cycles = CycleCost {
        w_mul: 2.0,
        w_add: 1.0,
    };
    for (name, model) in [
        ("op-count", &OpCountCost as &dyn CostModel),
        ("cycle-cost", &cycles),
    ] {
        let xf = fast.extract(&roots_f, model).unwrap();
        let xr = fast.extract_reference(&roots_f, model).unwrap();
        assert_eq!(
            xf, xr,
            "{ctx}: {name} extraction diverges from its reference"
        );
        let xs = slow.extract(&roots_s, model).unwrap();
        assert_eq!(xf, xs, "{ctx}: {name} extraction diverges between engines");
    }
    for seed in [7u64, 0xfeed] {
        let xf = fast.extract_seeded(&roots_f, seed).unwrap();
        let xr = fast.extract_seeded_reference(&roots_f, seed).unwrap();
        assert_eq!(
            xf, xr,
            "{ctx}: seeded ({seed:#x}) extraction diverges from its reference"
        );
        let xs = slow.extract_seeded(&roots_s, seed).unwrap();
        assert_eq!(
            xf, xs,
            "{ctx}: seeded ({seed:#x}) extraction diverges between engines"
        );
    }
}

/// The indexed match engine is a pure optimization: on every rule graph
/// this harness exercises — each rule in isolation on its minimal graph,
/// the full exact tier, the asic tier with its whole-graph sweeps, and
/// budget-clipped runs — it must reach bit-identical extractions to the
/// rescan-everything reference loop.
#[test]
fn indexed_engine_matches_reference_engine_on_every_rule_graph() {
    let all_rules = [
        Rule::AddCommute,
        Rule::SubToAddNeg,
        Rule::NegNeg,
        Rule::MulOne,
        Rule::MulPow2,
        Rule::ShiftFuse,
        Rule::AddZero,
        Rule::CsdDecompose {
            frac_bits: 16,
            recoding: Recoding::Csd,
        },
        Rule::CollectLinear,
        Rule::McmShare {
            frac_bits: 16,
            recoding: Recoding::Csd,
        },
    ];
    let budget = SaturationBudget::default();
    for rule in all_rules {
        let g = minimal_graph_for(&rule);
        assert_engines_agree(
            &format!("single rule {}", rule.name()),
            &g,
            &RuleSet::single(rule),
            &budget,
        );
        // The same minimal graphs under the full tiers, so cross-rule
        // interaction (and the asic tier's whole-graph sweeps) is covered.
        assert_engines_agree(
            &format!("exact tier on {} graph", rule.name()),
            &g,
            &RuleSet::exact(),
            &budget,
        );
        assert_engines_agree(
            &format!("asic tier on {} graph", rule.name()),
            &g,
            &RuleSet::asic(16, Recoding::Csd),
            &budget,
        );
    }

    let mut rng = SplitMix64::new(0x6469_6666);
    for case in 0..24 {
        let g = random_mixed_graph(&mut rng);
        assert_engines_agree(&format!("mixed #{case}"), &g, &RuleSet::exact(), &budget);
        // Budget-clipped runs must stop at the same point too: the
        // engines' insertion sequences are identical, so a mid-sweep
        // node-budget cut lands on the same e-graph.
        let clipped = SaturationBudget {
            max_enodes: rng.next_below(120) as usize + 8,
            max_iterations: rng.next_below(4) as usize + 1,
        };
        assert_engines_agree(
            &format!("mixed #{case} clipped {clipped:?}"),
            &g,
            &RuleSet::asic(16, Recoding::Csd),
            &clipped,
        );
    }
    for case in 0..8 {
        let seed = rng.next_below(10_000);
        let sys = random_stable(1, 1, 2, 0.3, seed);
        let g = build::from_state_space(&sys).unwrap();
        assert_engines_agree(&format!("filter #{case}"), &g, &RuleSet::exact(), &budget);
        let u = build::from_unfolded(&unfold(&sys, 2).unwrap()).unwrap();
        assert_engines_agree(
            &format!("unfolded filter #{case}"),
            &u,
            &RuleSet::asic(12, Recoding::Csd),
            &SaturationBudget {
                max_enodes: 20_000,
                max_iterations: 3,
            },
        );
    }
    // Larger filters, where the worklist does real work: unfolded designs
    // with six to eight states under the asic tier, cut by the e-node
    // budget in the middle of a later sweep, so the second and third
    // sweeps match only the classes the rebuilds touched.
    let clipped = SaturationBudget {
        max_enodes: 2_000,
        max_iterations: 4,
    };
    let rules = RuleSet::asic(12, Recoding::Csd);
    for (seed, p, q, r, i) in [(11, 1, 1, 6, 1), (12, 2, 1, 7, 2), (13, 1, 2, 8, 2)] {
        let sys = random_stable(p, q, r, 0.4, seed);
        let g = build::from_unfolded(&unfold(&sys, i).unwrap()).unwrap();
        let ctx = format!("seed {seed} (P={p} Q={q} R={r}, i={i})");
        let (mut eg, _) = EGraph::from_dfg(&g).unwrap();
        let stats = eg.saturate(&rules, &clipped);
        assert_eq!(stats.stop, StopReason::NodeBudget, "{ctx}: {stats}");
        assert!(stats.iterations >= 2, "{ctx}: {stats}");
        assert_engines_agree(&ctx, &g, &rules, &clipped);
    }
}

/// Saturation statistics are deterministic: the same graph and rule set
/// always reports the same iteration/e-node/class counts, and the same
/// seed always extracts the same representative.
#[test]
fn saturation_and_extraction_are_deterministic() {
    let mut rng_a = SplitMix64::new(0x6465_7431);
    let mut rng_b = SplitMix64::new(0x6465_7431);
    for _ in 0..8 {
        let ga = random_mixed_graph(&mut rng_a);
        let gb = random_mixed_graph(&mut rng_b);
        assert_eq!(format!("{ga:?}"), format!("{gb:?}"), "generator drift");

        let (mut ea, ra) = EGraph::from_dfg(&ga).unwrap();
        let (mut eb, rb) = EGraph::from_dfg(&gb).unwrap();
        let sa = ea.saturate(&RuleSet::exact(), &SaturationBudget::default());
        let sb = eb.saturate(&RuleSet::exact(), &SaturationBudget::default());
        assert_eq!(sa, sb);
        let xa = ea.extract_seeded(&ra, 0xabcd).unwrap();
        let xb = eb.extract_seeded(&rb, 0xabcd).unwrap();
        assert_eq!(xa, xb, "same seed must extract the same representative");
    }
}
