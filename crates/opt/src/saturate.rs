//! Equality-saturation strategy: the §5 ASIC script as a *search*.
//!
//! The fixed script commits to one realization (unfold → generalized
//! Horner → MCM). This strategy instead loads the script's intermediate
//! graphs into an e-graph — the plain unfolded multiply-accumulate form,
//! the Horner restructuring and the MCM shift-add network all become
//! representatives of the same e-classes — saturates with the rewrite-rule
//! library, and extracts the minimum-energy representative under the
//! unified [`CostModel`](lintra_dfg::CostModel) at the script's operating
//! voltage.
//!
//! By construction the result is **never worse than the fixed script**:
//! the script's own output is one of the candidates, and the final
//! accounting takes the cheaper of the extracted graph and the script
//! graph. Budget exhaustion degrades gracefully — the best-so-far
//! extraction is used and a [`DiagCode::SaturationBudget`] diagnostic
//! (service code `RES-SATURATION-BUDGET`) records the shortfall — unless
//! [`SaturateConfig::require_saturation`] demands a fixpoint.

use crate::asic::{script_with_graphs, AsicConfig, ScriptArtifacts};
use crate::{DiagCode, Diagnostic, OptError, TechConfig};
use lintra_dfg::build;
use lintra_egraph::{EGraph, EgraphError, RuleSet, SaturationBudget, SaturationStats};
use lintra_engine::SweepCache;
use lintra_linsys::StateSpace;
use lintra_power::EnergyBreakdown;

/// Configuration of the equality-saturation strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaturateConfig {
    /// The underlying §5 script configuration (quantization, recoding,
    /// unfolding cap, timing).
    pub asic: AsicConfig,
    /// Node/iteration budgets for the saturation loop.
    pub budget: SaturationBudget,
    /// When `true`, budget exhaustion is a hard error
    /// ([`OptError::Egraph`] with [`EgraphError::Budget`]) instead of a
    /// best-so-far extraction plus diagnostic.
    pub require_saturation: bool,
}

impl Default for SaturateConfig {
    fn default() -> Self {
        SaturateConfig {
            asic: AsicConfig::default(),
            // Tighter than the e-graph's own default: the script injection
            // already seeds the optimal candidates, so a few sweeps of the
            // rule library suffice and keep the strategy interactive.
            budget: SaturationBudget {
                max_enodes: 50_000,
                max_iterations: 3,
            },
            require_saturation: false,
        }
    }
}

impl SaturateConfig {
    /// A configuration whose budget is exhausted immediately — the
    /// fault-injection probe for the `RES-SATURATION-BUDGET` path.
    pub fn tiny_budget() -> SaturateConfig {
        SaturateConfig {
            budget: SaturationBudget {
                max_enodes: 1,
                max_iterations: 1,
            },
            ..SaturateConfig::default()
        }
    }
}

/// Result of the equality-saturation strategy on one design.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturateResult {
    /// Unfolding factor (inherited from the script; batch = `unfolding+1`).
    pub unfolding: u32,
    /// Operating voltage of the transformed design.
    pub voltage: f64,
    /// Energy per sample of the original datapath at the initial voltage.
    pub initial: EnergyBreakdown,
    /// Energy per sample of the winning realization (extracted graph or
    /// script graph, whichever is cheaper) at the reduced voltage.
    pub optimized: EnergyBreakdown,
    /// Energy per sample of the fixed §5 script's realization — the
    /// baseline the search must not lose to.
    pub script: EnergyBreakdown,
    /// Saturation statistics (budget usage, stop reason).
    pub stats: SaturationStats,
    /// Non-fatal warnings from the script and the saturation loop.
    pub diagnostics: Vec<Diagnostic>,
}

impl SaturateResult {
    /// Improvement factor over the original datapath.
    pub fn improvement(&self) -> f64 {
        self.initial.total_j() / self.optimized.total_j()
    }

    /// How the search compares to the fixed script (`≥ 1` by
    /// construction).
    pub fn vs_script(&self) -> f64 {
        self.script.total_j() / self.optimized.total_j()
    }
}

/// Runs the equality-saturation strategy.
///
/// # Errors
///
/// Everything [`crate::asic::optimize`] can return, plus
/// [`OptError::Egraph`] when the e-graph rejects a graph or — only with
/// [`SaturateConfig::require_saturation`] — when the budget runs out.
pub fn optimize(
    sys: &StateSpace,
    tech: &TechConfig,
    cfg: &SaturateConfig,
) -> Result<SaturateResult, OptError> {
    optimize_cached(sys, tech, cfg, &mut SweepCache::new(sys))
}

/// [`optimize`] with the Horner restructurings *and* the unfolded
/// e-graph seed served by a caller-owned [`SweepCache`], mirroring
/// [`crate::asic::optimize_cached`]. The unfold reuses the power chain
/// the Horner search just built, so the seed costs only the coupling
/// blocks the search did not touch.
///
/// # Errors
///
/// Identical to [`optimize`].
pub fn optimize_cached(
    sys: &StateSpace,
    tech: &TechConfig,
    cfg: &SaturateConfig,
    cache: &mut SweepCache,
) -> Result<SaturateResult, OptError> {
    let ScriptArtifacts {
        result: script,
        horner_dfg,
        shifted,
    } = script_with_graphs(sys, tech, &cfg.asic, cache)?;
    let mut diagnostics = script.diagnostics.clone();

    // Seed the e-graph with every realization the script flow knows:
    // the Horner form, the plain unfolded multiply-accumulate form, and
    // the §5 shift-add network. Rooting them in the same e-classes makes
    // each a candidate and lets the rule library recombine them. Each
    // graph is dropped once it is in the e-graph, before saturation.
    let (mut eg, roots) = EGraph::from_dfg(&horner_dfg)?;
    drop(horner_dfg);
    let unfolded = build::from_unfolded(&cache.unfolded(script.unfolding)?)?;
    let unfolded_roots = eg.add_dfg(&unfolded)?;
    drop(unfolded);
    eg.union_roots(&roots, &unfolded_roots)?;
    let script_roots = eg.add_dfg(&shifted)?;
    drop(shifted);
    eg.union_roots(&roots, &script_roots)?;

    let rules = RuleSet::asic(cfg.asic.frac_bits, cfg.asic.recoding);
    let stats = eg.saturate(&rules, &cfg.budget);
    if !stats.saturated() {
        if cfg.require_saturation {
            return Err(OptError::Egraph(EgraphError::Budget {
                iterations: stats.iterations,
                enodes: stats.enodes,
            }));
        }
        diagnostics.push(Diagnostic {
            code: DiagCode::SaturationBudget,
            message: format!(
                "RES-SATURATION-BUDGET: equality saturation stopped early ({stats}); \
                 extraction uses the best representations found so far"
            ),
        });
    }

    // Extract the minimum-energy representative at the script's voltage
    // and price it with the script's own per-sample accounting.
    let model = tech.energy_cost(script.voltage);
    let extraction = eg.extract(&roots, &model)?;
    let n = script.unfolding as u64 + 1;
    let (p, q, r) = sys.dims();
    let per = |x: u64| -> u64 { x.div_ceil(n) };
    let oc = extraction.dfg.op_counts();
    let extracted = model.breakdown(&lintra_dfg::OpCounts {
        adds: per(oc.adds),
        muls: per(oc.muls),
        shifts: per(oc.shifts),
        delays: per(r as u64) + (p + q) as u64,
        negs: 0,
    });

    // Never worse than the script: keep whichever realization is cheaper.
    let optimized = if extracted.total_j() <= script.optimized.total_j() {
        extracted
    } else {
        script.optimized
    };

    Ok(SaturateResult {
        unfolding: script.unfolding,
        voltage: script.voltage,
        initial: script.initial,
        optimized,
        script: script.optimized,
        stats,
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintra_suite::{by_name, suite};

    fn tech() -> TechConfig {
        TechConfig::dac96(3.3)
    }

    #[test]
    fn never_worse_than_the_fixed_script() {
        let cfg = SaturateConfig::default();
        for d in suite() {
            let r = optimize(&d.system, &tech(), &cfg).unwrap();
            assert!(
                r.vs_script() >= 1.0 - 1e-12,
                "{}: egraph {} vs script {}",
                d.name,
                r.optimized.total_j(),
                r.script.total_j()
            );
            assert!(r.improvement() > 1.0, "{}", d.name);
        }
    }

    #[test]
    fn inherits_the_script_operating_point() {
        let d = by_name("iir5").unwrap();
        let script = crate::asic::optimize(&d.system, &tech(), &AsicConfig::default()).unwrap();
        let sat = optimize(&d.system, &tech(), &SaturateConfig::default()).unwrap();
        assert_eq!(sat.unfolding, script.unfolding);
        assert_eq!(sat.voltage, script.voltage);
        assert_eq!(sat.initial, script.initial);
        assert_eq!(sat.script, script.optimized);
    }

    #[test]
    fn tiny_budget_degrades_with_diagnostic_not_error() {
        let d = by_name("dist").unwrap();
        let r = optimize(&d.system, &tech(), &SaturateConfig::tiny_budget()).unwrap();
        assert!(!r.stats.saturated());
        let diag = r
            .diagnostics
            .iter()
            .find(|di| di.code == DiagCode::SaturationBudget)
            .expect("budget diagnostic");
        assert!(diag.message.contains("RES-SATURATION-BUDGET"), "{diag}");
        // Best-so-far is still never worse than the script.
        assert!(r.vs_script() >= 1.0 - 1e-12);
    }

    #[test]
    fn require_saturation_turns_budget_into_an_error() {
        let d = by_name("dist").unwrap();
        let cfg = SaturateConfig {
            require_saturation: true,
            ..SaturateConfig::tiny_budget()
        };
        let err = optimize(&d.system, &tech(), &cfg).unwrap_err();
        assert!(matches!(err, OptError::Egraph(EgraphError::Budget { .. })));
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn a_thread_whose_last_egraph_was_the_largest_gives_the_next_design_the_same_result() {
        // Each closure runs on a thread of its own, so the first iir5
        // runs on the tables steam's 5.0 V e-graph (the suite's largest)
        // left behind, and the second on tables of its own.
        let iir5_after = |prior: Option<&'static str>| {
            std::thread::spawn(move || {
                let tech = TechConfig::dac96(5.0);
                let cfg = SaturateConfig::default();
                let before = prior.map(|name| {
                    let d = by_name(name).unwrap();
                    optimize(&d.system, &tech, &cfg).unwrap().stats.enodes
                });
                let d = by_name("iir5").unwrap();
                (before, optimize(&d.system, &tech, &cfg).unwrap())
            })
            .join()
            .unwrap()
        };
        let (steam_enodes, recycled) = iir5_after(Some("steam"));
        let (_, fresh) = iir5_after(None);
        assert!(
            steam_enodes.unwrap() > fresh.stats.enodes,
            "steam {steam_enodes:?} vs iir5 {} e-nodes",
            fresh.stats.enodes
        );
        assert_eq!(recycled, fresh);
    }

    #[test]
    fn warm_cache_path_is_bit_identical_to_cold() {
        let cfg = SaturateConfig::default();
        for name in ["dist", "iir5"] {
            let d = by_name(name).unwrap();
            let cold = optimize(&d.system, &tech(), &cfg).unwrap();
            let mut cache = SweepCache::new(&d.system);
            crate::asic::optimize_cached(&d.system, &tech(), &cfg.asic, &mut cache).unwrap();
            let warm = optimize_cached(&d.system, &tech(), &cfg, &mut cache).unwrap();
            assert_eq!(warm, cold, "{name}");
        }
    }
}
