//! The rewrite-rule library.
//!
//! Rules come in two tiers. **Bit-exact** rules preserve every `f64` bit
//! of every output (up to the `±0.0` identification the property harness
//! applies), so saturation with [`RuleSet::exact`] is a semantics-preserving
//! search. **Quantizing / reassociating** rules (CSD decomposition,
//! shared-MCM synthesis, shift-add collection) change rounding — they are
//! only sound under the approximate-equivalence contract the §5 ASIC
//! script already accepts, and live in [`RuleSet::asic`].

use crate::fx::FxHashMap;
use crate::graph::{EGraph, ENode, Id, KIND_COUNT};
use lintra_mcm::{quantize, synthesize, McmSolution, OutputRef, Recoding, Source, Term};

/// Per-saturation scratch state for the rules, so that applying one
/// allocates nothing once the buffers have grown.
///
/// Rules read one level down (a node plus the nodes of one child class)
/// while mutating the e-graph, so each arm snapshots the child's nodes
/// into `left` first.
///
/// `csd_plans` memoizes [`Rule::CsdDecompose`]'s single-constant
/// syntheses by recoding and quantized constant: unfolded designs carry
/// the same coefficient on every sample, and the arm revisits each
/// multiplier on every sweep. `mcm_plans` memoizes [`Rule::McmShare`]'s
/// shared plans by constant set across the sweeps of one run (unfolded
/// designs repeat the same constant groups every sample); `muls` and
/// `mcm_key` are that sweep's grouping and lookup buffers. `exprs` is
/// the [`CsdEmitter`]'s per-plan state.
#[derive(Debug, Default)]
pub(crate) struct RuleScratch {
    left: Vec<ENode>,
    csd_plans: CsdPlanMemo,
    mcm_plans: McmPlanMemo,
    muls: Vec<(Id, i64, Id)>,
    mcm_key: (Recoding, Vec<i64>),
    exprs: Vec<ExprNode>,
}

/// Snapshots class `c`'s nodes into `buf` and returns them as a slice the
/// caller can iterate while freely mutating the e-graph.
fn snap<'s>(buf: &'s mut Vec<ENode>, eg: &EGraph, c: Id) -> &'s [ENode] {
    buf.clear();
    buf.extend(eg.class_nodes(c).copied());
    buf
}

/// One rewrite rule over the [`ENode`] language.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// `a + b → b + a` (bit-exact).
    AddCommute,
    /// `a − b ↔ a + (−b)` (bit-exact; IEEE negation is a sign flip).
    SubToAddNeg,
    /// `−(−x) → x` (bit-exact).
    NegNeg,
    /// `1·x → x`, `(−1)·x → −x` (bit-exact).
    MulOne,
    /// `(±2^k)·x ↔ ±(x ≪ k)` (bit-exact: both sides multiply by the same
    /// power of two).
    MulPow2,
    /// `(x ≪ j) ≪ k → x ≪ (j+k)` and `x ≪ 0 → x` (bit-exact barring
    /// overflow/subnormal traversal of the intermediate, which validated
    /// filter graphs with small shifts never hit).
    ShiftFuse,
    /// `x + 0 → x` (bit-exact up to `−0.0 + 0.0 = +0.0`).
    AddZero,
    /// `c·x → shift-add network of round(c·2^w)` — the §5 CSD/MCM
    /// decomposition (quantizing; reuses `lintra_mcm` recoding and carries
    /// the same `round(c·2^w)/2^w` semantics as the MCM pass).
    CsdDecompose {
        /// Fractional bits of the fixed-point quantization.
        frac_bits: u32,
        /// Digit recoding used by the synthesis.
        recoding: Recoding,
    },
    /// Shift-add collection — the MCM-sharing bridge. Any network of
    /// shifts, negations, additions and subtractions over a *single* base
    /// e-class computes a linear function `a·base`; this rule unions every
    /// such class with the canonical `MulConst(a, base)` hub. Coefficients
    /// are accumulated in exact dyadic-rational arithmetic (an `i128`
    /// mantissa and a binary exponent; overflow bails instead of
    /// rounding), so structurally different realizations of the same
    /// multiple — the per-constant CSD chains grown by
    /// [`Rule::CsdDecompose`] and the cross-constant shared networks the
    /// §5 MCM pass emits, under *any* grouping — all collapse onto the
    /// bit-identical hub e-node. That collapse is what makes the fixed
    /// script's shift-add graph *derivable* rather than merely
    /// injectable. (Reassociates rounding: the coefficient is exact, but
    /// the chain's intermediate sums round differently from one fused
    /// multiply.)
    ///
    /// Applied once per saturation sweep as a whole-graph analysis, not
    /// per e-node — see [`RuleSet`]'s sweep hook.
    CollectLinear,
    /// Shared-MCM synthesis — the §5 pass replayed inside the e-graph.
    /// Groups every multiplier e-node by its base e-class, synthesizes one
    /// plan per group over the sorted, deduplicated quantized constants
    /// (the procedure `expand_multiplications` runs over predecessor-node
    /// groups), and emits the plan's shift-add network, unioning each
    /// multiplier class with its network output — so cross-constant
    /// sharing is in the space extraction searches. Grouping by e-class
    /// is *coarser* than the pass's grouping by predecessor node
    /// (hashconsing merges structurally identical predecessors), so the
    /// derived networks need not match the script's chains node-for-node;
    /// [`Rule::CollectLinear`] is what proves the differently-grouped
    /// realizations equal. Group size is capped — saturated e-graphs pile
    /// hub constants onto merged base classes far beyond any source
    /// graph's group, and synthesizing those buys nothing. (Quantizing,
    /// like [`Rule::CsdDecompose`].)
    ///
    /// Applied once per saturation sweep as a whole-graph analysis — see
    /// [`RuleSet`]'s sweep hook.
    McmShare {
        /// Fractional bits of the fixed-point quantization.
        frac_bits: u32,
        /// Digit recoding used by the synthesis.
        recoding: Recoding,
    },
}

impl Rule {
    /// Rule name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::AddCommute => "add-commute",
            Rule::SubToAddNeg => "sub-to-add-neg",
            Rule::NegNeg => "neg-neg",
            Rule::MulOne => "mul-one",
            Rule::MulPow2 => "mul-pow2",
            Rule::ShiftFuse => "shift-fuse",
            Rule::AddZero => "add-zero",
            Rule::CsdDecompose { .. } => "csd-decompose",
            Rule::CollectLinear => "collect-linear",
            Rule::McmShare { .. } => "mcm-share",
        }
    }

    /// `true` when the rule preserves every output bit (the property
    /// harness only saturates with bit-exact rules).
    pub fn bit_exact(&self) -> bool {
        !matches!(
            self,
            Rule::CsdDecompose { .. } | Rule::CollectLinear | Rule::McmShare { .. }
        )
    }

    /// Bitmask over [`ENode::kind_ordinal`] values this rule can fire on —
    /// the op-kind index the saturation engine consults before dispatching
    /// a `(class, node)` pair to the rule. Whole-graph sweep rules return
    /// zero: they enter through [`RuleSet`]'s sweep hook, never per-node.
    pub(crate) fn kind_mask(&self) -> u16 {
        const ADD: u16 = 1 << 3;
        const SUB: u16 = 1 << 4;
        const MUL: u16 = 1 << 5;
        const SHIFT: u16 = 1 << 6;
        const NEG: u16 = 1 << 7;
        match self {
            Rule::AddCommute | Rule::AddZero => ADD,
            Rule::SubToAddNeg => SUB | ADD,
            Rule::NegNeg => NEG,
            Rule::MulOne | Rule::CsdDecompose { .. } => MUL,
            Rule::MulPow2 => MUL | SHIFT,
            Rule::ShiftFuse => SHIFT,
            Rule::CollectLinear | Rule::McmShare { .. } => 0,
        }
    }

    /// Applies the rule to one `(class, node)` pair, performing any unions
    /// directly. Returns `true` if the e-graph changed (new e-nodes or a
    /// real merge). Callers sweep a snapshot, so `node` may predate recent
    /// merges; everything here re-canonicalizes through the union-find.
    pub(crate) fn apply(
        &self,
        eg: &mut EGraph,
        class: Id,
        node: &ENode,
        scratch: &mut RuleScratch,
    ) -> bool {
        let before = eg.len();
        let mut merged = false;
        match (self, *node) {
            (Rule::AddCommute, ENode::Add(a, b)) => {
                let n = eg.add(ENode::Add(b, a));
                merged = eg.union(class, n);
            }
            (Rule::SubToAddNeg, ENode::Sub(a, b)) => {
                let nb = eg.add(ENode::Neg(b));
                let n = eg.add(ENode::Add(a, nb));
                merged = eg.union(class, n);
            }
            (Rule::SubToAddNeg, ENode::Add(a, b)) => {
                // Reverse direction: a + (−c) → a − c, so extraction can
                // pick the single-op form.
                for &n in snap(&mut scratch.left, eg, b) {
                    if let ENode::Neg(m) = n {
                        let s = eg.add(ENode::Sub(a, m));
                        merged |= eg.union(class, s);
                    }
                }
            }
            (Rule::NegNeg, ENode::Neg(a)) => {
                for &n in snap(&mut scratch.left, eg, a) {
                    if let ENode::Neg(m) = n {
                        merged |= eg.union(class, m);
                    }
                }
            }
            (Rule::MulOne, ENode::MulConst(bits, a)) => {
                let c = f64::from_bits(bits);
                if c == 1.0 {
                    merged = eg.union(class, a);
                } else if c == -1.0 {
                    let n = eg.add(ENode::Neg(a));
                    merged = eg.union(class, n);
                }
            }
            (Rule::MulPow2, ENode::MulConst(bits, a)) => {
                let c = f64::from_bits(bits);
                if let Some(k) = pow2_exponent(c.abs()) {
                    let shifted = eg.add(ENode::Shift(k, a));
                    let n = if c < 0.0 {
                        eg.add(ENode::Neg(shifted))
                    } else {
                        shifted
                    };
                    merged = eg.union(class, n);
                }
            }
            (Rule::MulPow2, ENode::Shift(k, a)) => {
                let c = f64::from(k).exp2();
                if c.is_finite() && c > 0.0 {
                    let n = eg.add(ENode::MulConst(c.to_bits(), a));
                    merged = eg.union(class, n);
                }
            }
            (Rule::ShiftFuse, ENode::Shift(j, a)) => {
                if j == 0 {
                    merged = eg.union(class, a);
                }
                for &n in snap(&mut scratch.left, eg, a) {
                    if let ENode::Shift(k, b) = n {
                        if let Some(s) = j.checked_add(k) {
                            let fused = eg.add(ENode::Shift(s, b));
                            merged |= eg.union(class, fused);
                        }
                    }
                }
            }
            (Rule::AddZero, ENode::Add(a, b)) => {
                if has_zero(eg, b) {
                    merged |= eg.union(class, a);
                }
                if has_zero(eg, a) {
                    merged |= eg.union(class, b);
                }
            }
            (
                Rule::CsdDecompose {
                    frac_bits,
                    recoding,
                },
                ENode::MulConst(bits, a),
            ) => {
                let c = f64::from_bits(bits);
                // ±2^k multipliers that survive quantization exactly are
                // covered by MulOne/MulPow2; decomposing them would only
                // re-derive the same shift. A power of two that the
                // script's fixed-point grid *moves* (rounds to a different
                // value, or to zero) must still be decomposed, or the
                // quantized script realization stays unreachable.
                let dequant = quantize(c, *frac_bits) as f64 * (-f64::from(*frac_bits)).exp2();
                if c.is_finite() && !(pow2_exponent(c.abs()).is_some() && dequant == c) {
                    if let Some(n) = csd_network(eg, a, c, *frac_bits, *recoding, scratch) {
                        merged = eg.union(class, n);
                    }
                }
            }
            _ => {}
        }
        merged || eg.len() > before
    }
}

/// An exact dyadic rational `num·2^exp`, the coefficient domain of the
/// linear-form analysis. Chain coefficients are sums of signed powers of
/// two; tracking them as an `i128` mantissa and a binary exponent keeps
/// the accumulation *exact* at any depth — structurally different chains
/// computing the same multiple land on the identical coefficient, which
/// is the whole point of the hub. Overflow (or a coefficient too wide for
/// `f64`) makes the analysis *bail* rather than round: a missed hub is
/// only a missed merge, never a wrong one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Dyadic {
    num: i128,
    exp: i32,
}

impl Dyadic {
    const ONE: Dyadic = Dyadic { num: 1, exp: 0 };

    /// Canonical form: odd mantissa (or `0·2^0`), so equality of values is
    /// equality of representations.
    fn normalized(num: i128, exp: i32) -> Option<Dyadic> {
        if num == 0 {
            return Some(Dyadic { num: 0, exp: 0 });
        }
        let tz = i32::try_from(num.trailing_zeros()).ok()?;
        Some(Dyadic {
            num: num >> tz,
            exp: exp.checked_add(tz)?,
        })
    }

    fn shifted(self, k: i32) -> Option<Dyadic> {
        Some(Dyadic {
            num: self.num,
            exp: self.exp.checked_add(k)?,
        })
    }

    fn neg(self) -> Option<Dyadic> {
        Some(Dyadic {
            num: self.num.checked_neg()?,
            exp: self.exp,
        })
    }

    fn add(self, other: Dyadic) -> Option<Dyadic> {
        let (lo, hi) = if self.exp <= other.exp {
            (self, other)
        } else {
            (other, self)
        };
        let up = u32::try_from(hi.exp - lo.exp).ok()?;
        if up > 126 {
            return None;
        }
        let scaled = hi.num.checked_mul(1i128.checked_shl(up)?)?;
        Dyadic::normalized(lo.num.checked_add(scaled)?, lo.exp)
    }

    fn sub(self, other: Dyadic) -> Option<Dyadic> {
        self.add(other.neg()?)
    }

    /// The coefficient as an `f64`, only when the conversion is *exact*
    /// (mantissa within 53 bits, exponent in normal range).
    fn to_f64_exact(self) -> Option<f64> {
        if self.num == 0 {
            return Some(0.0);
        }
        let num = i64::try_from(self.num).ok()?;
        if num.unsigned_abs() > (1u64 << 53) {
            return None;
        }
        let v = num as f64 * f64::from(self.exp).exp2();
        if v.is_normal() {
            Some(v)
        } else {
            None
        }
    }
}

/// What the collect-linear analysis knows about one class.
#[derive(Debug, Clone, Copy)]
enum Linear {
    /// Not reached yet.
    Unvisited,
    /// On the current descent path: a cycle, read as the opaque `1·itself`.
    Open,
    /// The class computes `a·base`.
    Form(Dyadic, Id),
}

/// One [`Rule::CollectLinear`] pass over the whole e-graph: a bottom-up
/// linear-form analysis (one memo slot per class, so the pass is linear
/// in the number of e-nodes), then one `MulConst` hub per discovered
/// `a·base` form. Analysis and mutation are separated so the memo never
/// observes a half-updated union-find.
fn collect_linear_sweep(eg: &mut EGraph) -> bool {
    let before = eg.len();
    let mut memo = vec![Linear::Unvisited; eg.len()];
    let mut plans: Vec<(Id, u64, Id)> = Vec::new();
    let mut seen: Vec<(u64, Id)> = Vec::new();
    for (c, nodes) in eg.live_classes() {
        seen.clear();
        for node in nodes {
            let Some((d, b)) = linear_of_node(eg, node, &mut memo) else {
                continue;
            };
            let Some(a) = d.to_f64_exact() else {
                continue;
            };
            let b = eg.find(b);
            if a == 1.0 && c == b {
                continue; // trivial self-hub: `1·c` in class `c`
            }
            if !seen.contains(&(a.to_bits(), b)) {
                seen.push((a.to_bits(), b));
                plans.push((c, a.to_bits(), b));
            }
        }
    }
    let mut merged = false;
    for (c, bits, b) in plans {
        let hub = eg.add(ENode::MulConst(bits, b));
        merged |= eg.union(c, hub);
    }
    merged || eg.len() > before
}

/// The linear form `a·base` computed by one e-node, when the node is a
/// shift/negation/addition/subtraction whose operands share a base.
/// Returns `None` when the node mixes two bases, sits outside the
/// shift-add fragment entirely, or overflows the exact coefficient
/// arithmetic.
///
/// The descent deliberately does **not** step through `MulConst` nodes:
/// a multiplier's raw constant is not dyadic in general, so folding it
/// into the accumulation would force rounding — and rounding depends on
/// association order, which is exactly what differs between per-constant
/// CSD chains and the script's shared MCM networks. Coefficients built
/// from `1` by shifting, negation, and addition stay in [`Dyadic`] and
/// accumulate exactly, so structurally different chains over the same
/// base land on bit-identical hub constants. (A `MulConst` node needs no
/// plan of its own anyway: the hub it would propose is itself.)
fn linear_of_node(eg: &EGraph, node: &ENode, memo: &mut [Linear]) -> Option<(Dyadic, Id)> {
    match *node {
        ENode::Shift(k, c) => {
            let (a, b) = linear_of_class(eg, c, memo);
            Some((a.shifted(k)?, b))
        }
        ENode::Neg(c) => {
            let (a, b) = linear_of_class(eg, c, memo);
            Some((a.neg()?, b))
        }
        ENode::Add(c1, c2) => {
            let (a1, b1) = linear_of_class(eg, c1, memo);
            let (a2, b2) = linear_of_class(eg, c2, memo);
            if b1 == b2 {
                Some((a1.add(a2)?, b1))
            } else {
                None
            }
        }
        ENode::Sub(c1, c2) => {
            let (a1, b1) = linear_of_class(eg, c1, memo);
            let (a2, b2) = linear_of_class(eg, c2, memo);
            if b1 == b2 {
                Some((a1.sub(a2)?, b1))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// A class's linear form: the first representative that decomposes, else
/// `1·itself` (leaves, delays, mixed-base sums, overflowed coefficients,
/// and classes on the current descent path — cycles act as opaque bases).
fn linear_of_class(eg: &EGraph, c: Id, memo: &mut [Linear]) -> (Dyadic, Id) {
    let root = eg.find(c);
    let slot = root.0 as usize;
    match memo[slot] {
        Linear::Form(a, b) => return (a, b),
        Linear::Open => return (Dyadic::ONE, root),
        Linear::Unvisited => {}
    }
    memo[slot] = Linear::Open;
    let mut found = None;
    for n in eg.class_nodes(root) {
        if let Some(r) = linear_of_node(eg, n, memo) {
            found = Some(r);
            break;
        }
    }
    let (a, b) = found.unwrap_or((Dyadic::ONE, root));
    memo[slot] = Linear::Form(a, b);
    (a, b)
}

/// `true` when the class contains a literal zero of either sign.
fn has_zero(eg: &EGraph, a: Id) -> bool {
    eg.class_nodes(a)
        .any(|n| matches!(n, ENode::Const(bits) if f64::from_bits(*bits) == 0.0))
}

/// `Some(k)` when `a == 2^k` exactly (with `a > 0` finite).
fn pow2_exponent(a: f64) -> Option<i32> {
    if !a.is_finite() || a <= 0.0 {
        return None;
    }
    let k = a.log2().round();
    if (-1074.0..=1023.0).contains(&k) && k.exp2() == a {
        Some(k as i32)
    } else {
        None
    }
}

/// Emits the shift-add network for `round(c·2^w)·x ≫ w` into the e-graph,
/// mirroring the MCM pass's `GroupEmitter` chain exactly (so an injected
/// §5 graph hashconses onto the same e-nodes). The single-constant plan
/// comes from `scratch`'s memo, synthesized on first use. Returns `None`
/// when the synthesized plan is unevaluable (defensive; a correct plan
/// never is).
fn csd_network(
    eg: &mut EGraph,
    base: Id,
    c: f64,
    frac_bits: u32,
    recoding: Recoding,
    scratch: &mut RuleScratch,
) -> Option<Id> {
    let q = quantize(c, frac_bits);
    if q == 0 {
        return Some(eg.add(ENode::Const(0.0f64.to_bits())));
    }
    let plan = scratch
        .csd_plans
        .entry((recoding, q))
        .or_insert_with(|| synthesize(&[q], recoding));
    CsdEmitter::new(plan, &mut scratch.exprs).output_node(eg, base, 0, frac_bits)
}

/// Largest constant group [`mcm_share_sweep`] synthesizes a shared plan
/// for. It sits above every group the §5 script's MCM pass builds on the
/// suite (distinct quantized constants per driven variable): at most 58
/// at the Table 4 unfolding (3.3 V, iir12), and at the e-graph suite's
/// 5.0 V unfolding 103 (iir12), 100 (dist), 96 (iir6) and 94 (iir5). The
/// groups this sweep merges by base class differ: at 3.3 V chemical
/// builds one of 198, which the cap skips, next to dist's 83, iir6's 66
/// and iir5's 64. The cap keeps such hub-inflated groups from stalling a
/// sweep.
const MAX_GROUP_CONSTS: usize = 128;

/// One [`Rule::McmShare`] pass over the whole e-graph: the §5 MCM pass's
/// group-synthesize-emit procedure, with e-classes standing in for
/// predecessor nodes. Constants are sorted and deduplicated per group
/// before synthesis — the same canonical order `expand_multiplications`
/// uses — so the plan, and therefore the emitted network *structure*, is
/// identical to the script's, and the script graph's chains hashcons onto
/// the derived ones.
fn mcm_share_sweep(
    eg: &mut EGraph,
    frac_bits: u32,
    recoding: Recoding,
    scratch: &mut RuleScratch,
) -> bool {
    let before = eg.len();
    let RuleScratch {
        mcm_plans,
        muls,
        mcm_key,
        exprs,
        ..
    } = scratch;
    // Analysis phase (read-only): every finite multiplier as (canonical
    // base class, quantized constant, its class), grouped by base with a
    // stable sort, so each group keeps the live-class order.
    muls.clear();
    for (c, nodes) in eg.live_classes() {
        for node in nodes {
            if let ENode::MulConst(bits, b) = *node {
                let v = f64::from_bits(bits);
                if v.is_finite() {
                    muls.push((eg.find(b), quantize(v, frac_bits), c));
                }
            }
        }
    }
    muls.sort_by_key(|&(base, _, _)| base);
    // Emission phase: one shared plan per group, one output per multiplier.
    let mut merged = false;
    for group in muls.chunk_by(|x, y| x.0 == y.0) {
        let Some(&(base, _, _)) = group.first() else {
            continue;
        };
        let consts = &mut mcm_key.1;
        consts.clear();
        consts.extend(group.iter().map(|&(_, q, _)| q));
        consts.sort_unstable();
        consts.dedup();
        // Perf guard: a group this wide never comes from a source graph —
        // the §5 pass's groups are bounded by the state dimension times
        // the unfolding depth. Oversized groups appear only once
        // saturation-created hubs pile extra constants onto a merged base
        // class; synthesizing a shared plan for them is superlinearly
        // expensive and derives nothing the per-group plans and the
        // collect-linear bridge haven't already.
        if consts.len() > MAX_GROUP_CONSTS {
            continue;
        }
        mcm_key.0 = recoding;
        if !mcm_plans.contains_key(mcm_key) {
            let plan = synthesize(&mcm_key.1, recoding);
            mcm_plans.insert(mcm_key.clone(), plan);
        }
        let Some(plan) = mcm_plans.get(mcm_key) else {
            continue;
        };
        let mut em = CsdEmitter::new(plan, exprs);
        for &(_, q, class) in group {
            let Ok(idx) = mcm_key.1.binary_search(&q) else {
                continue;
            };
            if let Some(out) = em.output_node(eg, base, idx, frac_bits) {
                merged |= eg.union(class, out);
            }
        }
    }
    merged || eg.len() > before
}

/// How far a [`CsdEmitter`] got with one plan expression.
#[derive(Debug, Clone, Copy)]
enum ExprNode {
    /// Not emitted yet.
    Pending,
    /// Being emitted; meeting it again means a reference cycle.
    Open,
    /// Emitted as this e-class.
    Done(Id),
}

/// E-graph twin of the MCM pass's `GroupEmitter`: lazily materialized plan
/// expressions with an in-progress guard instead of a panic on reference
/// cycles. Borrows its plan from the memo that holds it and its per-expression
/// state from the rules' scratch.
struct CsdEmitter<'a> {
    plan: &'a McmSolution,
    exprs: &'a mut Vec<ExprNode>,
}

impl<'a> CsdEmitter<'a> {
    fn new(plan: &'a McmSolution, exprs: &'a mut Vec<ExprNode>) -> CsdEmitter<'a> {
        exprs.clear();
        exprs.resize(plan.exprs.len(), ExprNode::Pending);
        CsdEmitter { plan, exprs }
    }

    /// Emits `q·base` for the plan's `idx`-th output, folding the plan
    /// shift and the binary-point restore into one `Shift(t.shift − w)` —
    /// the same combined form `GroupEmitter::output_node` produces.
    fn output_node(&mut self, eg: &mut EGraph, base: Id, idx: usize, frac_bits: u32) -> Option<Id> {
        let (_, output) = *self.plan.outputs.get(idx)?;
        match output {
            OutputRef::Zero => Some(eg.add(ENode::Const(0.0f64.to_bits()))),
            OutputRef::Scaled(t) => {
                let src = match t.source {
                    Source::Input => base,
                    Source::Expr(i) => self.expr_node(eg, base, i)?,
                };
                let total_shift = t.shift as i32 - frac_bits as i32;
                let shifted = if total_shift != 0 {
                    eg.add(ENode::Shift(total_shift, src))
                } else {
                    src
                };
                Some(if t.neg {
                    eg.add(ENode::Neg(shifted))
                } else {
                    shifted
                })
            }
        }
    }

    fn term_node(&mut self, eg: &mut EGraph, base: Id, t: &Term) -> Option<(Id, bool)> {
        let src = match t.source {
            Source::Input => base,
            Source::Expr(i) => self.expr_node(eg, base, i)?,
        };
        let shifted = if t.shift != 0 {
            eg.add(ENode::Shift(t.shift as i32, src))
        } else {
            src
        };
        Some((shifted, t.neg))
    }

    fn expr_node(&mut self, eg: &mut EGraph, base: Id, idx: usize) -> Option<Id> {
        match self.exprs[idx] {
            ExprNode::Done(n) => return Some(n),
            ExprNode::Open => return None,
            ExprNode::Pending => {}
        }
        self.exprs[idx] = ExprNode::Open;
        let plan = self.plan;
        let mut acc: Option<(Id, bool)> = None;
        for t in &plan.exprs[idx].terms {
            let (node, neg) = self.term_node(eg, base, t)?;
            acc = Some(match acc {
                None => (node, neg),
                Some((prev, prev_neg)) => match (prev_neg, neg) {
                    (false, false) => (eg.add(ENode::Add(prev, node)), false),
                    (false, true) => (eg.add(ENode::Sub(prev, node)), false),
                    (true, false) => (eg.add(ENode::Sub(node, prev)), false),
                    (true, true) => (eg.add(ENode::Add(prev, node)), true),
                },
            });
        }
        let (node, neg) = match acc {
            Some(v) => v,
            None => (eg.add(ENode::Const(0.0f64.to_bits())), false),
        };
        let node = if neg { eg.add(ENode::Neg(node)) } else { node };
        self.exprs[idx] = ExprNode::Done(node);
        Some(node)
    }
}

/// An ordered collection of rules applied together during saturation.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSet {
    rules: Vec<Rule>,
}

impl RuleSet {
    /// The bit-exact tier: safe for the property harness's bit-identical
    /// simulation check.
    pub fn exact() -> RuleSet {
        RuleSet {
            rules: vec![
                Rule::AddCommute,
                Rule::SubToAddNeg,
                Rule::NegNeg,
                Rule::MulOne,
                Rule::MulPow2,
                Rule::ShiftFuse,
                Rule::AddZero,
            ],
        }
    }

    /// The ASIC search tier: exact rules plus the quantizing CSD
    /// decomposition with the §5 script's fixed-point parameters, the
    /// shared-MCM synthesis, and the shift-add collection bridge that
    /// collapses every chain — per-constant or shared, whatever its
    /// association — onto the same exact-dyadic `MulConst` hub. Together
    /// they make the script's cross-constant networks *derived* rather
    /// than merely injectable.
    pub fn asic(frac_bits: u32, recoding: Recoding) -> RuleSet {
        let mut set = RuleSet::exact();
        set.rules.extend([
            Rule::CsdDecompose {
                frac_bits,
                recoding,
            },
            Rule::McmShare {
                frac_bits,
                recoding,
            },
            Rule::CollectLinear,
        ]);
        set
    }

    /// A single rule in isolation (rule unit tests).
    pub fn single(rule: Rule) -> RuleSet {
        RuleSet { rules: vec![rule] }
    }

    /// The rules, in application order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Rule names, in application order.
    pub fn names(&self) -> Vec<&'static str> {
        self.rules.iter().map(Rule::name).collect()
    }

    /// `true` when every rule in the set is bit-exact.
    pub fn bit_exact(&self) -> bool {
        self.rules.iter().all(Rule::bit_exact)
    }

    /// Per-ordinal rule-index masks: `masks[k]` has bit `i` set when rule
    /// `i` can fire on an e-node whose [`ENode::kind_ordinal`] is `k`.
    /// The saturation engine builds its candidate list through this index
    /// so leaf nodes (inputs, states, constants, delays) are never even
    /// enqueued and each pair only dispatches to rules that can match it.
    pub(crate) fn node_masks(&self) -> [u32; KIND_COUNT] {
        let mut masks = [0u32; KIND_COUNT];
        for (i, rule) in self.rules.iter().enumerate() {
            let km = rule.kind_mask();
            for (ord, slot) in masks.iter_mut().enumerate() {
                if km & (1 << ord) != 0 {
                    *slot |= 1 << i;
                }
            }
        }
        masks
    }

    /// Applies every rule to one pair (the reference engine's path).
    pub(crate) fn apply(
        &self,
        eg: &mut EGraph,
        class: Id,
        node: &ENode,
        scratch: &mut RuleScratch,
    ) -> bool {
        let mut changed = false;
        for rule in &self.rules {
            changed |= rule.apply(eg, class, node, scratch);
        }
        changed
    }

    /// Applies exactly the rules selected by `mask` (bit `i` = rule `i`),
    /// in rule-set order, and returns the mask of rules that changed the
    /// e-graph — the per-rule firing record the backoff scheduler tallies.
    pub(crate) fn apply_masked(
        &self,
        eg: &mut EGraph,
        class: Id,
        node: &ENode,
        mask: u32,
        scratch: &mut RuleScratch,
    ) -> u32 {
        let mut fired = 0u32;
        let mut m = mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.rules[i].apply(eg, class, node, scratch) {
                fired |= 1 << i;
            }
        }
        fired
    }

    /// Whole-graph rules, run once per saturation sweep (after the
    /// per-node pass). [`Rule::CollectLinear`] lives here because its
    /// bottom-up analysis shares one memo across the whole e-graph;
    /// [`Rule::McmShare`] because MCM grouping is inherently a property
    /// of the whole graph, not of one e-node.
    pub(crate) fn sweep(&self, eg: &mut EGraph, scratch: &mut RuleScratch) -> bool {
        let mut changed = false;
        for rule in &self.rules {
            match rule {
                Rule::CollectLinear => changed |= collect_linear_sweep(eg),
                Rule::McmShare {
                    frac_bits,
                    recoding,
                } => changed |= mcm_share_sweep(eg, *frac_bits, *recoding, scratch),
                _ => {}
            }
        }
        changed
    }
}

/// Memoized shared-MCM plans, keyed by the recoding and the sorted,
/// deduplicated quantized constant set — the full input to [`synthesize`].
type McmPlanMemo = FxHashMap<(Recoding, Vec<i64>), McmSolution>;

/// Memoized single-constant plans for [`Rule::CsdDecompose`], keyed by the
/// recoding and the quantized constant.
type CsdPlanMemo = FxHashMap<(Recoding, i64), McmSolution>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SaturationBudget;

    fn leaf(eg: &mut EGraph) -> Id {
        eg.add(ENode::Input {
            sample: 0,
            channel: 0,
        })
    }

    fn saturate_single(eg: &mut EGraph, rule: Rule) {
        let stats = eg.saturate(&RuleSet::single(rule), &SaturationBudget::default());
        assert!(stats.saturated(), "{}: {stats}", rule.name());
    }

    #[test]
    fn add_commute_merges_both_orders() {
        let mut eg = EGraph::new();
        let x = leaf(&mut eg);
        let y = eg.add(ENode::StateIn { index: 0 });
        let ab = eg.add(ENode::Add(x, y));
        let ba = eg.add(ENode::Add(y, x));
        assert_ne!(eg.find(ab), eg.find(ba));
        saturate_single(&mut eg, Rule::AddCommute);
        assert_eq!(eg.find(ab), eg.find(ba));
    }

    #[test]
    fn sub_becomes_add_of_negation_and_back() {
        let mut eg = EGraph::new();
        let x = leaf(&mut eg);
        let y = eg.add(ENode::StateIn { index: 0 });
        let sub = eg.add(ENode::Sub(x, y));
        let ny = eg.add(ENode::Neg(y));
        let add = eg.add(ENode::Add(x, ny));
        saturate_single(&mut eg, Rule::SubToAddNeg);
        assert_eq!(eg.find(sub), eg.find(add));
    }

    #[test]
    fn double_negation_cancels() {
        let mut eg = EGraph::new();
        let x = leaf(&mut eg);
        let n = eg.add(ENode::Neg(x));
        let nn = eg.add(ENode::Neg(n));
        saturate_single(&mut eg, Rule::NegNeg);
        assert_eq!(eg.find(nn), eg.find(x));
    }

    #[test]
    fn unit_multipliers_fold() {
        let mut eg = EGraph::new();
        let x = leaf(&mut eg);
        let one = eg.add(ENode::MulConst(1.0f64.to_bits(), x));
        let neg_one = eg.add(ENode::MulConst((-1.0f64).to_bits(), x));
        let nx = eg.add(ENode::Neg(x));
        saturate_single(&mut eg, Rule::MulOne);
        assert_eq!(eg.find(one), eg.find(x));
        assert_eq!(eg.find(neg_one), eg.find(nx));
    }

    #[test]
    fn power_of_two_multiplier_is_a_shift_both_ways() {
        let mut eg = EGraph::new();
        let x = leaf(&mut eg);
        let m = eg.add(ENode::MulConst(0.25f64.to_bits(), x));
        let s = eg.add(ENode::Shift(-2, x));
        saturate_single(&mut eg, Rule::MulPow2);
        assert_eq!(eg.find(m), eg.find(s));

        // Negative power of two folds through a negation.
        let m8 = eg.add(ENode::MulConst((-8.0f64).to_bits(), x));
        let s3 = eg.add(ENode::Shift(3, x));
        let ns3 = eg.add(ENode::Neg(s3));
        saturate_single(&mut eg, Rule::MulPow2);
        assert_eq!(eg.find(m8), eg.find(ns3));
    }

    #[test]
    fn non_power_of_two_is_not_a_shift() {
        assert_eq!(pow2_exponent(3.0), None);
        assert_eq!(pow2_exponent(0.75), None);
        assert_eq!(pow2_exponent(0.0), None);
        assert_eq!(pow2_exponent(f64::INFINITY), None);
        assert_eq!(pow2_exponent(4.0), Some(2));
        assert_eq!(pow2_exponent(0.5), Some(-1));
        assert_eq!(pow2_exponent(1.0), Some(0));
    }

    #[test]
    fn shifts_fuse_and_zero_shift_vanishes() {
        let mut eg = EGraph::new();
        let x = leaf(&mut eg);
        let s2 = eg.add(ENode::Shift(2, x));
        let s2_3 = eg.add(ENode::Shift(3, s2));
        let s5 = eg.add(ENode::Shift(5, x));
        let s0 = eg.add(ENode::Shift(0, x));
        saturate_single(&mut eg, Rule::ShiftFuse);
        assert_eq!(eg.find(s2_3), eg.find(s5));
        assert_eq!(eg.find(s0), eg.find(x));
    }

    #[test]
    fn shift_fuse_overflow_is_skipped_not_panicking() {
        let mut eg = EGraph::new();
        let x = leaf(&mut eg);
        let a = eg.add(ENode::Shift(i32::MAX, x));
        let b = eg.add(ENode::Shift(1, a));
        saturate_single(&mut eg, Rule::ShiftFuse);
        // No fused node appeared; b is still its own class.
        assert_ne!(eg.find(b), eg.find(a));
    }

    #[test]
    fn adding_zero_is_identity() {
        let mut eg = EGraph::new();
        let x = leaf(&mut eg);
        let z = eg.add(ENode::Const(0.0f64.to_bits()));
        let xz = eg.add(ENode::Add(x, z));
        let zx = eg.add(ENode::Add(z, x));
        saturate_single(&mut eg, Rule::AddZero);
        assert_eq!(eg.find(xz), eg.find(x));
        assert_eq!(eg.find(zx), eg.find(x));
    }

    #[test]
    fn csd_decomposition_matches_the_quantized_value() {
        // 0.59375 = 19/32 is exactly representable at 5+ fractional bits,
        // so the decomposed network computes the same value.
        let mut eg = EGraph::new();
        let x = leaf(&mut eg);
        let m = eg.add(ENode::MulConst(0.59375f64.to_bits(), x));
        let rule = Rule::CsdDecompose {
            frac_bits: 8,
            recoding: Recoding::Csd,
        };
        let before = eg.class_nodes(m).count();
        saturate_single(&mut eg, rule);
        assert!(
            eg.class_nodes(m).count() > before,
            "decomposition should add a representative to the multiplier's class"
        );
    }

    #[test]
    fn csd_skips_powers_of_two() {
        let mut eg = EGraph::new();
        let x = leaf(&mut eg);
        let m = eg.add(ENode::MulConst(0.5f64.to_bits(), x));
        let rule = Rule::CsdDecompose {
            frac_bits: 8,
            recoding: Recoding::Csd,
        };
        let n = eg.len();
        saturate_single(&mut eg, rule);
        assert_eq!(eg.len(), n, "±2^k is MulPow2's job");
        assert_eq!(eg.class_nodes(m).count(), 1);
    }

    #[test]
    fn csd_quantizing_to_zero_folds_to_constant_zero() {
        let mut eg = EGraph::new();
        let x = leaf(&mut eg);
        let m = eg.add(ENode::MulConst(0.0001f64.to_bits(), x));
        let z = eg.add(ENode::Const(0.0f64.to_bits()));
        let rule = Rule::CsdDecompose {
            frac_bits: 4,
            recoding: Recoding::Csd,
        };
        saturate_single(&mut eg, rule);
        assert_eq!(eg.find(m), eg.find(z));
    }

    #[test]
    fn structurally_different_chains_collapse_onto_one_multiplier_hub() {
        // 5x three ways: (x ≪ 2) + x, (x ≪ 3) − ((x ≪ 1) + x), and the
        // multiplier itself. Linear collection must place all three in
        // one e-class without any explicit union.
        let mut eg = EGraph::new();
        let x = leaf(&mut eg);
        let s2 = eg.add(ENode::Shift(2, x));
        let chain_a = eg.add(ENode::Add(s2, x));
        let s3 = eg.add(ENode::Shift(3, x));
        let s1 = eg.add(ENode::Shift(1, x));
        let three = eg.add(ENode::Add(s1, x));
        let chain_b = eg.add(ENode::Sub(s3, three));
        let hub = eg.add(ENode::MulConst(5.0f64.to_bits(), x));
        assert_ne!(eg.find(chain_a), eg.find(chain_b));
        saturate_single(&mut eg, Rule::CollectLinear);
        assert_eq!(eg.find(chain_a), eg.find(hub));
        assert_eq!(eg.find(chain_b), eg.find(hub));
    }

    #[test]
    fn collection_descends_through_negation_and_nested_chains() {
        // −(((x ≪ 1) + x) ≪ 1) = −6·x: the descent crosses e-class
        // boundaries through the pure shift-add fragment.
        let mut eg = EGraph::new();
        let x = leaf(&mut eg);
        let s1 = eg.add(ENode::Shift(1, x));
        let three = eg.add(ENode::Add(s1, x));
        let doubled = eg.add(ENode::Shift(1, three));
        let n = eg.add(ENode::Neg(doubled));
        let hub = eg.add(ENode::MulConst((-6.0f64).to_bits(), x));
        saturate_single(&mut eg, Rule::CollectLinear);
        assert_eq!(eg.find(n), eg.find(hub));
    }

    #[test]
    fn collection_treats_multipliers_as_opaque_bases() {
        // 2·(0.1·x) must hub as MulConst(2, m), NOT MulConst(0.2, x):
        // folding a multiplier's full-mantissa constant into the
        // accumulation would make the hub constant depend on rounding
        // order, and structurally different chains would stop colliding.
        let mut eg = EGraph::new();
        let x = leaf(&mut eg);
        let m = eg.add(ENode::MulConst(0.1f64.to_bits(), x));
        let s = eg.add(ENode::Shift(1, m));
        saturate_single(&mut eg, Rule::CollectLinear);
        let hub = eg.add(ENode::MulConst(2.0f64.to_bits(), m));
        let folded = eg.add(ENode::MulConst(0.2f64.to_bits(), x));
        eg.rebuild();
        assert_eq!(eg.find(s), eg.find(hub));
        assert_ne!(eg.find(s), eg.find(folded));
    }

    #[test]
    fn mixed_base_sums_are_not_collected() {
        let mut eg = EGraph::new();
        let x = leaf(&mut eg);
        let y = eg.add(ENode::StateIn { index: 0 });
        let sx = eg.add(ENode::Shift(1, x));
        let sum = eg.add(ENode::Add(sx, y));
        saturate_single(&mut eg, Rule::CollectLinear);
        // The shift itself collects to 2·x, but the mixed-base sum must
        // stay its own class with no multiplier hub.
        assert!(eg
            .class_nodes(sum)
            .all(|n| !matches!(n, ENode::MulConst(..))));
    }

    #[test]
    fn mcm_share_derives_the_pass_network_without_any_union() {
        // Two multipliers over one base: run the real MCM pass on the
        // DFG, then re-derive its network inside the e-graph with one
        // mcm-share sweep. Adding the rewritten graph afterwards must
        // land every root in an already-grown class purely by
        // hashconsing — no explicit union.
        use lintra_dfg::{Dfg, NodeKind};
        use lintra_transform::mcm_pass::{expand_multiplications, McmPassConfig};

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
        let m1 = g.push(NodeKind::MulConst(185.0 / 256.0), &[x]).unwrap();
        let m2 = g.push(NodeKind::MulConst(235.0 / 256.0), &[x]).unwrap();
        let a = g.push(NodeKind::Add, &[m1, m2]).unwrap();
        g.push(
            NodeKind::Output {
                sample: 0,
                channel: 0,
            },
            &[a],
        )
        .unwrap();

        let (shifted, _) = expand_multiplications(
            &g,
            McmPassConfig {
                frac_bits: 8,
                recoding: Recoding::Csd,
            },
        )
        .unwrap();

        let (mut eg, roots) = EGraph::from_dfg(&g).unwrap();
        saturate_single(
            &mut eg,
            Rule::McmShare {
                frac_bits: 8,
                recoding: Recoding::Csd,
            },
        );
        let script_roots = eg.add_dfg(&shifted).unwrap();
        for ((k1, a), (k2, b)) in roots.outputs.iter().zip(&script_roots.outputs) {
            assert_eq!(k1, k2);
            assert_eq!(eg.find(*a), eg.find(*b), "output {k1:?} not derived");
        }
    }

    #[test]
    fn mcm_share_quantizing_to_zero_folds_to_constant_zero() {
        let mut eg = EGraph::new();
        let x = leaf(&mut eg);
        let m = eg.add(ENode::MulConst(0.0001f64.to_bits(), x));
        let z = eg.add(ENode::Const(0.0f64.to_bits()));
        saturate_single(
            &mut eg,
            Rule::McmShare {
                frac_bits: 4,
                recoding: Recoding::Csd,
            },
        );
        assert_eq!(eg.find(m), eg.find(z));
    }

    #[test]
    fn tiers_are_labeled_correctly() {
        assert!(RuleSet::exact().bit_exact());
        assert!(!RuleSet::asic(12, Recoding::Csd).bit_exact());
        assert_eq!(RuleSet::single(Rule::AddCommute).names(), ["add-commute"]);
        assert_eq!(RuleSet::exact().rules().len(), 7);
        assert!(RuleSet::asic(12, Recoding::Csd)
            .rules()
            .contains(&Rule::McmShare {
                frac_bits: 12,
                recoding: Recoding::Csd,
            }));
        assert!(RuleSet::asic(12, Recoding::Csd)
            .rules()
            .contains(&Rule::CollectLinear));
        assert!(!Rule::CollectLinear.bit_exact());
        assert!(!Rule::McmShare {
            frac_bits: 12,
            recoding: Recoding::Csd,
        }
        .bit_exact());
    }
}
