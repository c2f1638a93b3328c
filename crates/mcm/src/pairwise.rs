//! Iterative pairwise matching \[Pot94\].
//!
//! The algorithm keeps a pool of *expressions* (initially, one signed-digit
//! expansion per distinct odd constant) and repeatedly finds the pair of
//! expressions with the largest common subpattern — a set of terms that
//! coincide under a relative shift and an optional global sign flip. The
//! subpattern is extracted into a new shared expression and both users are
//! rewritten to reference it. Every extraction of an `m`-term match saves
//! `m − 1` additions, so the loop monotonically reduces cost and
//! terminates.

use crate::csd::recode;
use crate::plan::{Expr, McmSolution, OutputRef, Source, Term};
use crate::{Cost, Recoding};
use std::collections::HashMap;

/// Cost of decomposing every constant independently (the paper's baseline):
/// per-constant signed-digit expansion with *no* sharing of subexpressions
/// or shifters.
pub fn naive_cost(constants: &[i64], recoding: Recoding) -> Cost {
    constants
        .iter()
        .map(|&c| crate::csd::single_constant_cost(c, recoding))
        .fold(Cost::default(), |a, b| a + b)
}

/// Synthesizes a shared shift-add network for all `constants` (products with
/// one common variable) using iterative pairwise matching.
///
/// Constants may repeat, be negative, zero, or even; they are normalized to
/// `sign · odd · 2^e` and the matching runs on the distinct odd parts.
///
/// The returned plan is explicit and can be checked with
/// [`McmSolution::verify`]; its [`McmSolution::cost`] never exceeds
/// [`naive_cost`] in additions.
///
/// # Examples
///
/// ```
/// use lintra_mcm::{synthesize, Recoding};
///
/// let sol = synthesize(&[7, 14, 28, 0, -7], Recoding::Csd);
/// sol.verify().unwrap();
/// // One shared expression computes 7x; everything else is shift/negate.
/// assert_eq!(sol.cost().adds, 1);
/// ```
pub fn synthesize(constants: &[i64], recoding: Recoding) -> McmSolution {
    synthesize_with(constants, recoding, false)
}

/// [`synthesize`] with every pair scored by the original candidate loop,
/// one greedy match per candidate transform, instead of by counting. It
/// returns exactly what [`synthesize`] returns, only slower. It is the
/// oracle the differential tests hold [`synthesize`] to, not for
/// production use.
pub fn synthesize_reference(constants: &[i64], recoding: Recoding) -> McmSolution {
    synthesize_with(constants, recoding, true)
}

fn synthesize_with(constants: &[i64], recoding: Recoding, reference: bool) -> McmSolution {
    let (mut exprs, outputs) = initial_pool(constants, recoding);
    // Iterative pairwise matching over the expression pool. The memo keeps
    // the best match of every pair and only recomputes pairs whose
    // endpoints were rewritten by the previous extraction, so each
    // iteration costs O(E) pair scans instead of O(E²).
    let mut memo = PairMemo::with_scoring(&exprs, reference);
    while let Some(best) = memo.global_best() {
        let (i, j) = (best.i, best.j);
        apply_match(&mut exprs, best);
        memo.refresh(&exprs, i, j);
    }
    McmSolution { exprs, outputs }
}

/// The starting pool: one signed-digit expression per distinct odd part,
/// and every constant's output as `sign · 2^e · odd`. Recoded digits have
/// distinct shifts, so every expression's terms are pairwise distinct.
fn initial_pool(constants: &[i64], recoding: Recoding) -> (Vec<Expr>, Vec<(i64, OutputRef)>) {
    let mut exprs: Vec<Expr> = Vec::new();
    let mut odd_index: HashMap<u64, usize> = HashMap::new();
    let mut outputs: Vec<(i64, OutputRef)> = Vec::new();

    for &c in constants {
        if c == 0 {
            outputs.push((c, OutputRef::Zero));
            continue;
        }
        let neg = c < 0;
        let mag = c.unsigned_abs();
        let e = mag.trailing_zeros();
        let odd = mag >> e;
        let source = if odd == 1 {
            Source::Input
        } else {
            let idx = *odd_index.entry(odd).or_insert_with(|| {
                let digits = recode(odd as i64, recoding);
                exprs.push(Expr {
                    terms: digits
                        .iter()
                        .map(|d| Term {
                            source: Source::Input,
                            shift: d.shift,
                            neg: d.neg,
                        })
                        .collect(),
                });
                exprs.len() - 1
            });
            Source::Expr(idx)
        };
        outputs.push((
            c,
            OutputRef::Scaled(Term {
                source,
                shift: e,
                neg,
            }),
        ));
    }
    (exprs, outputs)
}

/// A candidate common subpattern between expressions `i` and `j`
/// (possibly `i == j` with disjoint term sets): terms `src` of expression
/// `i` map onto terms `dst` of expression `j` under `shift` and `flip`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Match {
    i: usize,
    j: usize,
    /// Relative shift applied to `i`'s terms to land on `j`'s.
    shift: i64,
    /// Global sign flip between the two occurrences.
    flip: bool,
    /// Matched term indices in expression `i`.
    src: Vec<usize>,
    /// Matched term indices in expression `j` (same order as `src`).
    dst: Vec<usize>,
}

impl Match {
    fn len(&self) -> usize {
        self.src.len()
    }

    fn score(&self) -> Score {
        Score {
            shift: self.shift,
            flip: self.flip,
            len: self.len(),
        }
    }
}

/// What the memo keeps per pair: the winning transform and its match
/// size. The matched index sets are rebuilt ([`materialize`]) only for a
/// pair that leads its memo row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Score {
    shift: i64,
    flip: bool,
    len: usize,
}

/// The full match of pair `(i, j)` under its scored transform.
fn materialize(exprs: &[Expr], i: usize, j: usize, s: Score) -> Match {
    let (src, dst) = match_under(exprs, i, j, s.shift, s.flip);
    Match {
        i,
        j,
        shift: s.shift,
        flip: s.flip,
        src,
        dst,
    }
}

/// Transformed image of a term under a candidate `(shift, flip)`.
fn image(t: &Term, shift: i64, flip: bool) -> Option<Term> {
    let s = t.shift as i64 + shift;
    if s < 0 {
        return None;
    }
    Some(Term {
        source: t.source,
        shift: s as u32,
        neg: t.neg ^ flip,
    })
}

/// Finds the matched index sets for a fixed pair and candidate transform.
fn match_under(
    exprs: &[Expr],
    i: usize,
    j: usize,
    shift: i64,
    flip: bool,
) -> (Vec<usize>, Vec<usize>) {
    let (mut src, mut dst) = (Vec::new(), Vec::new());
    let mut used_dst = vec![false; exprs[j].terms.len()];
    for (a, t) in exprs[i].terms.iter().enumerate() {
        // In a self-match an index may participate in at most one role.
        if i == j && (dst.contains(&a)) {
            continue;
        }
        let Some(want) = image(t, shift, flip) else {
            continue;
        };
        let found = exprs[j].terms.iter().enumerate().position(|(b, u)| {
            !used_dst[b] && *u == want && !(i == j && (b == a || src.contains(&b)))
        });
        if let Some(b) = found {
            used_dst[b] = true;
            src.push(a);
            dst.push(b);
        }
    }
    (src, dst)
}

/// Every transform that aligns a term of `i` with a same-source term of
/// `j`, one entry per aligned pair, sorted.
fn candidates(exprs: &[Expr], i: usize, j: usize, cands: &mut Vec<(i64, bool)>) {
    cands.clear();
    for t in &exprs[i].terms {
        for u in &exprs[j].terms {
            if t.source == u.source {
                cands.push((u.shift as i64 - t.shift as i64, t.neg ^ u.neg));
            }
        }
    }
    cands.sort_unstable();
}

/// Reference scorer for one pair `(i, j)`: runs the greedy match under
/// every candidate transform and keeps the first (in sorted
/// `(shift, flip)` order) reaching the pair's maximal size ≥ 2.
fn pair_best_reference(
    exprs: &[Expr],
    i: usize,
    j: usize,
    cands: &mut Vec<(i64, bool)>,
) -> Option<Match> {
    candidates(exprs, i, j, cands);
    cands.dedup();
    let mut best: Option<Match> = None;
    for &(shift, flip) in cands.iter() {
        if i == j && shift == 0 && !flip {
            continue; // identity self-match is meaningless
        }
        let (src, dst) = match_under(exprs, i, j, shift, flip);
        if src.len() >= 2 {
            let cand = Match {
                i,
                j,
                shift,
                flip,
                src,
                dst,
            };
            if best.as_ref().is_none_or(|b| cand.len() > b.len()) {
                best = Some(cand);
            }
        }
    }
    best
}

/// Whether an expression's terms are pairwise distinct, the precondition
/// for scoring its pairs by counting.
fn terms_distinct(e: &Expr) -> bool {
    e.terms
        .iter()
        .enumerate()
        .all(|(a, t)| !e.terms[..a].contains(t))
}

/// Best match within one fixed pair `(i, j)`: the score of exactly what
/// [`pair_best_reference`] returns, with far fewer greedy matches.
/// `distinct[e]` says whether expression `e`'s terms are pairwise
/// distinct.
///
/// Candidate transforms are walked as runs of the sorted list, one entry
/// per aligned term pair. Every matched term pair is an aligned pair of
/// that transform, so a run's length bounds its greedy match from above:
/// a run no longer than the best match so far can't beat it and is
/// skipped without matching.
///
/// When `i ≠ j` and both expressions' terms are pairwise distinct, the
/// bound is exact: each term of `i` whose image lies in `j` meets exactly
/// one partner, and no two want the same one. The run length then *is*
/// the match size, the first longest run is the reference's winner, and
/// no greedy match runs at all. The pool keeps terms distinct: recoded
/// digits have distinct shifts, and every extraction replaces matched
/// terms by references to a brand-new expression. The memo checks that
/// invariant rather than assuming it; a pair with a repeated term, like a
/// self-pair (where a term may play only one role), matches each
/// surviving run greedily.
fn pair_best(
    exprs: &[Expr],
    distinct: &[bool],
    i: usize,
    j: usize,
    cands: &mut Vec<(i64, bool)>,
) -> Option<Score> {
    candidates(exprs, i, j, cands);
    let counted = i != j && distinct[i] && distinct[j];
    let mut best: Option<Score> = None;
    for run in cands.chunk_by(|a, b| a == b) {
        let (shift, flip) = run[0];
        // A match must have ≥ 2 terms and beat the best so far.
        let floor = best.map_or(1, |b| b.len);
        if run.len() <= floor || (i == j && shift == 0 && !flip) {
            continue;
        }
        let len = if counted {
            run.len()
        } else {
            match_under(exprs, i, j, shift, flip).0.len()
        };
        if len > floor {
            best = Some(Score { shift, flip, len });
        }
    }
    best
}

/// Per-pair memo of within-pair best matches.
///
/// A match for pair `(a, b)` depends only on `exprs[a]` and `exprs[b]`, so
/// after an extraction rewrites expressions `i` and `j` and appends the
/// shared expression `k`, every pair avoiding `{i, j, k}` keeps its cached
/// match. Selection order is identical to a full rescan: pairs are scanned
/// in ascending `(i, j)` with a strictly-greater size test, and each
/// cached entry was itself chosen by the same rule over sorted candidate
/// transforms — so the memoized loop extracts exactly the same sequence of
/// matches as the O(E²)-per-iteration rescan (asserted by a test below).
/// Each row also keeps its first longest entry as a full match, so picking
/// the global winner reads one entry per row instead of all E²/2.
struct PairMemo {
    /// `best[i][j - i]` = score of the best match within pair `(i, j)`,
    /// `i ≤ j`.
    best: Vec<Vec<Option<Score>>>,
    /// `top[i]` = row `i`'s first longest match (`None`: the row has none).
    top: Vec<Option<Match>>,
    /// `distinct[e]`: expression `e`'s terms are pairwise distinct.
    distinct: Vec<bool>,
    /// Score every pair with the reference loop instead of by counting.
    reference: bool,
    /// Scratch for candidate transforms, reused across pair scans.
    cands: Vec<(i64, bool)>,
}

impl PairMemo {
    #[cfg(test)]
    fn new(exprs: &[Expr]) -> PairMemo {
        PairMemo::with_scoring(exprs, false)
    }

    fn with_scoring(exprs: &[Expr], reference: bool) -> PairMemo {
        let mut memo = PairMemo {
            best: Vec::with_capacity(exprs.len()),
            top: Vec::with_capacity(exprs.len()),
            distinct: Vec::with_capacity(exprs.len()),
            reference,
            cands: Vec::new(),
        };
        memo.extend(exprs);
        memo
    }

    fn score(&mut self, exprs: &[Expr], a: usize, b: usize) -> Option<Score> {
        if self.reference {
            pair_best_reference(exprs, a, b, &mut self.cands).map(|m| m.score())
        } else {
            pair_best(exprs, &self.distinct, a, b, &mut self.cands)
        }
    }

    /// Scores the pairs of expressions appended since the last call: new
    /// columns of existing rows, then new rows.
    fn extend(&mut self, exprs: &[Expr]) {
        let e = exprs.len();
        for x in &exprs[self.distinct.len()..] {
            self.distinct.push(terms_distinct(x));
        }
        for a in 0..self.best.len() {
            for b in (a + self.best[a].len())..e {
                let s = self.score(exprs, a, b);
                self.set(exprs, a, b, s);
            }
        }
        for a in self.best.len()..e {
            let row: Vec<Option<Score>> = (a..e).map(|b| self.score(exprs, a, b)).collect();
            let top = first_longest(&row).and_then(|c| Some(materialize(exprs, a, a + c, row[c]?)));
            self.top.push(top);
            self.best.push(row);
        }
    }

    /// Re-scans every pair touching `i`, `j`, or an expression appended
    /// since the last refresh; all other entries stay cached.
    fn refresh(&mut self, exprs: &[Expr], i: usize, j: usize) {
        for d in [i, j] {
            self.distinct[d] = terms_distinct(&exprs[d]);
        }
        self.extend(exprs);
        // Pairs with a rewritten endpoint.
        for d in [i, j] {
            for a in 0..exprs.len() {
                let (lo, hi) = if a <= d { (a, d) } else { (d, a) };
                let s = self.score(exprs, lo, hi);
                self.set(exprs, lo, hi, s);
            }
        }
    }

    /// Stores pair `(a, b)`'s score, appending it when `b` is a new
    /// column, and keeps row `a`'s top current.
    fn set(&mut self, exprs: &[Expr], a: usize, b: usize, s: Option<Score>) {
        let col = b - a;
        let len = s.map_or(0, |s| s.len);
        let row = &mut self.best[a];
        // The top's stored size, read before the entry may be overwritten.
        // Mid-refresh the top's match may be stale; its score is what
        // ranks it.
        let old = self.top[a].as_ref().map(|m| m.j - a);
        let n = old.and_then(|c| row[c]).map_or(0, |s| s.len);
        if col == row.len() {
            row.push(s);
        } else {
            row[col] = s;
        }
        let top = match old {
            // The top entry shrank: any other entry may lead now.
            Some(c) if c == col && len < n => first_longest(row),
            Some(c) if c == col || len < n || (len == n && c < col) => Some(c),
            _ if len > 0 => Some(col),
            _ => None,
        };
        // Rebuild the top's match when it moved or its entry was rescored.
        if top != old || top == Some(col) {
            self.top[a] = top.and_then(|c| Some(materialize(exprs, a, a + c, row[c]?)));
        }
    }

    /// The match a full rescan would select: first pair in ascending
    /// `(i, j)` order whose cached match is strictly larger than every
    /// earlier one.
    fn global_best(&self) -> Option<Match> {
        let mut best: Option<&Match> = None;
        for m in self.top.iter().flatten() {
            if best.is_none_or(|b| m.len() > b.len()) {
                best = Some(m);
            }
        }
        best.cloned()
    }
}

/// Column of the first longest entry in a memo row.
fn first_longest(row: &[Option<Score>]) -> Option<usize> {
    let mut top: Option<(usize, usize)> = None;
    for (c, s) in row.iter().enumerate() {
        if let Some(s) = s {
            if top.is_none_or(|(_, n)| s.len > n) {
                top = Some((c, s.len));
            }
        }
    }
    top.map(|(c, _)| c)
}

/// Scans all pairs and transforms for the largest match of size ≥ 2 —
/// the reference implementation the memoized loop must agree with.
#[cfg(test)]
fn best_match(exprs: &[Expr]) -> Option<Match> {
    let mut best: Option<Match> = None;
    let mut cands = Vec::new();
    for i in 0..exprs.len() {
        for j in i..exprs.len() {
            let cand = pair_best_reference(exprs, i, j, &mut cands);
            if let Some(c) = cand {
                if best.as_ref().is_none_or(|b| c.len() > b.len()) {
                    best = Some(c);
                }
            }
        }
    }
    best
}

/// Extracts the matched subpattern into a new expression and rewrites both
/// users.
fn apply_match(exprs: &mut Vec<Expr>, m: Match) {
    let matched: Vec<Term> = m.src.iter().map(|&a| exprs[m.i].terms[a]).collect();
    // Both scorers only select matches of size >= 2 (a smaller one would
    // make no progress and `synthesize` would never stop); an empty match
    // would be a no-op, so bail out instead of panicking on the invariant.
    let Some(m0) = matched.iter().map(|t| t.shift).min() else {
        return;
    };
    // Normalize so the new expression's minimum-shift term is positive.
    let f = matched
        .iter()
        .find(|t| t.shift == m0)
        .map(|t| t.neg)
        .unwrap_or(false);
    let new_expr = Expr {
        terms: matched
            .iter()
            .map(|t| Term {
                source: t.source,
                shift: t.shift - m0,
                neg: t.neg ^ f,
            })
            .collect(),
    };
    let k = exprs.len();
    exprs.push(new_expr);

    let ref_i = Term {
        source: Source::Expr(k),
        shift: m0,
        neg: f,
    };
    let ref_j = Term {
        source: Source::Expr(k),
        shift: (m0 as i64 + m.shift) as u32,
        neg: f ^ m.flip,
    };

    if m.i == m.j {
        let mut remove: Vec<usize> = m.src.iter().chain(&m.dst).copied().collect();
        remove.sort_unstable();
        remove.dedup();
        for &r in remove.iter().rev() {
            exprs[m.i].terms.remove(r);
        }
        exprs[m.i].terms.push(ref_i);
        exprs[m.i].terms.push(ref_j);
    } else {
        let mut src = m.src;
        src.sort_unstable();
        for &r in src.iter().rev() {
            exprs[m.i].terms.remove(r);
        }
        exprs[m.i].terms.push(ref_i);
        let mut dst = m.dst;
        dst.sort_unstable();
        for &r in dst.iter().rev() {
            exprs[m.j].terms.remove(r);
        }
        exprs[m.j].terms.push(ref_j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_185_235() {
        let naive = naive_cost(&[185, 235], Recoding::Binary);
        assert_eq!(naive, Cost { adds: 9, shifts: 9 });

        let sol = synthesize(&[185, 235], Recoding::Binary);
        sol.verify().unwrap();
        // The paper's illustration stops at 6 shifts + 6 adds; iterated
        // matching finds one further shared pattern (33x = x + x<<5) and
        // lands at 5 + 5. Assert we do at least as well as the paper.
        assert!(sol.adds() <= 6, "plan:\n{sol}");
        assert!(sol.shifts() <= 6, "plan:\n{sol}");
        assert_eq!(sol.adds(), 5, "plan:\n{sol}");
        assert_eq!(sol.shifts(), 5, "plan:\n{sol}");
        // The shared subexpression the paper exhibits computes 169x.
        let values = sol.expr_values().unwrap();
        assert!(values.contains(&169), "values {values:?}\n{sol}");
    }

    #[test]
    fn trivial_constants_cost_nothing() {
        let sol = synthesize(&[0, 1, -1, 2, -8], Recoding::Csd);
        sol.verify().unwrap();
        assert_eq!(sol.adds(), 0);
        // 2 and -8 need shifters: (x,1) and (x,3).
        assert_eq!(sol.shifts(), 2);
    }

    #[test]
    fn duplicates_and_even_multiples_share_one_expression() {
        let sol = synthesize(&[7, 14, 28, -7, 7], Recoding::Csd);
        sol.verify().unwrap();
        // Only the odd part 7 = 8 - 1 is ever computed: a single addition.
        assert_eq!(sol.adds(), 1);
    }

    #[test]
    fn self_match_within_one_constant() {
        // 0b101101 << shifts... pick c = (5) + (5 << 3) = 45: digits {0,2,3,5}
        // in binary; the pattern (x + x<<2) repeats at offset 3.
        let sol = synthesize(&[45], Recoding::Binary);
        sol.verify().unwrap();
        // Naive: 4 digits -> 3 adds. Self-match: e = x + x<<2 (1 add),
        // 45x = e + e<<3 (1 add) -> 2 adds total.
        assert_eq!(sol.adds(), 2, "plan:\n{sol}");
    }

    #[test]
    fn never_worse_than_naive_in_adds() {
        for recoding in [Recoding::Binary, Recoding::Csd] {
            for set in [
                vec![3, 5, 7, 9],
                vec![255, 127, 63],
                vec![1997, 1023, 77, 12],
                vec![-45, 45, 90],
            ] {
                let sol = synthesize(&set, recoding);
                sol.verify().unwrap();
                assert!(
                    sol.adds() <= naive_cost(&set, recoding).adds,
                    "worse than naive for {set:?} {recoding:?}"
                );
            }
        }
    }

    #[test]
    fn memoized_matching_equals_full_rescan() {
        // Drive the memoized loop and the O(E²) rescan side by side on the
        // same pool and assert they extract the same match at every step.
        for set in [
            vec![185i64, 235, 77, 1997, 45],
            (1..=24).map(|k| (k * 37 % 255) + 1).collect(),
            vec![3, 5, 9, 17, 33, 65, 129, 257],
        ] {
            let mut exprs: Vec<Expr> = set
                .iter()
                .map(|&c| Expr {
                    terms: recode(c, Recoding::Csd)
                        .iter()
                        .map(|d| Term {
                            source: Source::Input,
                            shift: d.shift,
                            neg: d.neg,
                        })
                        .collect(),
                })
                .collect();
            let mut naive = exprs.clone();
            let mut memo = PairMemo::new(&exprs);
            loop {
                let fast = memo.global_best();
                let slow = best_match(&naive);
                assert_eq!(fast, slow, "divergence on {set:?}");
                let Some(m) = fast else { break };
                let (i, j) = (m.i, m.j);
                apply_match(&mut exprs, m.clone());
                apply_match(&mut naive, m);
                memo.refresh(&exprs, i, j);
            }
            assert_eq!(exprs, naive);
        }
    }

    /// Steps the extraction loop on `exprs` and, before every step,
    /// holds the counting scorer to the reference loop on every pair,
    /// self-pairs included. Returns how many pairs a bare run count
    /// (distinctness assumed, not checked) would have misjudged.
    fn check_scorer(mut exprs: Vec<Expr>) -> usize {
        let mut cands = Vec::new();
        let mut misjudged = 0;
        loop {
            let distinct: Vec<bool> = exprs.iter().map(terms_distinct).collect();
            let assumed = vec![true; exprs.len()];
            for i in 0..exprs.len() {
                for j in i..exprs.len() {
                    let fast = pair_best(&exprs, &distinct, i, j, &mut cands);
                    let slow = pair_best_reference(&exprs, i, j, &mut cands);
                    assert_eq!(
                        fast,
                        slow.as_ref().map(Match::score),
                        "({i}, {j}) {exprs:?}"
                    );
                    if let (Some(s), Some(m)) = (fast, slow) {
                        assert_eq!(materialize(&exprs, i, j, s), m, "({i}, {j}) {exprs:?}");
                    }
                    if i != j && pair_best(&exprs, &assumed, i, j, &mut cands) != fast {
                        misjudged += 1;
                    }
                }
            }
            let Some(m) = best_match(&exprs) else { break };
            apply_match(&mut exprs, m);
        }
        misjudged
    }

    #[test]
    fn counting_scorer_equals_reference_on_random_pools() {
        let mut rng = lintra_matrix::rng::SplitMix64::new(0x5EED_3C0F);
        for round in 0..48 {
            let recoding = if round % 2 == 0 {
                Recoding::Csd
            } else {
                Recoding::Binary
            };
            // Negative, even and repeated constants: the pool holds each
            // odd part once, as `synthesize` builds it.
            let bits = 4 + rng.next_below(13) as u32;
            let mut consts: Vec<i64> = Vec::new();
            for _ in 0..2 + rng.next_below(24) {
                let c = if !consts.is_empty() && rng.next_below(4) == 0 {
                    consts[rng.next_below(consts.len() as u64) as usize]
                } else {
                    rng.range_i64(-(1 << bits), 1 << bits) << rng.next_below(3)
                };
                consts.push(c);
            }
            let (exprs, _) = initial_pool(&consts, recoding);
            assert_eq!(check_scorer(exprs), 0, "{consts:?} {recoding:?}");
            let sol = synthesize(&consts, recoding);
            sol.verify().unwrap();
            assert_eq!(sol, synthesize_reference(&consts, recoding));
        }
    }

    #[test]
    fn counting_scorer_falls_back_on_repeated_terms() {
        // Hand-built pools over a small term alphabet, so terms repeat
        // within an expression and the run count overstates matches.
        let mut rng = lintra_matrix::rng::SplitMix64::new(0xD0_0B1E);
        let mut misjudged = 0;
        for _ in 0..48 {
            let exprs: Vec<Expr> = (0..2 + rng.next_below(6))
                .map(|e| Expr {
                    terms: (0..2 + rng.next_below(6))
                        .map(|_| Term {
                            source: if e > 0 && rng.next_below(4) == 0 {
                                Source::Expr(rng.next_below(e) as usize)
                            } else {
                                Source::Input
                            },
                            shift: rng.next_below(4) as u32,
                            neg: rng.next_bool(),
                        })
                        .collect(),
                })
                .collect();
            misjudged += check_scorer(exprs);
        }
        assert!(misjudged > 0, "no pool exercised the distinctness check");
    }

    #[test]
    fn deterministic_output() {
        let a = synthesize(&[185, 235, 77], Recoding::Csd);
        let b = synthesize(&[185, 235, 77], Recoding::Csd);
        assert_eq!(a, b);
    }

    #[test]
    fn cost_plateaus_with_many_constants_of_fixed_width() {
        // Asymptotic effectiveness: adds per constant falls as the instance
        // grows at fixed (8-bit) width.
        let small: Vec<i64> = (1..=16).map(|k| (k * 37 % 255) + 1).collect();
        let large: Vec<i64> = (1..=128).map(|k| (k * 37 % 255) + 1).collect();
        let s = synthesize(&small, Recoding::Csd);
        let l = synthesize(&large, Recoding::Csd);
        s.verify().unwrap();
        l.verify().unwrap();
        let per_small = s.adds() as f64 / small.len() as f64;
        let per_large = l.adds() as f64 / large.len() as f64;
        assert!(
            per_large < per_small,
            "adds/constant should fall: {per_small} -> {per_large}"
        );
    }

    #[test]
    fn exhaustive_small_verification() {
        // Every pair (a, b) with 1 <= a, b <= 64 synthesizes correctly.
        for a in 1..=64i64 {
            for b in [a + 1, a * 3 % 64 + 1, 64 - a + 1] {
                let sol = synthesize(&[a, b], Recoding::Csd);
                if let Err(e) = sol.verify() {
                    panic!("verify failed for ({a},{b}): {e}\n{sol}");
                }
            }
        }
    }
}
