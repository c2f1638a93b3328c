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
//!
//! # The pair memo
//!
//! `PairMemo` caches every pair's best match and rescores only what an
//! extraction can change; three exact shortcuts keep that cheap without
//! changing a single plan.
//!
//! * **Counting into buckets.** A pair `(i, j)` with `i ≠ j` whose
//!   expressions both have pairwise-distinct terms is scored by counting
//!   each aligned same-source term pair into a fixed array of
//!   `(shift, flip)` buckets. The bucket index grows with the shift and
//!   then the flip, which is the order of the sorted candidate list the
//!   reference loop walks, so the lowest-indexed fullest bucket is the
//!   reference's first longest run. With distinct terms each term of `i`
//!   has one image per transform and meets it at most once in `j`, so a
//!   bucket's count is its match size and never exceeds
//!   `min(|i|, |j|)`; an expression that counts holds at most `u8::MAX`
//!   terms, so the `u8` count cannot overflow. Self-pairs, repeated terms
//!   and shifts past `MAX_SHIFT` take the sorted-list loop with a greedy
//!   match per run.
//! * **Matchless pairs stay matchless.** An extraction removes matched
//!   terms from `i` and `j` and gives each one reference to the new
//!   expression `k`. Any other expression `a` holds no reference to `k`,
//!   so pair `(a, i)` keeps a subset of its aligned term pairs under every
//!   transform. A match pairs a term only with an equal image, so it can
//!   only shrink with them: a pair that had no match has none now and is
//!   not rescored.
//! * **One match per extraction.** Each memo row keeps the column and size
//!   of its first longest entry, and only the global winner's matched term
//!   sets are rebuilt (`match_under`), once per extraction.
//!
//! Three tests split the checking. `tests/mcm_differential.rs` holds the
//! scorer to the reference loop ([`synthesize_reference`]) on every suite
//! group, and unit tests below do so on random pools. Both share the memo,
//! so `memoized_matching_equals_full_rescan*` steps it against a full
//! O(E²) rescan at every extraction. `tests/golden/mcm_plans.txt` pins
//! the suite's plans.

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
    while let Some(best) = memo.global_best(&exprs) {
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
/// size. The matched index sets are rebuilt ([`materialize`]) only for
/// the pair an extraction applies.
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

/// Largest term shift the counting buckets cover. Every shift `synthesize`
/// produces fits: an `i64` constant has no digit above bit 63, extracted
/// expressions shift their terms down, and a reference to one takes a
/// matched term's shift.
const MAX_SHIFT: u32 = 63;

/// One bucket per transform `(shift, flip)` with `|shift| ≤ MAX_SHIFT`.
const BUCKETS: usize = 2 * (2 * MAX_SHIFT as usize + 1);

/// Bucket of transform `(shift, flip)`: ascending in `shift`, then
/// `false` before `true` — the sorted candidate order.
fn bucket(shift: i64, flip: bool) -> usize {
    2 * (shift + MAX_SHIFT as i64) as usize + flip as usize
}

/// Whether expression `e`'s pairs with other expressions may be scored by
/// counting: its terms are pairwise distinct (so a bucket's count is a
/// match size), there are at most `u8::MAX` of them (so the count fits)
/// and every shift lies within the buckets.
fn countable(e: &Expr) -> bool {
    e.terms.len() <= u8::MAX as usize
        && e.terms.iter().all(|t| t.shift <= MAX_SHIFT)
        && e.terms
            .iter()
            .enumerate()
            .all(|(a, t)| !e.terms[..a].contains(t))
}

/// Scratch reused across pair scans.
struct Scratch {
    /// Candidate transforms of the sorted-list loop.
    cands: Vec<(i64, bool)>,
    /// Aligned-pair count per transform bucket, all zero between scans.
    counts: [u8; BUCKETS],
    /// The buckets a counting scan made nonzero.
    touched: Vec<usize>,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            cands: Vec::new(),
            counts: [0; BUCKETS],
            touched: Vec::new(),
        }
    }
}

/// Best match within one fixed pair `(i, j)`: the score of exactly what
/// [`pair_best_reference`] returns, with far fewer greedy matches.
/// `countable[e]` is [`countable`] of expression `e`.
///
/// When `i ≠ j` and both expressions count, each aligned term pair is
/// counted into its transform's bucket ([`count_aligned`]) and no greedy
/// match runs at all. Otherwise candidate transforms are walked as runs of
/// the sorted list, one entry per aligned term pair. Every matched term
/// pair is an aligned pair of that transform, so a run's length bounds its
/// greedy match from above: a run no longer than the best match so far
/// can't beat it and is skipped without matching. The pool keeps terms
/// distinct — recoded digits have distinct shifts, and every extraction
/// replaces matched terms by references to a brand-new expression — but
/// the memo checks that invariant rather than assuming it.
fn pair_best(
    exprs: &[Expr],
    countable: &[bool],
    i: usize,
    j: usize,
    scratch: &mut Scratch,
) -> Option<Score> {
    if i != j && countable[i] && countable[j] {
        return count_aligned(&exprs[i], &exprs[j], scratch);
    }
    candidates(exprs, i, j, &mut scratch.cands);
    let mut best: Option<Score> = None;
    for run in scratch.cands.chunk_by(|a, b| a == b) {
        let (shift, flip) = run[0];
        // A match must have ≥ 2 terms and beat the best so far.
        let floor = best.map_or(1, |b| b.len);
        if run.len() <= floor || (i == j && shift == 0 && !flip) {
            continue;
        }
        let len = match_under(exprs, i, j, shift, flip).0.len();
        if len > floor {
            best = Some(Score { shift, flip, len });
        }
    }
    best
}

/// Scores a pair of distinct expressions whose terms are pairwise
/// distinct and within the buckets: each term of `a` meets its image
/// under a transform at most once in `b`, so a bucket's count is that
/// transform's match size, at most `min(|a|, |b|) ≤ u8::MAX`. The lowest
/// fullest bucket is the first longest run of the sorted candidate list.
/// Leaves the scratch counts zeroed.
fn count_aligned(a: &Expr, b: &Expr, scratch: &mut Scratch) -> Option<Score> {
    let Scratch {
        counts, touched, ..
    } = scratch;
    // (bucket, count) of the lowest fullest bucket so far.
    let mut top = (0, 0u8);
    for t in &a.terms {
        for u in &b.terms {
            if t.source == u.source {
                let k = bucket(u.shift as i64 - t.shift as i64, t.neg ^ u.neg);
                let n = counts[k] + 1;
                counts[k] = n;
                if n == 1 {
                    touched.push(k);
                }
                if n > top.1 || (n == top.1 && k < top.0) {
                    top = (k, n);
                }
            }
        }
    }
    for k in touched.drain(..) {
        counts[k] = 0;
    }
    let (k, len) = top;
    (len >= 2).then(|| Score {
        shift: (k / 2) as i64 - MAX_SHIFT as i64,
        flip: k % 2 == 1,
        len: len as usize,
    })
}

/// Per-pair memo of within-pair best matches.
///
/// A match for pair `(a, b)` depends only on `exprs[a]` and `exprs[b]`, so
/// after an extraction rewrites expressions `i` and `j` and appends the
/// shared expression `k`, every pair avoiding `{i, j, k}` keeps its cached
/// match, and so does a matchless pair `(a, i)` or `(a, j)` with
/// `a ∉ {i, j, k}` (see the module docs). Selection order is identical to
/// a full rescan: pairs are scanned in ascending `(i, j)` with a
/// strictly-greater size test, and each cached entry was itself chosen by
/// the same rule over sorted candidate transforms — so the memoized loop
/// extracts exactly the same sequence of matches as the O(E²)-per-iteration
/// rescan (asserted by a test below). Each row also keeps the column and
/// size of its first longest entry, so picking the global winner reads one
/// entry per row instead of all E²/2.
struct PairMemo {
    /// `best[i][j - i]` = score of the best match within pair `(i, j)`,
    /// `i ≤ j`.
    best: Vec<Vec<Option<Score>>>,
    /// `top[i]` = `(column, size)` of row `i`'s first longest entry
    /// (`None`: the row has no match).
    top: Vec<Option<(usize, usize)>>,
    /// `countable[e]`: [`countable`] of expression `e`.
    countable: Vec<bool>,
    /// Score every pair with the reference loop instead of by counting.
    reference: bool,
    scratch: Scratch,
    /// Matchless pairs a refresh left unscored.
    #[cfg(test)]
    skipped: usize,
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
            countable: Vec::with_capacity(exprs.len()),
            reference,
            scratch: Scratch::new(),
            #[cfg(test)]
            skipped: 0,
        };
        memo.extend(exprs);
        memo
    }

    fn score(&mut self, exprs: &[Expr], a: usize, b: usize) -> Option<Score> {
        if self.reference {
            pair_best_reference(exprs, a, b, &mut self.scratch.cands).map(|m| m.score())
        } else {
            pair_best(exprs, &self.countable, a, b, &mut self.scratch)
        }
    }

    /// Scores the pairs of expressions appended since the last call: new
    /// columns of existing rows, then new rows.
    fn extend(&mut self, exprs: &[Expr]) {
        let e = exprs.len();
        for x in &exprs[self.countable.len()..] {
            self.countable.push(countable(x));
        }
        for a in 0..self.best.len() {
            for b in (a + self.best[a].len())..e {
                let s = self.score(exprs, a, b);
                self.set(a, b, s);
            }
        }
        for a in self.best.len()..e {
            let row: Vec<Option<Score>> = (a..e).map(|b| self.score(exprs, a, b)).collect();
            self.top.push(first_longest(&row));
            self.best.push(row);
        }
    }

    /// Re-scans every pair touching `i`, `j`, or an expression appended
    /// since the last refresh, except the matchless pairs an extraction
    /// of `(i, j)` cannot have given a match; all other entries stay
    /// cached.
    fn refresh(&mut self, exprs: &[Expr], i: usize, j: usize) {
        for d in [i, j] {
            self.countable[d] = countable(&exprs[d]);
        }
        // Every pair with a new expression is scored here.
        let old = self.best.len();
        self.extend(exprs);
        // Pairs with a rewritten endpoint and an old one, each once.
        let ends: &[usize] = if i == j { &[i] } else { &[i, j] };
        for (n, &d) in ends.iter().enumerate() {
            for a in 0..old {
                if n == 1 && a == i {
                    continue; // (i, j), rescored for d = i
                }
                let (lo, hi) = if a <= d { (a, d) } else { (d, a) };
                if a != i && a != j && self.best[lo][hi - lo].is_none() {
                    #[cfg(test)]
                    {
                        self.skipped += 1;
                    }
                    continue;
                }
                let s = self.score(exprs, lo, hi);
                self.set(lo, hi, s);
            }
        }
    }

    /// Stores pair `(a, b)`'s score, appending it when `b` is a new
    /// column, and keeps row `a`'s top current.
    fn set(&mut self, a: usize, b: usize, s: Option<Score>) {
        let col = b - a;
        let len = s.map_or(0, |s| s.len);
        let row = &mut self.best[a];
        if col == row.len() {
            row.push(s);
        } else {
            row[col] = s;
        }
        let top = &mut self.top[a];
        *top = match *top {
            // The top entry shrank: any other entry may lead now.
            Some((c, n)) if c == col && len < n => first_longest(row),
            Some((c, n)) if c != col && (len < n || (len == n && c < col)) => Some((c, n)),
            _ if len > 0 => Some((col, len)),
            _ => None,
        };
    }

    /// The match a full rescan would select: first pair in ascending
    /// `(i, j)` order whose cached match is strictly larger than every
    /// earlier one, materialized.
    fn global_best(&self, exprs: &[Expr]) -> Option<Match> {
        // (row, column, size) of the winner so far.
        let mut best: Option<(usize, usize, usize)> = None;
        for (a, top) in self.top.iter().enumerate() {
            if let Some((c, n)) = *top {
                if best.is_none_or(|(_, _, m)| n > m) {
                    best = Some((a, c, n));
                }
            }
        }
        let (a, c, _) = best?;
        Some(materialize(exprs, a, a + c, self.best[a][c]?))
    }
}

/// `(column, size)` of the first longest entry in a memo row.
fn first_longest(row: &[Option<Score>]) -> Option<(usize, usize)> {
    let mut top: Option<(usize, usize)> = None;
    for (c, s) in row.iter().enumerate() {
        if let Some(s) = s {
            if top.is_none_or(|(_, n)| s.len > n) {
                top = Some((c, s.len));
            }
        }
    }
    top
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

    /// Steps the memoized loop and the O(E²) rescan side by side on
    /// `exprs` and asserts they extract the same match at every step.
    /// Returns how many matchless pairs the memo's refreshes left
    /// unscored.
    fn check_memo(mut exprs: Vec<Expr>) -> usize {
        let mut naive = exprs.clone();
        let mut memo = PairMemo::new(&exprs);
        loop {
            let fast = memo.global_best(&exprs);
            let slow = best_match(&naive);
            assert_eq!(fast, slow, "divergence on {naive:?}");
            let Some(m) = fast else { break };
            let (i, j) = (m.i, m.j);
            apply_match(&mut exprs, m.clone());
            apply_match(&mut naive, m);
            memo.refresh(&exprs, i, j);
        }
        assert_eq!(exprs, naive);
        memo.skipped
    }

    /// `count` seeded constants of up to 16 bits, negative, even and
    /// repeated ones included.
    fn random_constants(rng: &mut lintra_matrix::rng::SplitMix64, count: u64) -> Vec<i64> {
        let bits = 4 + rng.next_below(13) as u32;
        let mut consts: Vec<i64> = Vec::new();
        for _ in 0..count {
            let c = if !consts.is_empty() && rng.next_below(4) == 0 {
                consts[rng.next_below(consts.len() as u64) as usize]
            } else {
                rng.range_i64(-(1 << bits), 1 << bits) << rng.next_below(3)
            };
            consts.push(c);
        }
        consts
    }

    #[test]
    fn memoized_matching_equals_full_rescan() {
        for set in [
            vec![185i64, 235, 77, 1997, 45],
            (1..=24).map(|k| (k * 37 % 255) + 1).collect(),
            vec![3, 5, 9, 17, 33, 65, 129, 257],
        ] {
            let exprs: Vec<Expr> = set
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
            check_memo(exprs);
        }
    }

    #[test]
    fn memoized_matching_equals_full_rescan_on_random_pools() {
        let mut rng = lintra_matrix::rng::SplitMix64::new(0x3E30_0001);
        let mut skipped = 0;
        for round in 0..32 {
            let recoding = if round % 2 == 0 {
                Recoding::Csd
            } else {
                Recoding::Binary
            };
            let count = 24 + rng.next_below(41);
            let consts = random_constants(&mut rng, count);
            let (exprs, _) = initial_pool(&consts, recoding);
            skipped += check_memo(exprs);
        }
        // Pools this size always leave matchless pairs for a refresh to
        // skip; none skipped would mean the shortcut is dead code.
        assert!(skipped > 0, "no refresh skipped a matchless pair");
    }

    /// Steps the extraction loop on `exprs` and, before every step,
    /// holds the counting scorer to the reference loop on every pair,
    /// self-pairs included. Returns how many pairs a bare run count
    /// (distinctness assumed, not checked) would have misjudged.
    fn check_scorer(mut exprs: Vec<Expr>) -> usize {
        let mut scratch = Scratch::new();
        let mut misjudged = 0;
        loop {
            let counted: Vec<bool> = exprs.iter().map(countable).collect();
            let assumed = vec![true; exprs.len()];
            for i in 0..exprs.len() {
                for j in i..exprs.len() {
                    let fast = pair_best(&exprs, &counted, i, j, &mut scratch);
                    let slow = pair_best_reference(&exprs, i, j, &mut scratch.cands);
                    assert_eq!(
                        fast,
                        slow.as_ref().map(Match::score),
                        "({i}, {j}) {exprs:?}"
                    );
                    if let (Some(s), Some(m)) = (fast, slow) {
                        assert_eq!(materialize(&exprs, i, j, s), m, "({i}, {j}) {exprs:?}");
                    }
                    if i != j && pair_best(&exprs, &assumed, i, j, &mut scratch) != fast {
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
            let count = 2 + rng.next_below(24);
            let consts = random_constants(&mut rng, count);
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
