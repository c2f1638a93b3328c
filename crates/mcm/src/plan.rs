//! The explicit shift-add plan produced by MCM synthesis.

use crate::Cost;
use std::collections::HashSet;
use std::fmt;

/// What a [`Term`] multiplies: the input variable `x` or a previously built
/// intermediate expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// The multiplied variable `x` itself.
    Input,
    /// The intermediate expression at the given index of
    /// [`McmSolution::exprs`].
    Expr(usize),
}

/// One addend `± (source ≪ shift)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Term {
    /// What is shifted.
    pub source: Source,
    /// Left-shift amount.
    pub shift: u32,
    /// `true` when the term is subtracted.
    pub neg: bool,
}

/// A sum of terms. An expression with `n ≥ 1` terms costs `n − 1`
/// additions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Expr {
    /// The addends. Never empty in a valid solution.
    pub terms: Vec<Term>,
}

/// How one requested constant is delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputRef {
    /// The constant is 0.
    Zero,
    /// The constant is `± 2^shift · source` (covers ±1, ±2^k, and shared
    /// odd parts).
    Scaled(Term),
}

/// Error from [`McmSolution::verify`] or [`McmSolution::expr_values`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyMcmError {
    /// An output computes a different constant than requested.
    OutputMismatch {
        /// Index of the offending output.
        output: usize,
        /// The requested constant.
        expected: i64,
        /// What the plan actually computes.
        actual: i128,
    },
    /// The plan's expressions reference each other cyclically, so no
    /// evaluation order exists (a correctly synthesized plan never does
    /// this; reported instead of panicking so a buggy synthesis pass
    /// degrades gracefully).
    ReferenceCycle {
        /// Index of an expression on the cycle.
        expr: usize,
    },
    /// A term references an expression past the end of
    /// [`McmSolution::exprs`].
    DanglingReference {
        /// The referenced index.
        expr: usize,
    },
    /// A term shifts by 128 bits or more, past the width of the `i128`
    /// evaluation.
    ShiftOutOfRange {
        /// The term's shift.
        shift: u32,
    },
    /// A term, expression or output value does not fit in an `i128`.
    Overflow,
}

impl fmt::Display for VerifyMcmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyMcmError::OutputMismatch {
                output,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "mcm output {output} computes {actual} instead of {expected}"
                )
            }
            VerifyMcmError::ReferenceCycle { expr } => {
                write!(f, "mcm plan contains a reference cycle at e{expr}")
            }
            VerifyMcmError::DanglingReference { expr } => {
                write!(f, "mcm plan references e{expr}, which it does not define")
            }
            VerifyMcmError::ShiftOutOfRange { shift } => {
                write!(f, "mcm plan shifts by {shift} bits, past 127")
            }
            VerifyMcmError::Overflow => write!(f, "mcm plan value overflows 128 bits"),
        }
    }
}

impl std::error::Error for VerifyMcmError {}

/// A complete, verifiable shift-add realization of a set of constant
/// multiplications with a common variable.
///
/// Produced by [`crate::synthesize`]. `exprs` holds every expression built
/// (shared odd-constant expressions and extracted common subexpressions);
/// each expression only references `Input` or expressions *created before
/// it*, so a single forward pass (or memoized recursion) evaluates the
/// plan.
#[derive(Debug, Clone, PartialEq)]
pub struct McmSolution {
    /// All expressions, in creation order.
    pub exprs: Vec<Expr>,
    /// One entry per requested constant, in input order.
    pub outputs: Vec<(i64, OutputRef)>,
}

impl McmSolution {
    /// Value computed by a term whose source evaluates to `base`.
    fn term_value(term: &Term, base: i128) -> Result<i128, VerifyMcmError> {
        if term.shift >= i128::BITS {
            return Err(VerifyMcmError::ShiftOutOfRange { shift: term.shift });
        }
        let signed = if term.neg {
            base.checked_neg().ok_or(VerifyMcmError::Overflow)?
        } else {
            base
        };
        let v = signed << term.shift;
        // The shift lost bits (or the sign) unless it undoes exactly.
        if v >> term.shift != signed {
            return Err(VerifyMcmError::Overflow);
        }
        Ok(v)
    }

    /// Evaluates every expression for `x = 1` (so each value *is* the
    /// constant factor it realizes).
    ///
    /// Rewriting during synthesis makes early expressions reference newer
    /// intermediates, so evaluation is a memoized recursion over the
    /// reference DAG rather than a single index-order pass.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyMcmError::ReferenceCycle`] if the plan contains a
    /// reference cycle, [`VerifyMcmError::DanglingReference`] if a term
    /// references a missing expression,
    /// [`VerifyMcmError::ShiftOutOfRange`] for a shift of 128 or more and
    /// [`VerifyMcmError::Overflow`] for a value past `i128` (none of which
    /// a correctly synthesized plan has).
    pub fn expr_values(&self) -> Result<Vec<i128>, VerifyMcmError> {
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            Unvisited,
            InProgress,
            Done,
        }
        fn eval(
            exprs: &[Expr],
            i: usize,
            values: &mut [i128],
            state: &mut [State],
        ) -> Result<i128, VerifyMcmError> {
            match state.get(i) {
                None => return Err(VerifyMcmError::DanglingReference { expr: i }),
                Some(State::Done) => return Ok(values[i]),
                Some(State::InProgress) => return Err(VerifyMcmError::ReferenceCycle { expr: i }),
                Some(State::Unvisited) => {}
            }
            state[i] = State::InProgress;
            let mut sum = 0i128;
            for t in &exprs[i].terms {
                let base = match t.source {
                    Source::Input => 1i128,
                    Source::Expr(j) => eval(exprs, j, values, state)?,
                };
                sum = sum
                    .checked_add(McmSolution::term_value(t, base)?)
                    .ok_or(VerifyMcmError::Overflow)?;
            }
            values[i] = sum;
            state[i] = State::Done;
            Ok(sum)
        }

        let mut values = vec![0i128; self.exprs.len()];
        let mut state = vec![State::Unvisited; self.exprs.len()];
        for i in 0..self.exprs.len() {
            eval(&self.exprs, i, &mut values, &mut state)?;
        }
        Ok(values)
    }

    /// The constant factor each output actually computes.
    ///
    /// # Errors
    ///
    /// Those of [`McmSolution::expr_values`], for the expressions and for
    /// the outputs' own terms.
    pub fn output_values(&self) -> Result<Vec<i128>, VerifyMcmError> {
        let values = self.expr_values()?;
        self.outputs
            .iter()
            .map(|(_, r)| match r {
                OutputRef::Zero => Ok(0),
                OutputRef::Scaled(t) => {
                    let base = match t.source {
                        Source::Input => 1i128,
                        Source::Expr(j) => *values
                            .get(j)
                            .ok_or(VerifyMcmError::DanglingReference { expr: j })?,
                    };
                    McmSolution::term_value(t, base)
                }
            })
            .collect()
    }

    /// Checks that every output computes its requested constant.
    ///
    /// # Errors
    ///
    /// Returns the first mismatching output, or the error of
    /// [`McmSolution::output_values`] for an unevaluable plan.
    pub fn verify(&self) -> Result<(), VerifyMcmError> {
        for (i, (v, (c, _))) in self.output_values()?.iter().zip(&self.outputs).enumerate() {
            if *v != *c as i128 {
                return Err(VerifyMcmError::OutputMismatch {
                    output: i,
                    expected: *c,
                    actual: *v,
                });
            }
        }
        Ok(())
    }

    /// Number of two-operand additions in the plan: `Σ (terms − 1)` over
    /// all expressions.
    pub fn adds(&self) -> usize {
        self.exprs
            .iter()
            .map(|e| e.terms.len().saturating_sub(1))
            .sum()
    }

    /// Number of distinct shifters: distinct `(source, shift)` pairs with a
    /// nonzero shift anywhere in the plan (shift networks are shared, as in
    /// the paper's §5 discussion).
    pub fn shifts(&self) -> usize {
        let mut set: HashSet<(Source, u32)> = HashSet::new();
        for e in &self.exprs {
            for t in &e.terms {
                if t.shift > 0 {
                    set.insert((t.source, t.shift));
                }
            }
        }
        for (_, r) in &self.outputs {
            if let OutputRef::Scaled(t) = r {
                if t.shift > 0 {
                    set.insert((t.source, t.shift));
                }
            }
        }
        set.len()
    }

    /// Combined cost.
    pub fn cost(&self) -> Cost {
        Cost {
            adds: self.adds(),
            shifts: self.shifts(),
        }
    }
}

impl fmt::Display for McmSolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn term(t: &Term) -> String {
            let src = match t.source {
                Source::Input => "x".to_string(),
                Source::Expr(i) => format!("e{i}"),
            };
            let shifted = if t.shift > 0 {
                format!("{src}<<{}", t.shift)
            } else {
                src
            };
            if t.neg {
                format!("- {shifted}")
            } else {
                format!("+ {shifted}")
            }
        }
        let values = self.expr_values().unwrap_or_default();
        for (i, e) in self.exprs.iter().enumerate() {
            let body: Vec<String> = e.terms.iter().map(term).collect();
            let v = values.get(i).copied().unwrap_or(0);
            writeln!(f, "e{i} = {}   // = {v}*x", body.join(" "))?;
        }
        for (c, r) in &self.outputs {
            match r {
                OutputRef::Zero => writeln!(f, "out({c}) = 0")?,
                OutputRef::Scaled(t) => writeln!(f, "out({c}) = {}", term(t))?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(source: Source, shift: u32, neg: bool) -> Term {
        Term { source, shift, neg }
    }

    #[test]
    fn hand_built_plan_evaluates() {
        // e0 = x<<2 + x = 5x; out(10) = e0 << 1; out(-5) = -e0.
        let sol = McmSolution {
            exprs: vec![Expr {
                terms: vec![t(Source::Input, 2, false), t(Source::Input, 0, false)],
            }],
            outputs: vec![
                (10, OutputRef::Scaled(t(Source::Expr(0), 1, false))),
                (-5, OutputRef::Scaled(t(Source::Expr(0), 0, true))),
                (0, OutputRef::Zero),
            ],
        };
        assert_eq!(sol.expr_values().unwrap(), vec![5]);
        assert_eq!(sol.output_values().unwrap(), vec![10, -5, 0]);
        sol.verify().unwrap();
        assert_eq!(sol.adds(), 1);
        // Distinct shifts: (x,2) and (e0,1).
        assert_eq!(sol.shifts(), 2);
    }

    #[test]
    fn verify_reports_mismatch() {
        let sol = McmSolution {
            exprs: vec![Expr {
                terms: vec![t(Source::Input, 1, false)],
            }],
            outputs: vec![(3, OutputRef::Scaled(t(Source::Expr(0), 0, false)))],
        };
        let err = sol.verify().unwrap_err();
        assert_eq!(
            err,
            VerifyMcmError::OutputMismatch {
                output: 0,
                expected: 3,
                actual: 2
            }
        );
        assert!(err.to_string().contains("computes 2 instead of 3"));
    }

    #[test]
    fn reference_cycle_reported_not_panicking() {
        // e0 references e1 and e1 references e0.
        let sol = McmSolution {
            exprs: vec![
                Expr {
                    terms: vec![t(Source::Expr(1), 0, false)],
                },
                Expr {
                    terms: vec![t(Source::Expr(0), 1, false)],
                },
            ],
            outputs: vec![(2, OutputRef::Scaled(t(Source::Expr(1), 0, false)))],
        };
        let err = sol.expr_values().unwrap_err();
        assert!(matches!(err, VerifyMcmError::ReferenceCycle { .. }));
        assert!(sol.verify().is_err());
        // Display must not panic either.
        let _ = format!("{sol}");
    }

    #[test]
    fn dangling_reference_reported_not_panicking() {
        // e0 references e1, which does not exist; so does the output.
        for sol in [
            McmSolution {
                exprs: vec![Expr {
                    terms: vec![t(Source::Input, 0, false), t(Source::Expr(1), 1, false)],
                }],
                outputs: vec![(3, OutputRef::Scaled(t(Source::Expr(0), 0, false)))],
            },
            McmSolution {
                exprs: vec![],
                outputs: vec![(3, OutputRef::Scaled(t(Source::Expr(1), 0, false)))],
            },
        ] {
            let err = sol.verify().unwrap_err();
            assert_eq!(err, VerifyMcmError::DanglingReference { expr: 1 });
            assert!(err.to_string().contains("e1"), "{err}");
            let _ = format!("{sol}");
        }
    }

    #[test]
    fn shift_out_of_range_reported_not_panicking() {
        // A shift of 128 is past the i128 evaluation, in an expression
        // and in an output.
        for sol in [
            McmSolution {
                exprs: vec![Expr {
                    terms: vec![t(Source::Input, 0, false), t(Source::Input, 128, false)],
                }],
                outputs: vec![(1, OutputRef::Scaled(t(Source::Expr(0), 0, false)))],
            },
            McmSolution {
                exprs: vec![],
                outputs: vec![(1, OutputRef::Scaled(t(Source::Input, 200, true)))],
            },
        ] {
            assert!(matches!(
                sol.verify().unwrap_err(),
                VerifyMcmError::ShiftOutOfRange { shift: 128 | 200 }
            ));
            let _ = format!("{sol}");
        }
    }

    #[test]
    fn overflow_reported_not_panicking() {
        // x<<126 + x<<126 = 2^127 overflows the sum; (x<<64)<<64 loses
        // every bit to the shift; -(-x<<127) negates i128::MIN.
        let big = t(Source::Input, 126, false);
        let sols = [
            vec![Expr {
                terms: vec![big, big],
            }],
            vec![
                Expr {
                    terms: vec![t(Source::Input, 64, false)],
                },
                Expr {
                    terms: vec![t(Source::Expr(0), 64, false)],
                },
            ],
            vec![
                Expr {
                    terms: vec![t(Source::Input, 127, true)],
                },
                Expr {
                    terms: vec![t(Source::Expr(0), 0, true)],
                },
            ],
        ];
        for exprs in sols {
            let sol = McmSolution {
                exprs,
                outputs: vec![(1, OutputRef::Scaled(t(Source::Expr(0), 0, false)))],
            };
            assert_eq!(sol.verify().unwrap_err(), VerifyMcmError::Overflow);
            assert_eq!(sol.expr_values().unwrap_err(), VerifyMcmError::Overflow);
            let _ = format!("{sol}");
        }
        // -(x<<127) is i128::MIN itself, which fits.
        let sol = McmSolution {
            exprs: vec![Expr {
                terms: vec![t(Source::Input, 127, true)],
            }],
            outputs: vec![],
        };
        assert_eq!(sol.expr_values().unwrap(), vec![i128::MIN]);
    }

    #[test]
    fn shared_shifts_counted_once() {
        // Two expressions both using x<<3: one shifter.
        let sol = McmSolution {
            exprs: vec![
                Expr {
                    terms: vec![t(Source::Input, 3, false), t(Source::Input, 0, false)],
                },
                Expr {
                    terms: vec![t(Source::Input, 3, false), t(Source::Input, 0, true)],
                },
            ],
            outputs: vec![
                (9, OutputRef::Scaled(t(Source::Expr(0), 0, false))),
                (7, OutputRef::Scaled(t(Source::Expr(1), 0, false))),
            ],
        };
        sol.verify().unwrap();
        assert_eq!(sol.shifts(), 1);
        assert_eq!(sol.adds(), 2);
    }

    #[test]
    fn display_lists_expressions() {
        let sol = McmSolution {
            exprs: vec![Expr {
                terms: vec![t(Source::Input, 2, false), t(Source::Input, 0, true)],
            }],
            outputs: vec![(3, OutputRef::Scaled(t(Source::Expr(0), 0, false)))],
        };
        let s = sol.to_string();
        assert!(s.contains("e0 = + x<<2 - x"), "{s}");
        assert!(s.contains("out(3)"), "{s}");
    }
}
