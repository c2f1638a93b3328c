//! Unified diagnostics for the whole pipeline.
//!
//! Every sub-crate defines a narrow, typed error enum close to the code
//! that can fail ([`lintra_matrix::MatrixError`],
//! [`lintra_linsys::LinsysError`], [`lintra_dfg::DfgError`], …). This
//! module folds all of them into one taxonomy, [`LintraError`], with:
//!
//! * a coarse [`ErrorClass`] (numerical, validation, resource,
//!   convergence, I/O) that callers can dispatch on — the CLI maps each
//!   class to a distinct nonzero exit code,
//! * a stable string [`LintraError::code`] for log grepping,
//! * the original error preserved as the [`std::error::Error::source`]
//!   chain, plus free-form [`LintraError::context`] frames describing
//!   *where in the pipeline* the failure surfaced.
//!
//! `From` impls exist for every per-crate error enum, so pipeline drivers
//! can use `?` throughout and still report a classified, coded error at
//! the top.

pub mod fault;

use std::error::Error;
use std::fmt;

use lintra_dfg::DfgError;
use lintra_egraph::EgraphError;
use lintra_engine::EngineError;
use lintra_filters::DesignFilterError;
use lintra_fixed::FixedSimError;
use lintra_linsys::c2d::DiscretizeError;
use lintra_linsys::LinsysError;
use lintra_matrix::MatrixError;
use lintra_mcm::VerifyMcmError;
use lintra_opt::OptError;
use lintra_power::{VoltageError, VoltageModelError};
use lintra_sched::{ScheduleError, ValidateScheduleError};

/// Coarse failure class of a [`LintraError`].
///
/// The class decides the process exit code ([`ErrorClass::exit_code`])
/// and is the level at which drivers choose a degradation strategy:
/// numerical failures poison everything downstream, resource failures can
/// be retried with more resources, convergence failures can fall back to
/// a linear (frequency-only) strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// NaN/Inf coefficients, unstable systems, fixed-point overflow —
    /// values that make further arithmetic meaningless.
    Numerical,
    /// Structurally invalid inputs or intermediate artifacts: shape
    /// mismatches, malformed graphs, failed post-transform verification.
    Validation,
    /// A required resource is absent or insufficient: zero processors,
    /// latency budget below the critical path.
    Resource,
    /// An iterative solver failed to converge (e.g. the voltage
    /// bisection).
    Convergence,
    /// File or stream I/O failed.
    Io,
}

impl ErrorClass {
    /// Distinct nonzero process exit code for this class.
    ///
    /// `1` is left for unclassified failures and `2` for CLI usage
    /// errors, matching common Unix conventions.
    pub fn exit_code(self) -> i32 {
        match self {
            ErrorClass::Validation => 2,
            ErrorClass::Numerical => 3,
            ErrorClass::Resource => 4,
            ErrorClass::Convergence => 5,
            ErrorClass::Io => 6,
        }
    }

    /// Short lowercase label (`"numerical"`, `"validation"`, …).
    pub fn label(self) -> &'static str {
        match self {
            ErrorClass::Numerical => "numerical",
            ErrorClass::Validation => "validation",
            ErrorClass::Resource => "resource",
            ErrorClass::Convergence => "convergence",
            ErrorClass::Io => "io",
        }
    }

    /// Inverse of [`ErrorClass::label`], used when a class crosses a
    /// process boundary as a string (the serve wire protocol).
    pub fn from_label(label: &str) -> Option<ErrorClass> {
        ErrorClass::all().into_iter().find(|c| c.label() == label)
    }

    /// Every class, for exhaustive mapping checks.
    pub fn all() -> [ErrorClass; 5] {
        [
            ErrorClass::Numerical,
            ErrorClass::Validation,
            ErrorClass::Resource,
            ErrorClass::Convergence,
            ErrorClass::Io,
        ]
    }
}

/// Every stable diagnostic code the pipeline and the serve layer can
/// emit, paired with its class. This is the contract the exit-code
/// snapshot test pins: a code leaves only with the behaviour that emits
/// it, classes never drift, and the code prefix always matches the
/// class (`NUM-` numerical, `VAL-` validation, `RES-` resource, `CNV-`
/// convergence, `IO-` io).
pub fn documented_codes() -> &'static [(&'static str, ErrorClass)] {
    &[
        ("NUM-NONFINITE", ErrorClass::Numerical),
        ("NUM-SINGULAR", ErrorClass::Numerical),
        ("NUM-UNSTABLE", ErrorClass::Numerical),
        ("NUM-OVERFLOW", ErrorClass::Numerical),
        ("VAL-SHAPE", ErrorClass::Validation),
        ("VAL-MISSING-DATA", ErrorClass::Validation),
        ("VAL-PERIOD", ErrorClass::Validation),
        ("VAL-FILTER-SPEC", ErrorClass::Validation),
        ("VAL-GRAPH", ErrorClass::Validation),
        ("VAL-MCM-PLAN", ErrorClass::Validation),
        ("VAL-SCHEDULE", ErrorClass::Validation),
        ("VAL-VOLTAGE-MODEL", ErrorClass::Validation),
        ("VAL-VOLTAGE", ErrorClass::Validation),
        ("VAL-SLOWDOWN", ErrorClass::Validation),
        ("VAL-CONFIG", ErrorClass::Validation),
        ("VAL-MALFORMED-REQUEST", ErrorClass::Validation),
        ("VAL-FRAME-TOO-LARGE", ErrorClass::Validation),
        ("RES-NO-PROCESSORS", ErrorClass::Resource),
        ("RES-WORKER-PANIC", ErrorClass::Resource),
        ("RES-WORKER-STALL", ErrorClass::Resource),
        ("RES-DEADLINE", ErrorClass::Resource),
        ("RES-CANCELLED", ErrorClass::Resource),
        ("RES-OVERLOAD", ErrorClass::Resource),
        ("RES-CIRCUIT-OPEN", ErrorClass::Resource),
        ("RES-SHUTDOWN", ErrorClass::Resource),
        ("RES-DUPLICATE-REQUEST", ErrorClass::Resource),
        ("RES-STALE-EPOCH", ErrorClass::Resource),
        ("RES-NOT-PRIMARY", ErrorClass::Resource),
        ("RES-SATURATION-BUDGET", ErrorClass::Resource),
        ("RES-SHARD-DOWN", ErrorClass::Resource),
        ("RES-RETRY-BUDGET", ErrorClass::Resource),
        ("CNV-BISECTION", ErrorClass::Convergence),
        ("CNV-SIM-INVARIANT", ErrorClass::Convergence),
        ("IO-FAILURE", ErrorClass::Io),
        ("IO-JOURNAL-CORRUPT", ErrorClass::Io),
        ("IO-REPL-CORRUPT", ErrorClass::Io),
    ]
}

/// The unified pipeline error: classified, coded, with the original typed
/// error kept as the source chain.
#[derive(Debug)]
pub struct LintraError {
    class: ErrorClass,
    code: &'static str,
    message: String,
    context: Vec<String>,
    source: Option<Box<dyn Error + Send + Sync + 'static>>,
}

impl LintraError {
    /// Builds a fresh error with no source.
    pub fn new(class: ErrorClass, code: &'static str, message: impl Into<String>) -> LintraError {
        LintraError {
            class,
            code,
            message: message.into(),
            context: Vec::new(),
            source: None,
        }
    }

    /// Wraps a typed per-crate error, keeping it as the source.
    pub fn wrap(
        class: ErrorClass,
        code: &'static str,
        source: impl Error + Send + Sync + 'static,
    ) -> LintraError {
        LintraError {
            class,
            code,
            message: source.to_string(),
            context: Vec::new(),
            source: Some(Box::new(source)),
        }
    }

    /// Appends a context frame describing where in the pipeline the
    /// failure surfaced (outermost last).
    #[must_use]
    pub fn context(mut self, frame: impl Into<String>) -> LintraError {
        self.context.push(frame.into());
        self
    }

    /// The failure class.
    pub fn class(&self) -> ErrorClass {
        self.class
    }

    /// Stable machine-grepable code, e.g. `"NUM-UNSTABLE"`.
    pub fn code(&self) -> &'static str {
        self.code
    }

    /// The bare message, without the `error[CODE] class:` prefix or the
    /// context frames — for transports that re-render the prefix.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The context frames added so far (innermost first).
    pub fn context_frames(&self) -> &[String] {
        &self.context
    }

    /// Process exit code for this error (`ErrorClass::exit_code`).
    pub fn exit_code(&self) -> i32 {
        self.class.exit_code()
    }
}

impl fmt::Display for LintraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}] {}: {}",
            self.code,
            self.class.label(),
            self.message
        )?;
        for frame in &self.context {
            write!(f, "\n  while {frame}")?;
        }
        Ok(())
    }
}

impl Error for LintraError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        self.source.as_deref().map(|e| e as &(dyn Error + 'static))
    }
}

impl From<MatrixError> for LintraError {
    fn from(e: MatrixError) -> Self {
        let (class, code) = match &e {
            MatrixError::NonFinite { .. } => (ErrorClass::Numerical, "NUM-NONFINITE"),
            MatrixError::Singular => (ErrorClass::Numerical, "NUM-SINGULAR"),
            MatrixError::ShapeMismatch { .. } | MatrixError::NotSquare { .. } => {
                (ErrorClass::Validation, "VAL-SHAPE")
            }
        };
        LintraError::wrap(class, code, e)
    }
}

impl From<LinsysError> for LintraError {
    fn from(e: LinsysError) -> Self {
        let (class, code) = match &e {
            LinsysError::NonFinite { .. } => (ErrorClass::Numerical, "NUM-NONFINITE"),
            LinsysError::UnstableSystem { .. } => (ErrorClass::Numerical, "NUM-UNSTABLE"),
            LinsysError::InconsistentShapes { .. } => (ErrorClass::Validation, "VAL-SHAPE"),
            LinsysError::BadVectorLength { .. } => (ErrorClass::Validation, "VAL-MISSING-DATA"),
        };
        LintraError::wrap(class, code, e)
    }
}

impl From<DiscretizeError> for LintraError {
    fn from(e: DiscretizeError) -> Self {
        match e {
            DiscretizeError::Shapes(inner) => {
                LintraError::from(inner).context("discretizing a continuous plant")
            }
            DiscretizeError::Expm(inner) => {
                LintraError::from(inner).context("computing the matrix exponential")
            }
            DiscretizeError::BadPeriod(_) => {
                LintraError::wrap(ErrorClass::Validation, "VAL-PERIOD", e)
            }
        }
    }
}

impl From<DesignFilterError> for LintraError {
    fn from(e: DesignFilterError) -> Self {
        LintraError::wrap(ErrorClass::Validation, "VAL-FILTER-SPEC", e)
    }
}

impl From<DfgError> for LintraError {
    fn from(e: DfgError) -> Self {
        let (class, code) = match &e {
            DfgError::NonFinite { .. } => (ErrorClass::Numerical, "NUM-NONFINITE"),
            DfgError::Arity { .. } | DfgError::ForwardReference { .. } => {
                (ErrorClass::Validation, "VAL-GRAPH")
            }
            DfgError::MissingInput { .. } | DfgError::MissingState { .. } => {
                (ErrorClass::Validation, "VAL-MISSING-DATA")
            }
        };
        LintraError::wrap(class, code, e)
    }
}

impl From<FixedSimError> for LintraError {
    fn from(e: FixedSimError) -> Self {
        match e {
            FixedSimError::Overflow { .. } => {
                LintraError::wrap(ErrorClass::Numerical, "NUM-OVERFLOW", e)
            }
            FixedSimError::Reference(inner) => {
                LintraError::from(inner).context("running the f64 reference simulation")
            }
            FixedSimError::MissingInput { .. } | FixedSimError::MissingState { .. } => {
                LintraError::wrap(ErrorClass::Validation, "VAL-MISSING-DATA", e)
            }
        }
    }
}

impl From<VerifyMcmError> for LintraError {
    fn from(e: VerifyMcmError) -> Self {
        LintraError::wrap(ErrorClass::Validation, "VAL-MCM-PLAN", e)
    }
}

impl From<ScheduleError> for LintraError {
    fn from(e: ScheduleError) -> Self {
        LintraError::wrap(ErrorClass::Resource, "RES-NO-PROCESSORS", e)
    }
}

impl From<ValidateScheduleError> for LintraError {
    fn from(e: ValidateScheduleError) -> Self {
        LintraError::wrap(ErrorClass::Validation, "VAL-SCHEDULE", e)
    }
}

impl From<VoltageModelError> for LintraError {
    fn from(e: VoltageModelError) -> Self {
        LintraError::wrap(ErrorClass::Validation, "VAL-VOLTAGE-MODEL", e)
    }
}

impl From<VoltageError> for LintraError {
    fn from(e: VoltageError) -> Self {
        let (class, code) = match &e {
            VoltageError::NonConvergence { .. } => (ErrorClass::Convergence, "CNV-BISECTION"),
            VoltageError::BelowThreshold { .. } => (ErrorClass::Validation, "VAL-VOLTAGE"),
            VoltageError::InfeasibleSlowdown { .. } => (ErrorClass::Validation, "VAL-SLOWDOWN"),
        };
        LintraError::wrap(class, code, e)
    }
}

impl From<OptError> for LintraError {
    fn from(e: OptError) -> Self {
        match e {
            OptError::Linsys(inner) => LintraError::from(inner).context("optimizing"),
            OptError::Dfg(inner) => LintraError::from(inner).context("optimizing"),
            OptError::Schedule(inner) => LintraError::from(inner).context("optimizing"),
            OptError::Voltage(inner) => LintraError::from(inner).context("optimizing"),
            OptError::Engine(inner) => LintraError::from(inner).context("optimizing"),
            OptError::Egraph(inner) => LintraError::from(inner).context("optimizing"),
        }
    }
}

impl From<EgraphError> for LintraError {
    fn from(e: EgraphError) -> Self {
        match e {
            EgraphError::Graph(inner) => LintraError::from(inner).context("equality saturation"),
            EgraphError::Budget { .. } => {
                LintraError::wrap(ErrorClass::Resource, "RES-SATURATION-BUDGET", e)
            }
            EgraphError::UnsupportedGraph { .. }
            | EgraphError::InterfaceMismatch { .. }
            | EgraphError::Unextractable { .. } => {
                LintraError::wrap(ErrorClass::Validation, "VAL-GRAPH", e)
            }
        }
    }
}

impl From<EngineError> for LintraError {
    fn from(e: EngineError) -> Self {
        // Engine failures are resource-layer: the sweep point's
        // computation was lost (panic, stall, cancellation), siblings and
        // the pool itself survived. The exception is a bad LINTRA_JOBS
        // value, which is a configuration (validation-class) mistake.
        let (class, code) = match &e {
            EngineError::WorkerPanic { .. } => (ErrorClass::Resource, "RES-WORKER-PANIC"),
            EngineError::WorkerStall { .. } => (ErrorClass::Resource, "RES-WORKER-STALL"),
            EngineError::DeadlineExpired { .. } => (ErrorClass::Resource, "RES-DEADLINE"),
            EngineError::Cancelled { .. } => (ErrorClass::Resource, "RES-CANCELLED"),
            EngineError::InvalidJobs { .. } => (ErrorClass::Validation, "VAL-CONFIG"),
        };
        LintraError::wrap(class, code, e)
    }
}

impl From<std::io::Error> for LintraError {
    fn from(e: std::io::Error) -> Self {
        LintraError::wrap(ErrorClass::Io, "IO-FAILURE", e)
    }
}

impl From<lintra_opt::UnknownStrategy> for LintraError {
    fn from(e: lintra_opt::UnknownStrategy) -> Self {
        // A bad strategy name is a configuration mistake, rejected with a
        // diagnostic rather than silently falling back to `single`.
        LintraError::wrap(ErrorClass::Validation, "VAL-CONFIG", e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_map_to_distinct_nonzero_exit_codes() {
        let classes = [
            ErrorClass::Numerical,
            ErrorClass::Validation,
            ErrorClass::Resource,
            ErrorClass::Convergence,
            ErrorClass::Io,
        ];
        let codes: Vec<i32> = classes.iter().map(|c| c.exit_code()).collect();
        for (i, &a) in codes.iter().enumerate() {
            assert!(a > 0, "{:?} has non-positive exit code {a}", classes[i]);
            for &b in &codes[i + 1..] {
                assert_ne!(a, b, "duplicate exit code {a}");
            }
        }
    }

    #[test]
    fn unstable_system_classifies_as_numerical() {
        let e: LintraError = LinsysError::UnstableSystem {
            spectral_radius: 1.5,
        }
        .into();
        assert_eq!(e.class(), ErrorClass::Numerical);
        assert_eq!(e.code(), "NUM-UNSTABLE");
        assert!(e.to_string().contains("spectral radius"));
        assert!(e.source().is_some());
    }

    #[test]
    fn overflow_classifies_as_numerical_with_node() {
        let e: LintraError = FixedSimError::Overflow { node: 17 }.into();
        assert_eq!(e.class(), ErrorClass::Numerical);
        assert!(e.to_string().contains("node 17"));
    }

    #[test]
    fn starvation_classifies_as_resource() {
        let e: LintraError = ScheduleError::NoProcessors.into();
        assert_eq!(e.class(), ErrorClass::Resource);
        assert_eq!(e.exit_code(), 4);
    }

    #[test]
    fn bisection_failure_classifies_as_convergence() {
        let e: LintraError = VoltageError::NonConvergence {
            slowdown: 1e308,
            iterations: 0,
        }
        .into();
        assert_eq!(e.class(), ErrorClass::Convergence);
        assert_eq!(e.exit_code(), 5);
    }

    #[test]
    fn nested_errors_unwrap_through_the_source_chain() {
        let e: LintraError = OptError::Linsys(LinsysError::NonFinite { what: "A" }).into();
        assert_eq!(e.class(), ErrorClass::Numerical);
        assert_eq!(e.context_frames(), ["optimizing"]);
        let mut depth = 0;
        let mut cur: &dyn Error = &e;
        while let Some(next) = cur.source() {
            depth += 1;
            cur = next;
        }
        assert!(depth >= 1, "source chain should be preserved");
        assert!(e.to_string().contains("while optimizing"));
    }

    #[test]
    fn engine_robustness_errors_map_to_their_documented_codes() {
        for (err, code, class) in [
            (
                EngineError::DeadlineExpired { task: 3 },
                "RES-DEADLINE",
                ErrorClass::Resource,
            ),
            (
                EngineError::Cancelled { task: 3 },
                "RES-CANCELLED",
                ErrorClass::Resource,
            ),
            (
                EngineError::WorkerStall {
                    task: 1,
                    elapsed_ms: 90,
                    budget_ms: 25,
                },
                "RES-WORKER-STALL",
                ErrorClass::Resource,
            ),
            (
                EngineError::InvalidJobs {
                    value: "zero".into(),
                },
                "VAL-CONFIG",
                ErrorClass::Validation,
            ),
        ] {
            let e = LintraError::from(err);
            assert_eq!(e.code(), code);
            assert_eq!(e.class(), class);
        }
    }

    #[test]
    fn class_labels_round_trip() {
        for c in ErrorClass::all() {
            assert_eq!(ErrorClass::from_label(c.label()), Some(c));
        }
        assert_eq!(ErrorClass::from_label("bogus"), None);
    }

    #[test]
    fn documented_codes_are_unique_and_prefix_consistent() {
        let codes = documented_codes();
        for (i, (code, class)) in codes.iter().enumerate() {
            let prefix = match class {
                ErrorClass::Numerical => "NUM-",
                ErrorClass::Validation => "VAL-",
                ErrorClass::Resource => "RES-",
                ErrorClass::Convergence => "CNV-",
                ErrorClass::Io => "IO-",
            };
            assert!(
                code.starts_with(prefix),
                "{code} should start with {prefix}"
            );
            for (other, _) in &codes[i + 1..] {
                assert_ne!(code, other, "duplicate documented code");
            }
        }
    }

    #[test]
    fn context_frames_accumulate_in_order() {
        let e = LintraError::new(ErrorClass::Io, "IO-FAILURE", "disk on fire")
            .context("writing the report")
            .context("running the asic flow");
        assert_eq!(e.context_frames().len(), 2);
        let s = e.to_string();
        let a = s.find("writing the report").expect("inner frame present");
        let b = s
            .find("running the asic flow")
            .expect("outer frame present");
        assert!(a < b, "inner frame should print first");
    }
}
