//! Exit-code stability snapshot.
//!
//! The class → exit-code mapping and the documented diagnostic codes are
//! a public contract: scripts grep the codes and branch on the exit
//! status. This suite pins both so a refactor cannot silently renumber
//! them — if one of these assertions fails, the change is breaking and
//! needs a deliberate migration note, not a test update.

use lintra::{ErrorClass, LintraError};
use lintra_bench::wire::WireFailure;
use lintra_cli::CliError;

#[test]
fn class_exit_codes_are_frozen() {
    let expected = [
        (ErrorClass::Validation, 2),
        (ErrorClass::Numerical, 3),
        (ErrorClass::Resource, 4),
        (ErrorClass::Convergence, 5),
        (ErrorClass::Io, 6),
    ];
    assert_eq!(
        ErrorClass::all().len(),
        expected.len(),
        "a new class needs a frozen code here"
    );
    for (class, code) in expected {
        assert_eq!(
            class.exit_code(),
            code,
            "{class:?} renumbered — breaking change"
        );
    }
}

#[test]
fn class_labels_round_trip() {
    for class in ErrorClass::all() {
        assert_eq!(ErrorClass::from_label(class.label()), Some(class));
    }
    assert_eq!(ErrorClass::from_label("nonesuch"), None);
}

#[test]
fn documented_codes_are_unique_and_prefixed_by_class() {
    let codes = lintra::diag::documented_codes();
    let mut seen = std::collections::BTreeSet::new();
    for (code, class) in codes {
        assert!(seen.insert(code), "duplicate documented code {code}");
        let prefix = match class {
            ErrorClass::Validation => "VAL-",
            ErrorClass::Numerical => "NUM-",
            ErrorClass::Resource => "RES-",
            ErrorClass::Convergence => "CNV-",
            ErrorClass::Io => "IO-",
        };
        assert!(
            code.starts_with(prefix),
            "{code} is documented as {class:?} but lacks the {prefix} prefix"
        );
    }
}

#[test]
fn service_codes_are_documented() {
    let codes = lintra::diag::documented_codes();
    for required in [
        "RES-OVERLOAD",
        "RES-CIRCUIT-OPEN",
        "RES-SHUTDOWN",
        "RES-DEADLINE",
        "RES-WORKER-STALL",
        "RES-WORKER-PANIC",
        "RES-DUPLICATE-REQUEST",
        "VAL-MALFORMED-REQUEST",
        "VAL-CONFIG",
        "IO-JOURNAL-CORRUPT",
        "RES-STALE-EPOCH",
        "RES-NOT-PRIMARY",
        "IO-REPL-CORRUPT",
        "RES-SATURATION-BUDGET",
        "CNV-SIM-INVARIANT",
        "VAL-FRAME-TOO-LARGE",
        "RES-SHARD-DOWN",
        "RES-RETRY-BUDGET",
    ] {
        assert!(
            codes.iter().any(|(c, _)| *c == required),
            "{required} must stay in documented_codes()"
        );
    }
}

#[test]
fn durability_codes_map_to_their_classes() {
    let codes = lintra::diag::documented_codes();
    let class_of = |code: &str| {
        codes
            .iter()
            .find(|(c, _)| *c == code)
            .map(|(_, class)| *class)
    };
    assert_eq!(
        class_of("RES-DUPLICATE-REQUEST"),
        Some(ErrorClass::Resource)
    );
    assert_eq!(class_of("IO-JOURNAL-CORRUPT"), Some(ErrorClass::Io));
    assert_eq!(class_of("RES-STALE-EPOCH"), Some(ErrorClass::Resource));
    assert_eq!(class_of("RES-NOT-PRIMARY"), Some(ErrorClass::Resource));
    assert_eq!(class_of("IO-REPL-CORRUPT"), Some(ErrorClass::Io));
    assert_eq!(
        class_of("VAL-FRAME-TOO-LARGE"),
        Some(ErrorClass::Validation)
    );
    assert_eq!(class_of("RES-SHARD-DOWN"), Some(ErrorClass::Resource));
    assert_eq!(class_of("RES-RETRY-BUDGET"), Some(ErrorClass::Resource));
}

#[test]
fn wire_failures_exit_like_local_failures_of_the_same_class() {
    for class in ErrorClass::all() {
        let remote = WireFailure {
            class,
            code: "X-TEST".to_string(),
            message: "snapshot".to_string(),
        };
        assert_eq!(remote.exit_code(), class.exit_code());
        assert_eq!(CliError::Remote(remote).exit_code(), class.exit_code());
    }
}

#[test]
fn cli_error_variants_keep_their_codes() {
    assert_eq!(CliError::Usage("bad".into()).exit_code(), 2);
    assert_eq!(
        CliError::Io(std::io::Error::other("disk full")).exit_code(),
        6
    );
    let pipeline = CliError::Pipeline(LintraError::new(
        ErrorClass::Convergence,
        "CNV-TEST",
        "did not settle",
    ));
    assert_eq!(pipeline.exit_code(), 5);
}
