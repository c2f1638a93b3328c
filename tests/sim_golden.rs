//! Golden snapshot of the simulator's three standard swarms.
//!
//! Every simulated node runs the shipping replication core
//! (`lintra_serve::protocol::Core`), and every simulated router the
//! shipping `RouterCore`, under virtual time and a seeded schedule. So
//! `tests/golden/sim_swarm.txt` pins what both cores decide, seed by
//! seed: each run's events, settles, dedups, promotions and fences, and
//! its whole `--trace` (faults, arbitration deferrals, promotions,
//! fences). A refactor of either core that moves a single decision, or
//! reorders two outputs, changes a line here.
//!
//! The file is what these three commands print, minus each run's last
//! line, the wall-clock time. To refresh it after an intentional change:
//!
//! ```text
//! cargo build --release
//! L=target/release/lintra
//! { $L sim --seed 1 --swarm 64 --trace
//!   $L sim --shards 2 --scenario primary-crash --swarm 64 --trace
//!   $L sim --shards 2 --scenario blackout --swarm 64 --trace
//! } | grep -v 'wall clock$' > tests/golden/sim_swarm.txt
//! ```

const RUNS: [&[&str]; 3] = [
    &["sim", "--seed", "1", "--swarm", "64", "--trace"],
    &[
        "sim",
        "--shards",
        "2",
        "--scenario",
        "primary-crash",
        "--swarm",
        "64",
        "--trace",
    ],
    &[
        "sim",
        "--shards",
        "2",
        "--scenario",
        "blackout",
        "--swarm",
        "64",
        "--trace",
    ],
];

/// One run's output through `lintra_cli::run`, without its wall-clock
/// line.
fn swarm(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let mut out = Vec::new();
    lintra_cli::run(&args, &mut out).unwrap_or_else(|e| panic!("{args:?} failed: {e}"));
    String::from_utf8_lossy(&out)
        .lines()
        .filter(|l| !l.ends_with("wall clock"))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn sim_swarms_match_golden_snapshot() {
    let got: String = RUNS.iter().map(|args| swarm(args)).collect();
    let golden = include_str!("golden/sim_swarm.txt");
    if got == golden {
        return;
    }
    let (got_lines, want_lines): (Vec<&str>, Vec<&str>) =
        (got.lines().collect(), golden.lines().collect());
    let first = got_lines
        .iter()
        .zip(&want_lines)
        .position(|(g, w)| g != w)
        .unwrap_or(got_lines.len().min(want_lines.len()));
    let at = |lines: &[&str]| {
        lines[first.saturating_sub(3)..(first + 3).min(lines.len())]
            .iter()
            .map(|l| format!("    {l}\n"))
            .collect::<String>()
    };
    panic!(
        "sim swarms differ from tests/golden/sim_swarm.txt ({} lines vs {} golden); \
         first difference at line {}:\n  got:\n{}  golden:\n{}",
        got_lines.len(),
        want_lines.len(),
        first + 1,
        at(&got_lines),
        at(&want_lines)
    );
}
