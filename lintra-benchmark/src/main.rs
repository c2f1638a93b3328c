//! The `lintra-benchmark` command; see the library for what it runs.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    lintra_benchmark::cli(&args)
}
