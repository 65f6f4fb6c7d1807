//! CLI over [`hinfs_bench::diff`]: gate a `benchmark/run.sh --out` file
//! against a baseline one and print the per-layer blame table.
//!
//! Usage: `bench_diff BASE.tsv CAND.tsv`
//!
//! Exits 0 when the gate passes, 1 when it fails, 2 on bad input.

use std::process::ExitCode;

use hinfs_bench::diff::{diff, parse_rows, Manifest, Rows, MANIFEST};

fn read(path: &str) -> Result<Rows, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_rows(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [base, cand] = args.as_slice() else {
        eprintln!("usage: bench_diff BASE.tsv CAND.tsv");
        return ExitCode::from(2);
    };
    match (read(base), read(cand)) {
        (Ok(base), Ok(cand)) => {
            let report = diff(&Manifest::parse(MANIFEST), &base, &cand);
            print!("{}", report.text);
            ExitCode::from(u8::from(report.failures > 0))
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            ExitCode::from(2)
        }
    }
}
