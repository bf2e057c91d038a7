//! The paper's evaluation: runs every row of `ccfuzz_bench::TABLE` (or the
//! one named), prints its figures and a verdict line, and exits 1 when any
//! verdict differs from its row's recorded mark.
//!
//! ```sh
//! cargo run --release -p ccfuzz-bench --bin paper [-- [--paper-scale] [row]]
//! ```

use ccfuzz_bench::{parse_args, Mark, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let (scale, rows) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("paper: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut differ = Vec::new();
    for row in rows {
        println!(
            "\n==== {} ({}) at {scale:?} scale ====",
            row.name, row.reference
        );
        let verdict = row.report(&row.collect(scale, None));
        let seen = Mark::of(&verdict);
        let flag = if seen == row.mark {
            ""
        } else {
            " DIFFERS FROM MARK"
        };
        println!("expected: {}", row.claim);
        println!(
            "verdict [{}]: {seen:?} (mark {:?}){flag}: {}",
            row.name, row.mark, verdict.numbers
        );
        if seen != row.mark {
            differ.push(row.name);
        }
    }
    if differ.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "paper: verdicts differ from their marks: {}",
        differ.join(" ")
    );
    ExitCode::FAILURE
}
