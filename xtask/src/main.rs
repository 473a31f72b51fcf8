//! Workspace automation. Two commands:
//!
//! ```text
//! cargo run -p xtask -- lint           # concurrency-hygiene lint pass
//! cargo run -p xtask -- loc [crate…]   # non-test / code-only lines per crate
//! ```
//!
//! See [`lint`] for the rules the pass enforces and [`loc`] for the counting
//! rule.

use std::process::ExitCode;

mod lint;
mod loc;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint::run(),
        Some("loc") => loc::run(args.collect()),
        Some(other) => {
            eprintln!("xtask: unknown command `{other}` (try `xtask lint` or `xtask loc`)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("xtask: no command given (try `xtask lint` or `xtask loc`)");
            ExitCode::FAILURE
        }
    }
}
