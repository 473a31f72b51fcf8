//! Workspace automation. One command:
//!
//! ```text
//! cargo run -p xtask -- lint       # concurrency-hygiene lint pass
//! ```
//!
//! See [`lint`] for the rules the pass enforces.

use std::process::ExitCode;

mod lint;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint::run(),
        Some(other) => {
            eprintln!("xtask: unknown command `{other}` (try `xtask lint`)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("xtask: no command given (try `xtask lint`)");
            ExitCode::FAILURE
        }
    }
}
