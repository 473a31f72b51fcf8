//! Line counts per crate (`cargo run -p xtask -- loc [crate…]`).
//!
//! For each named crate (default: every directory under `crates/`), sums
//! over the `.rs` files under its `src/`:
//!
//! * **non-test** lines — a file's lines before its first `#[cfg(test)]`
//!   that starts at column 0;
//! * **code-only** lines — the non-test lines that are not blank and do not
//!   start (after indentation) with `//`.

use std::process::ExitCode;

use crate::lint::{collect_rs_files, workspace_root};

/// `(non-test, code-only)` lines of one file's contents.
pub fn count(content: &str) -> (usize, usize) {
    let body = content.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
    body.fold((0, 0), |(all, code), l| {
        let t = l.trim();
        (all + 1, code + usize::from(!t.is_empty() && !t.starts_with("//")))
    })
}

/// Entry point for `xtask loc`.
pub fn run(names: Vec<String>) -> ExitCode {
    let crates = workspace_root().join("crates");
    let names = if names.is_empty() {
        let mut all: Vec<String> = std::fs::read_dir(&crates)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.path().join("src").is_dir())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        all.sort();
        all
    } else {
        names
    };
    println!("{:<16} {:>9} {:>9}", "crate", "non-test", "code-only");
    for name in names {
        let src = crates.join(&name).join("src");
        if !src.is_dir() {
            eprintln!("xtask loc: no crate at crates/{name}/src");
            return ExitCode::FAILURE;
        }
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files);
        let (mut all, mut code) = (0, 0);
        for path in &files {
            let (a, c) = count(&std::fs::read_to_string(path).unwrap_or_default());
            (all, code) = (all + a, code + c);
        }
        println!("{name:<16} {all:>9} {code:>9}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_stop_at_the_first_column_zero_test_module() {
        let src = concat!(
            "//! Module doc.\n",
            "\n",
            "use std::fmt;\n",
            "    // indented comment\n",
            "/// Item doc.\n",
            "fn f() {\n",
            "    #[cfg(test)]\n",
            "    let x = 1; // trailing comment counts as code\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn g() {}\n",
            "}\n",
        );
        assert_eq!(count(src), (9, 5));
        assert_eq!(count(""), (0, 0));
    }
}
