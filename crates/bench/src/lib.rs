//! Shared output helpers for the figure-regeneration binaries, plus the
//! YCSB-style mixed-op workload driver ([`workload`]) the integration
//! suites run under faults, membership changes and history recording.
//!
//! Every binary prints the simulated/measured series next to the paper's
//! reference values, plus a shape verdict, so a reader can diff the
//! reproduction at a glance (EXPERIMENTS.md records the same numbers).

pub mod workload;

/// Print a section header.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Print an aligned row of labeled values.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<28}");
    for c in cells {
        print!(" {c:>14}");
    }
    println!();
}

/// Format seconds.
pub fn secs(v: f64) -> String {
    format!("{v:.3} s")
}

/// Format a throughput in ops/s with K/M suffix.
pub fn ops(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M op/s", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}K op/s", v / 1e3)
    } else {
        format!("{v:.0} op/s")
    }
}

/// Format MB/s with GB/s promotion.
pub fn mbs(v: f64) -> String {
    if v >= 1000.0 {
        format!("{:.2} GB/s", v / 1000.0)
    } else {
        format!("{v:.0} MB/s")
    }
}

/// Format a byte size.
pub fn size(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{}MB", bytes >> 20)
    } else {
        format!("{}KB", bytes >> 10)
    }
}

/// Print a shape-check verdict line.
pub fn verdict(name: &str, ok: bool, detail: &str) {
    println!("  [{}] {name}: {detail}", if ok { "PASS" } else { "WARN" });
}

/// Ratio formatted as `N.Nx`.
pub fn ratio(a: f64, b: f64) -> String {
    format!("{:.1}x", a / b)
}
