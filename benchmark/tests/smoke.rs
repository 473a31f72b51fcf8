//! The smoke: every workload at 2 % of its op count through the real binary,
//! once untraced and once traced, with every verification on.

use std::process::Command;

fn run(extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hclbench"))
        .args(["run", "--workload", "all", "--scale", "0.02"])
        .args(extra)
        .output()
        .expect("run hclbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "hclbench failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_workload_reports_every_metric_and_verifies() {
    let workloads = [
        "remote_sync",
        "local_hybrid",
        "async_ingest",
        "durable_strict",
        "read_heavy_zipf",
        "queue_mix",
    ];
    for (extra, metrics) in [
        (
            &[][..],
            &["ops_per_s", "op_p99_us", "setup_s", "peak_rss_mb"][..],
        ),
        (
            &["--trace", "1"][..],
            &[
                "rpc.echo_rtt_ns",
                "trace.unattributed_share",
                "trace.overhead_ratio",
            ][..],
        ),
    ] {
        let stdout = run(extra);
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
        for w in workloads {
            for m in metrics {
                assert!(
                    last.contains(&format!("\"{w}/{m}\": {{\"value\": ")),
                    "{w}/{m} missing"
                );
            }
        }
    }
}
