//! `hclbench`: the one benchmark of the HCL reproduction.
//!
//! ```text
//! hclbench run    --workload <name|all> [--seed N] [--seconds S | --scale X] [--trace 0|1]
//! hclbench trace  ...            the same as `run --trace 1`
//! hclbench repeat [--seed N] [--seconds S]
//! hclbench manifest              print BENCHMARK.json from the metric lists
//! ```
//!
//! `run` prints one `workload metric value unit` line per metric, then one
//! JSON object as the last line of its output, and exits non-zero if any
//! verification failed. With `--trace 0` the metrics are the end-to-end
//! list, with `--trace 1` the per-layer list (see README.md).

mod gen;
mod metrics;
mod pin;
mod replay;
mod report;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use metrics::{unit_of, END_TO_END, PER_LAYER};
use workloads::{PassCfg, Workload, ALL};

/// `--seconds` the op counts in [`Workload::ops_per_10s`] are sized for.
const BASE_SECONDS: f64 = 10.0;
/// Share of a run's ops the traced run's passes execute.
const TRACE_SHARE: f64 = 0.1;
/// Set-ups made per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
const DEFAULT_SEED: u64 = 42;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: BASE_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<f64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => out.seconds = number()?,
            // The smoke's knob: a share of the full-size run.
            "--scale" => out.seconds = number()? * BASE_SECONDS,
            "--trace" => out.trace = number()? != 0.0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(out.seconds > 0.0 && out.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", out.seconds));
    }
    Ok(out)
}

/// Scratch and trace output: `out/` beside this package's manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What one workload's run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn run_one(w: Workload, args: &Args) -> Outcome {
    let _awake = pin::keep_server_awake();
    let scratch = out_dir().join(format!("tmp-{}", std::process::id()));
    let full = (w.ops_per_10s() as f64 * args.seconds / BASE_SECONDS)
        .round()
        .max(64.0);
    let cfg = PassCfg {
        telemetry: true,
        traced: false,
        dir: &scratch,
    };
    let (passes, metrics) = if args.trace {
        let inputs = workloads::inputs(w, args.seed, (full * TRACE_SHARE).max(64.0) as usize);
        let probes = report::probes(&inputs, &scratch.join("probes"));
        let on = workloads::pass(w, &inputs, cfg);
        let off = workloads::pass(
            w,
            &inputs,
            PassCfg {
                telemetry: false,
                ..cfg
            },
        );
        let traced = workloads::pass(
            w,
            &inputs,
            PassCfg {
                traced: true,
                ..cfg
            },
        );
        let path = out_dir().join(format!("trace-{}.json", w.name()));
        report::write_spans(&path, &traced.spans).expect("write spans");
        let metrics = report::per_layer(w, &probes, &on, &off, &traced);
        (vec![on, off, traced], metrics)
    } else {
        let inputs = workloads::inputs(w, args.seed, full as usize);
        // The measured pass goes first: a dropped world keeps its memory and
        // its idle NIC workers, and neither belongs in this pass's numbers.
        let main = workloads::pass(w, &inputs, cfg);
        let peak_rss_mb = report::peak_rss_mb();
        let setup_only = inputs.setup_only();
        let mut setups = vec![main.setup_s];
        setups.extend((1..SETUPS).map(|_| workloads::pass(w, &setup_only, cfg).setup_s));
        let metrics = report::end_to_end(&main, setups, peak_rss_mb);
        (vec![main], metrics)
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let mut broken: Vec<String> = passes.iter().flat_map(|p| p.problems.clone()).collect();
    // Telemetry-off passes have no counters to assert on.
    broken.extend(report::assertions(w, &passes[0]));
    for line in &broken {
        eprintln!("hclbench: {line}");
    }
    let failed = passes.iter().map(|p| p.rec.failed).sum::<u64>();
    Outcome {
        correct: failed == 0 && broken.is_empty(),
        attempted: passes.iter().map(|p| p.rec.attempted).sum(),
        failed,
        metrics: metrics
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect(),
    }
}

/// The result object; a metric reported for one workload of several is
/// named `workload/metric`.
fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value)| {
            // `+ 0.0` turns the -0.0 an empty sum yields into 0.
            let value = if value.is_finite() { *value + 0.0 } else { 0.0 };
            let unit = unit_of(name.rsplit('/').next().unwrap_or(name));
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Run one workload in this process and print its report.
fn report_one(w: Workload, args: &Args) -> bool {
    let o = run_one(w, args);
    let wanted: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let reported: Vec<&str> = o.metrics.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        reported, wanted,
        "the report must carry exactly the listed metrics"
    );
    for (name, value) in &o.metrics {
        println!("{} {name} {} {}", w.name(), value + 0.0, unit_of(name));
    }
    println!("{} attempted {} ops", w.name(), o.attempted);
    println!("{} failed {} ops", w.name(), o.failed);
    println!("{}", json_line(&o));
    o.correct
}

/// One workload's lines as a child process printed them.
struct ChildReport {
    ok: bool,
    /// `(metric, value)` in print order, `attempted` and `failed` included.
    values: Vec<(String, f64)>,
}

/// Run each workload in a child process of its own (fresh world, clean
/// peak RSS), relaying its metric lines.
fn run_children(order: &[Workload], args: &Args, echo: bool) -> Vec<(Workload, ChildReport)> {
    let exe = std::env::current_exe().expect("own executable path");
    order
        .iter()
        .map(|&w| {
            let out = Command::new(&exe)
                .args(["run", "--workload", w.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("spawn workload process");
            let text = String::from_utf8_lossy(&out.stdout);
            let mut values = Vec::new();
            for line in text.lines().filter(|l| !l.starts_with('{')) {
                if echo {
                    println!("{line}");
                }
                let f: Vec<&str> = line.split_whitespace().collect();
                if let [_, metric, value, _] = f[..] {
                    values.push((metric.to_string(), value.parse().unwrap_or(f64::NAN)));
                }
            }
            (
                w,
                ChildReport {
                    ok: out.status.success(),
                    values,
                },
            )
        })
        .collect()
}

fn run_all(args: &Args) -> bool {
    let reports = run_children(&ALL, args, true);
    let count = |what: &str| {
        let of = |r: &ChildReport| {
            r.values
                .iter()
                .find(|(m, _)| m == what)
                .map_or(0.0, |(_, v)| *v)
        };
        reports.iter().map(|(_, r)| of(r)).sum::<f64>() as u64
    };
    let metrics = reports.iter().flat_map(|(w, r)| {
        let named = r
            .values
            .iter()
            .filter(|(m, _)| m != "attempted" && m != "failed");
        named.map(|(m, v)| (format!("{}/{m}", w.name()), *v))
    });
    let all = Outcome {
        correct: reports.iter().all(|(_, r)| r.ok),
        attempted: count("attempted"),
        failed: count("failed"),
        metrics: metrics.collect(),
    };
    println!("{}", json_line(&all));
    all.correct
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs per set in [`repeat`]; a set's value is their median.
const REPEAT_RUNS: usize = 5;

/// Run two sets of runs of every workload on one seed (set A forward, set B
/// backward, alternating, so neither always runs on a warmer machine) and
/// compare their medians: two sets from one build must agree within half of
/// each metric's regression bound.
fn repeat(args: &Args) -> bool {
    let backward: Vec<Workload> = ALL.into_iter().rev().collect();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..REPEAT_RUNS {
        a.extend(run_children(&ALL, args, false));
        b.extend(run_children(&backward, args, false));
    }
    let mut ok = a.iter().chain(&b).all(|(_, r)| r.ok);
    let runs_of = |set: &[(Workload, ChildReport)], w: Workload, metric: &str| -> Vec<f64> {
        let of_w = set.iter().filter(|(sw, _)| *sw == w);
        let values = of_w.filter_map(|(_, r)| r.values.iter().find(|(m, _)| m == metric));
        values.map(|(_, v)| *v).collect()
    };
    let mut rows = Vec::new();
    println!("workload metric A B |A-B|/A limit");
    for w in ALL {
        for m in &END_TO_END {
            let (runs_a, runs_b) = (runs_of(&a, w, m.name), runs_of(&b, w, m.name));
            let (va, vb) = (stats::median(runs_a.clone()), stats::median(runs_b.clone()));
            let diff = (va - vb).abs() / va;
            // A missing value is NaN, and NaN is not within any limit.
            let within = diff <= m.bound / 2.0;
            ok &= within;
            let verdict = if within { "" } else { " EXCEEDED" };
            println!(
                "{} {} {va} {vb} {diff:.4} {}{verdict}",
                w.name(),
                m.name,
                m.bound / 2.0
            );
            rows.push(format!(
                "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"a\": {va}, \"b\": {vb}, \"rel_diff\": {diff:.4}, \"limit\": {}, \"a_runs\": {runs_a:?}, \"b_runs\": {runs_b:?}}}",
                w.name(), m.name, m.bound / 2.0
            ));
        }
    }
    let cpu = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpu
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |l| l.trim_start_matches([' ', '\t', ':']));
    let doc = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"runs_per_set\": {REPEAT_RUNS},\n  \"client_threads\": 1,\n  \"host\": {{\"nproc\": {}, \"cpu\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}},\n  \"agree\": {ok},\n  \"rows\": [\n{}\n  ]\n}}\n",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model,
        std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default().trim(),
        first_line("rustc", &["--version"]),
        first_line("git", &["rev-parse", "HEAD"]),
        rows.join(",\n")
    );
    let path = out_dir().join("repeat.json");
    std::fs::write(&path, doc).expect("write repeat.json");
    println!("wrote {}", path.display());
    ok
}

/// `BENCHMARK.json`, generated so it cannot drift from the metric lists.
fn manifest() -> String {
    let workloads: Vec<String> = ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {BASE_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("", &[][..]),
    };
    if command == "manifest" {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    let mut args = match parse(rest) {
        Ok(args) if matches!(command, "run" | "trace" | "repeat") => args,
        Ok(_) => {
            eprintln!("usage: hclbench <run|trace|repeat|manifest> [--workload <name|all>] [--seed N] [--seconds S | --scale X] [--trace 0|1]");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("hclbench: {e}");
            return ExitCode::from(2);
        }
    };
    args.trace |= command == "trace";
    std::fs::create_dir_all(out_dir()).expect("create output directory");
    let ok = match (command, args.workload.as_str()) {
        ("repeat", _) => repeat(&args),
        (_, "all") => run_all(&args),
        (_, name) => match Workload::from_name(name) {
            Some(w) => report_one(w, &args),
            None => {
                eprintln!("hclbench: unknown workload {name}");
                return ExitCode::from(2);
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_the_generated_one() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
    }

    #[test]
    fn scale_is_a_share_of_the_full_run() {
        let args = |v: &[&str]| parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert_eq!(args(&["--scale", "0.02"]).unwrap().seconds, 0.2);
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--trace"]).is_err());
        assert!(args(&["--trace", "1"]).unwrap().trace);
    }
}
