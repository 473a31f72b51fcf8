//! Regenerates **Figure 7** (real workloads): ISx bucket sort and the
//! Meraculous kernels, weak-scaled from 8 to 64 nodes, BCL vs HCL.
//!
//! Two modes per experiment:
//! * the **simulated** cluster-scale run (default) — regenerates the
//!   figure's series;
//! * `--real` additionally executes the *actual* application kernels on the
//!   real library (threads-as-ranks, small scale) and checks the outputs.
//!
//! Paper reference — ISx: BCL 686 s at 64 nodes scaling linearly, HCL 57 s
//! scaling sub-linearly. Contig generation: HCL 1.8× faster at 8 nodes to
//! 12× at 64. K-mer counting: HCL 2.17×–8× faster.
//!
//! Usage: `fig7 [isx|contig|kmer|all] [--real]`

use std::time::Instant;

use hcl_bench::{header, ratio, row, secs, verdict};
use hcl_cluster_sim::scenarios;

fn print_points(points: &[scenarios::Fig7Point], paper_bcl: &[f64], paper_hcl: &[f64]) {
    row(
        "#nodes",
        &["BCL(sim)".into(), "HCL(sim)".into(), "BCL(paper)".into(), "HCL(paper)".into()],
    );
    for (i, p) in points.iter().enumerate() {
        row(
            &p.nodes.to_string(),
            &[secs(p.bcl_s), secs(p.hcl_s), secs(paper_bcl[i]), secs(paper_hcl[i])],
        );
    }
    println!();
    let r_small = points[0].bcl_s / points[0].hcl_s;
    let r_big = points[3].bcl_s / points[3].hcl_s;
    let p_small = paper_bcl[0] / paper_hcl[0];
    let p_big = paper_bcl[3] / paper_hcl[3];
    verdict(
        "HCL wins at every scale",
        points.iter().all(|p| p.bcl_s > p.hcl_s),
        &format!("ratios {} -> {}", ratio(points[0].bcl_s, points[0].hcl_s), ratio(points[3].bcl_s, points[3].hcl_s)),
    );
    verdict(
        "advantage grows with scale (paper)",
        r_big > r_small,
        &format!("sim {r_small:.1}x -> {r_big:.1}x, paper {p_small:.1}x -> {p_big:.1}x"),
    );
}

/// Print the beyond-paper extrapolation (same sim backend, extended node
/// list; `fig7_shapes` pins that HCL wins at these node counts).
fn print_extended(points: &[scenarios::Fig7Point]) {
    println!("-- extrapolated beyond the paper's sweep --");
    for p in points {
        row(&p.nodes.to_string(), &[secs(p.bcl_s), secs(p.hcl_s)]);
    }
}

fn isx(real: bool) {
    header("Figure 7(a) — ISx integer sort, weak scaling (sim)");
    let points = scenarios::fig7_isx_at(&[8, 16, 32, 64], 2_000);
    // Paper series read from Fig. 7(a): BCL ~43..686 s, HCL ~5..57 s.
    print_points(&points, &[43.07, 91.58, 270.97, 686.0], &[5.11, 9.44, 28.87, 57.0]);
    print_extended(&scenarios::fig7_isx_at(&[128, 256, 512], 2_000));
    if real {
        println!("\n-- real execution (2 nodes x 2 ranks, actual containers) --");
        use hcl_apps::isx::{run_bcl, run_hcl, validate, IsxConfig};
        use hcl_runtime::{World, WorldConfig};
        let cfg = IsxConfig { keys_per_rank: 2_000, key_space: 1 << 24, seed: 42 };
        let world = WorldConfig { nodes: 2, ranks_per_node: 2, ..WorldConfig::small() };
        let t0 = Instant::now();
        let h = World::run(world, move |rank| run_hcl(rank, &cfg));
        let hcl_t = t0.elapsed();
        let t0 = Instant::now();
        let b = World::run(world, move |rank| run_bcl(rank, &cfg));
        let bcl_t = t0.elapsed();
        let ok = validate(&h, &cfg, 4, 2) && validate(&b, &cfg, 4, 2);
        println!(
            "real HCL {:.3} s, real BCL {:.3} s, outputs {}",
            hcl_t.as_secs_f64(),
            bcl_t.as_secs_f64(),
            if ok { "VALID" } else { "INVALID" }
        );
    }
}

fn meraculous(contig: bool, real: bool) {
    let (name, paper_bcl, paper_hcl) = if contig {
        (
            "Figure 7(b) — Meraculous contig generation (sim)",
            [9.31, 43.07, 251.35, 689.03],
            [5.11, 9.44, 22.23, 57.4],
        )
    } else {
        (
            "Figure 7(c) — Meraculous k-mer counting (sim)",
            [9.27, 46.0, 403.25, 1268.0],
            [4.27, 18.5, 75.18, 185.01],
        )
    };
    header(name);
    let points = scenarios::fig7_meraculous_at(&[8, 16, 32, 64], contig, 2_000);
    print_points(&points, &paper_bcl, &paper_hcl);
    print_extended(&scenarios::fig7_meraculous_at(&[128, 256, 512], contig, 2_000));
    if real {
        println!("\n-- real execution (2 nodes x 2 ranks, actual containers) --");
        use hcl_apps::genome::{sample_reads, synth_genome};
        use hcl_runtime::{World, WorldConfig};
        let world = WorldConfig { nodes: 2, ranks_per_node: 2, ..WorldConfig::small() };
        let genome = synth_genome(2_000, 99);
        if contig {
            use hcl_apps::meraculous::{build_graph, generate_contigs};
            let g = genome.clone();
            let t0 = Instant::now();
            let contigs = World::run(world, move |rank| {
                let k = 15;
                let chunk = g.len() / 4;
                let start = rank.id() as usize * chunk;
                let end = (start + chunk + k).min(g.len());
                let reads =
                    vec![hcl_apps::genome::Read { bases: g[start..end].to_vec() }];
                let graph = build_graph(rank, "f7.contig", &reads, k);
                let seeds = hcl_apps::genome::kmers_of(&g, k);
                let c = generate_contigs(rank, &graph, &seeds, k);
                rank.barrier();
                c
            });
            let n: usize = contigs.iter().map(|c| c.len()).sum();
            println!("real HCL contig generation: {:.3} s, {n} contig(s)", t0.elapsed().as_secs_f64());
        } else {
            use hcl_apps::meraculous::count_kmers_hcl;
            let g = genome.clone();
            let t0 = Instant::now();
            let counts = World::run(world, move |rank| {
                let reads = sample_reads(&g, 60, 40, 0.0, 500 + rank.id() as u64);
                count_kmers_hcl(rank, "f7.kmer", &reads, 15)
            });
            println!(
                "real HCL k-mer counting: {:.3} s, {} distinct k-mers",
                t0.elapsed().as_secs_f64(),
                counts[0].len()
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let real = args.iter().any(|a| a == "--real");
    let mode =
        args.iter().skip(1).find(|a| *a != "--real").map(String::as_str).unwrap_or("all");
    match mode {
        "isx" => isx(real),
        "contig" => meraculous(true, real),
        "kmer" => meraculous(false, real),
        _ => {
            isx(real);
            meraculous(true, real);
            meraculous(false, real);
        }
    }
}
