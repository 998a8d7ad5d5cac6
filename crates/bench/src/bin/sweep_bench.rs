//! Design-space sweep benchmark: tiered-fidelity triage against
//! exhaustive simulation, emitting `BENCH_sweep.json`.
//!
//! Runs the [`SweepSpec`] twice over:
//!
//! * **Tiered** — tier-0 analytic triage of every point, conservative
//!   Pareto promotion, cycle-accurate simulation of the promoted set
//!   only ([`ballerino_bench::run_sweep`]).
//! * **Exhaustive** — cycle-accurate simulation of *every* point (the
//!   oracle), on the same work-stealing pool.
//!
//! The promoted frontier must be **identical** to the exhaustive
//! frontier — the binary exits non-zero otherwise — so the reported
//! speedup (exhaustive wall / tiered wall) is a pure efficiency number,
//! not an accuracy trade.
//!
//! Environment:
//!
//! * `BALLERINO_SWEEP_SMALL` — use the CI smoke spec (40 points) instead
//!   of the full 2556-point grid.
//! * `BALLERINO_SWEEP_N` — override μops per workload trace.
//! * `BALLERINO_TIER0_ONLY` — triage and promote but skip *all*
//!   simulation (both sides); reports the estimated frontier. No
//!   frontier gate in this mode.
//! * `BALLERINO_THREADS` — pool width for every stage.

use ballerino_bench::{
    point_cost, promote_indices, run_sweep, simulate_points, threads, tier0_scores, Provenance,
    SweepSpec,
};
use ballerino_sim::DesignPoint;
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let mut spec = if ballerino_bench::env_flag("BALLERINO_SWEEP_SMALL") {
        SweepSpec::smoke()
    } else {
        SweepSpec::full()
    };
    if let Ok(v) = std::env::var("BALLERINO_SWEEP_N") {
        if let Ok(n) = v.parse() {
            spec.n = n;
        }
    }
    let tier0_only = ballerino_bench::env_flag("BALLERINO_TIER0_ONLY");
    let points = spec.points();
    println!(
        "sweep_bench: {} points ({} kinds x {} widths x {} iq x {} dram), \
         {} workloads, N={}, seed={}, threads={}, margin={}%{}",
        points.len(),
        spec.kinds.len(),
        spec.widths.len(),
        spec.iq_budgets.len(),
        spec.dram_scales.len(),
        spec.workloads.len(),
        spec.n,
        spec.seed,
        threads(),
        spec.margin_pct(),
        if tier0_only { ", tier0-only" } else { "" },
    );

    if tier0_only {
        let costs: Vec<u64> = points.iter().map(point_cost).collect();
        let t0 = Instant::now();
        let est = tier0_scores(&spec, &points);
        let wall = t0.elapsed().as_secs_f64();
        let promoted = promote_indices(&costs, &est, spec.margin_pct());
        let frontier = ballerino_bench::pareto_indices(&costs, &est);
        println!(
            "tier-0 triage: {:.3}s ({:.1} points/ms), {} promoted, estimated frontier:",
            wall,
            points.len() as f64 / wall / 1e3,
            promoted.len()
        );
        for &i in &frontier {
            println!(
                "  {:<26} cost {:>6}  est {:>9} cycles",
                points[i].label(),
                costs[i],
                est[i]
            );
        }
        return;
    }

    println!("tiered sweep (triage -> promote -> simulate promoted)...");
    let outcome = run_sweep(&spec);
    let tiered_wall = outcome.tier0_wall_s + outcome.sim_wall_s;
    println!(
        "  tier-0 {:.3}s, promoted {}/{} points, simulation {:.3}s",
        outcome.tier0_wall_s,
        outcome.promoted.len(),
        points.len(),
        outcome.sim_wall_s
    );

    println!("exhaustive sweep (simulate everything)...");
    let t0 = Instant::now();
    let all_sim = simulate_points(&spec, &points);
    let exhaustive_wall = t0.elapsed().as_secs_f64();
    println!("  {exhaustive_wall:.3}s");

    // Oracle check 1: promoted simulations must agree with the
    // exhaustive runs (both are the deterministic tier-1 simulator).
    for &i in &outcome.promoted {
        assert_eq!(
            outcome.sim_cycles[i],
            Some(all_sim[i]),
            "promoted simulation of {} diverged from the exhaustive run",
            outcome.points[i].label()
        );
    }

    // Oracle check 2: the frontier read off the promoted subset must be
    // the frontier of the full space.
    let promoted_frontier = outcome.simulated_frontier();
    let exhaustive_frontier = ballerino_bench::pareto_indices(&outcome.costs, &all_sim);
    let frontier_match = promoted_frontier == exhaustive_frontier;
    if !frontier_match {
        for &i in exhaustive_frontier
            .iter()
            .filter(|i| !promoted_frontier.contains(i))
        {
            eprintln!(
                "  LOST  {:<26} cost {:>6} sim {:>9} est {:>9} promoted={}",
                outcome.points[i].label(),
                outcome.costs[i],
                all_sim[i],
                outcome.est_cycles[i],
                outcome.promoted.contains(&i)
            );
        }
        for &i in promoted_frontier
            .iter()
            .filter(|i| !exhaustive_frontier.contains(i))
        {
            eprintln!(
                "  EXTRA {:<26} cost {:>6} sim {:>9} est {:>9}",
                outcome.points[i].label(),
                outcome.costs[i],
                all_sim[i],
                outcome.est_cycles[i]
            );
        }
    }

    let speedup = exhaustive_wall / tiered_wall.max(1e-9);
    println!(
        "tiered {tiered_wall:.3}s vs exhaustive {exhaustive_wall:.3}s -> {speedup:.1}x; \
         frontier {} ({} points)",
        if frontier_match { "MATCH" } else { "MISMATCH" },
        exhaustive_frontier.len()
    );

    println!("frontier (cost-ascending):");
    for &i in &exhaustive_frontier {
        let est = outcome.est_cycles[i];
        let sim = all_sim[i];
        println!(
            "  {:<26} cost {:>6}  sim {:>9}  tier0 {:>9} ({:+5.1}%)",
            outcome.points[i].label(),
            outcome.costs[i],
            sim,
            est,
            100.0 * (est as f64 - sim as f64) / sim as f64
        );
    }

    // Tier-0 accuracy over the promoted set (where truth is known).
    let errs: Vec<f64> = outcome
        .promoted
        .iter()
        .map(|&i| {
            100.0 * (outcome.est_cycles[i] as f64 - all_sim[i] as f64).abs() / all_sim[i] as f64
        })
        .collect();
    let mean_err = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
    let worst_err = errs.iter().cloned().fold(0.0, f64::max);
    println!("tier-0 error on promoted points: mean {mean_err:.1}%, worst {worst_err:.1}%");

    let json = render_json(
        &spec,
        &outcome.points,
        outcome.promoted.len(),
        &promoted_frontier,
        &exhaustive_frontier,
        outcome.margin_pct,
        outcome.tier0_wall_s,
        outcome.sim_wall_s,
        exhaustive_wall,
        speedup,
        mean_err,
        worst_err,
        frontier_match,
    );
    let path = "BENCH_sweep.json";
    Provenance::capture().warn_if_dirty(path);
    std::fs::write(path, json).expect("write BENCH_sweep.json");
    println!("wrote {path}");

    if !frontier_match {
        eprintln!(
            "promoted frontier != exhaustive frontier — recalibrate \
             (tier0_calibrate)"
        );
        std::process::exit(1);
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    spec: &SweepSpec,
    points: &[DesignPoint],
    promoted: usize,
    promoted_frontier: &[usize],
    exhaustive_frontier: &[usize],
    margin_pct: u32,
    tier0_wall_s: f64,
    sim_wall_s: f64,
    exhaustive_wall_s: f64,
    speedup: f64,
    mean_err_pct: f64,
    worst_err_pct: f64,
    frontier_match: bool,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"sweep\",");
    s.push_str(&Provenance::capture().json_fields());
    let _ = writeln!(s, "  \"n\": {},", spec.n);
    let _ = writeln!(s, "  \"seed\": {},", spec.seed);
    let _ = writeln!(s, "  \"threads\": {},", threads());
    let _ = writeln!(s, "  \"workloads\": {},", spec.workloads.len());
    let _ = writeln!(s, "  \"points_triaged\": {},", points.len());
    let _ = writeln!(s, "  \"points_promoted\": {promoted},");
    let _ = writeln!(s, "  \"margin_pct\": {margin_pct},");
    let _ = writeln!(s, "  \"tier0_wall_s\": {tier0_wall_s:.6},");
    let _ = writeln!(s, "  \"promoted_sim_wall_s\": {sim_wall_s:.6},");
    let _ = writeln!(s, "  \"tiered_wall_s\": {:.6},", tier0_wall_s + sim_wall_s);
    let _ = writeln!(s, "  \"exhaustive_wall_s\": {exhaustive_wall_s:.6},");
    let _ = writeln!(s, "  \"speedup\": {speedup:.4},");
    let _ = writeln!(s, "  \"tier0_mean_err_pct\": {mean_err_pct:.2},");
    let _ = writeln!(s, "  \"tier0_worst_err_pct\": {worst_err_pct:.2},");
    let _ = writeln!(s, "  \"frontier_match\": {frontier_match},");
    let _ = writeln!(s, "  \"frontier_size\": {},", exhaustive_frontier.len());
    s.push_str("  \"frontier\": [\n");
    for (k, &i) in promoted_frontier.iter().enumerate() {
        let _ = write!(s, "    \"{}\"", points[i].label());
        s.push_str(if k + 1 < promoted_frontier.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}
