//! The golden `SimResult` digest: one 64-bit FNV-1a hash of every
//! simulated statistic per cell, committed as
//! `tests/golden/simresult.digest`.
//!
//! The live and reference pipelines share most scheduler code, so
//! comparing them cannot catch a change both sides make at once. The
//! digest pins both to a recorded answer. The `golden_digest` test
//! recomputes it; only the `golden_digest` binary (`--write`) rewrites
//! the file, and that diff is reviewed with the change that caused it.

use crate::{enumerate_cells, fnv1a, grid_points, normalized, run_pool, SimCell, KIND_REGISTRY};
use ballerino_sim::{MachineKind, Width};
use ballerino_workloads::workload_names;
use std::collections::HashMap;
use std::path::PathBuf;

/// μops per workload trace.
pub const N: usize = 1000;
/// Workload generator seed.
pub const SEED: u64 = 42;

/// The committed digest file.
pub fn digest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/simresult.digest")
}

/// The pinned cells, in file order: every registry kind plus
/// `BallerinoN(4)` at every width on all workloads, then the 8-wide
/// cross of IQ budget {default, 48} × DRAM scale {100, 200} % (minus
/// the default point already listed).
pub fn cells() -> Vec<SimCell> {
    let mut kinds: Vec<MachineKind> = KIND_REGISTRY.iter().map(|i| i.kind).collect();
    kinds.push(MachineKind::BallerinoN(4));
    let widths = [Width::Two, Width::Four, Width::Eight, Width::Ten];
    let mut points = grid_points(&kinds, &widths, &[None], &[100]);
    for p in grid_points(&kinds, &[Width::Eight], &[None, Some(48)], &[100, 200]) {
        if !points.contains(&p) {
            points.push(p);
        }
    }
    enumerate_cells(&points, &workload_names(), N, SEED)
}

/// Simulates every pinned cell on `threads` workers and renders the
/// digest: one `<cell key> <hash>` line per cell.
pub fn render(threads: usize) -> String {
    let cells = cells();
    let hashes = run_pool(&cells, threads, |c| fnv1a(normalized(&c.run()).as_bytes()));
    cells
        .iter()
        .zip(hashes)
        .map(|(c, h)| format!("{} {h:016x}\n", c.key()))
        .collect()
}

/// Keys whose lines differ between two digests (present in one only,
/// or hashed differently), in file order: `actual`'s, then `expected`'s.
pub fn differing_keys(expected: &str, actual: &str) -> Vec<String> {
    let parse = |text: &str| -> HashMap<String, String> {
        text.lines()
            .map(|l| {
                let (k, h) = l.split_once(' ').unwrap_or((l, ""));
                (k.to_string(), h.to_string())
            })
            .collect()
    };
    let (exp, act) = (parse(expected), parse(actual));
    let mut keys: Vec<String> = Vec::new();
    for (mine, other, text) in [(&act, &exp, actual), (&exp, &act, expected)] {
        for l in text.lines() {
            let k = l.split_once(' ').map_or(l, |(k, _)| k);
            if other.get(k) != mine.get(k) && !keys.iter().any(|x| x == k) {
                keys.push(k.to_string());
            }
        }
    }
    keys
}
