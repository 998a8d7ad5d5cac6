//! Prints the golden `SimResult` digest (see `ballerino_bench::golden`),
//! or with `--write` rewrites the committed
//! `crates/bench/tests/golden/simresult.digest`.
//!
//! Usage: `golden_digest [--write]`. Rewrite the file only for a change
//! that is meant to alter simulated behaviour, and review its diff with
//! that change.

use ballerino_bench::{golden, threads};

fn main() {
    let digest = golden::render(threads());
    if std::env::args().any(|a| a == "--write") {
        let path = golden::digest_path();
        std::fs::write(&path, &digest).expect("write digest");
        eprintln!(
            "wrote {} cells to {}",
            digest.lines().count(),
            path.display()
        );
    } else {
        print!("{digest}");
    }
}
