//! Every simulated statistic of the pinned cells against the committed
//! golden digest (see `ballerino_bench::golden`).

use ballerino_bench::golden;

#[test]
fn simresults_match_the_golden_digest() {
    let path = golden::digest_path();
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let actual = golden::render(2);
    let differing = golden::differing_keys(&expected, &actual);
    assert!(
        differing.is_empty(),
        "{} of {} cells differ from {}; first: {:?}. If the change is meant \
         to alter simulated behaviour, regenerate the file with \
         `cargo run --release -p ballerino-bench --bin golden_digest -- --write` \
         and review its diff.",
        differing.len(),
        actual.lines().count(),
        path.display(),
        &differing[..differing.len().min(8)],
    );
}
