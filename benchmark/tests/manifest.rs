//! `BENCHMARK.json` at the root of the repository is generated from the
//! tables in `defs.rs` (`run.sh --print-manifest`); this holds the committed
//! file to them.

use pmemcpy_benchmark::defs;

#[test]
fn committed_manifest_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        defs::manifest(),
        "regenerate with: benchmark/run.sh --print-manifest > BENCHMARK.json"
    );
}
