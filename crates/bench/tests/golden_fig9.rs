//! Golden-file snapshot of three Fig. 9 renders under the `--smoke`
//! parameters (2 seeds, 20 000 cycles of work, 2 bursts per thread):
//!
//! * the 4×4 sub-figure table ([`fig9::render`]) over all three page
//!   sizes, every CGRA need and every thread count;
//! * the degradation curve ([`fig9::render_curve`]) for faults
//!   `mtbf=10000,count=2` at 4×4 page 4;
//! * the degradation-and-recovery curve ([`fig9::render_recovery_curve`])
//!   for the same spec with `mttr=500`, at 4×4 page 4.
//!
//! These are the bytes the `fig9` binary prints, so any refactor of the
//! simulator → Fig. 9 path must leave the snapshot untouched. Refresh
//! with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p cgra-bench --test golden_fig9
//! ```
//!
//! and review the diff like any other code change.

use cgra_arch::FaultSpec;
use cgra_bench::engine::Engine;
use cgra_bench::fig9::{self, Fig9Params};
use cgra_bench::mapcache::MapCache;
use cgra_sim::CgraNeed;
use std::path::PathBuf;

fn render() -> String {
    let engine = Engine::with_jobs(2);
    let cache = MapCache::in_memory();
    let params = Fig9Params {
        seeds: 2,
        work_per_thread: 20_000,
        bursts: 2,
        ..Fig9Params::default()
    };
    let (dim, sizes) = cgra_bench::GRID[0];
    let points: Vec<_> = sizes
        .iter()
        .flat_map(|&s| CgraNeed::ALL.map(|need| cgra_bench::THREAD_COUNTS.map(|t| (s, need, t))))
        .flatten()
        .collect();
    let results = engine.run(&points, |&(s, need, t)| {
        fig9::run_point(&cache, dim, s, need, t, &params).expect("fault-free point")
    });
    let spec = |s: &str| FaultSpec::parse(s).expect("spec parses");
    let rows = fig9::degradation_rows(spec("mtbf=10000,count=2"));
    let degradation = fig9::curve(&engine, &cache, dim, 4, rows, &params);
    let rows = fig9::recovery_rows(&spec("mtbf=10000,count=2,mttr=500"));
    let recovery = fig9::curve(&engine, &cache, dim, 4, rows, &params);
    format!(
        "## render {dim}x{dim}\n\n{}\n## render_curve mtbf=10000,count=2 at {dim}x{dim} page 4\n\n{}\n\
         ## render_recovery_curve mtbf=10000,count=2,mttr=500 at {dim}x{dim} page 4\n\n{}",
        fig9::render(&results, dim),
        fig9::render_curve(&degradation),
        fig9::render_recovery_curve(&recovery),
    )
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join("fig9_smoke_4x4.txt")
}

#[test]
fn fig9_renders_match_golden() {
    let actual = render();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "Fig. 9 render snapshot diverged; if intentional, rerun with UPDATE_GOLDEN=1"
    );
}
