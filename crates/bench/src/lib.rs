//! # cgra-bench — the paper's evaluation, regenerated
//!
//! Harness functions for every figure in the paper's evaluation section
//! (§VII), shared by the `fig8`, `fig9` and `report` binaries and the
//! in-repo benches:
//!
//! * [`compile`] — one kernel's offline compile: every artifact of the
//!   pipeline plus the profile the runtime reads, and the one analyzer
//!   walk over them.
//! * [`engine`] — the parallel sweep engine (`--jobs N`), with the
//!   byte-identical-output determinism contract.
//! * [`fig8`] — Figure 8(a–c): per-kernel performance of the
//!   paging-constrained mapping relative to the unconstrained baseline,
//!   for each CGRA size and page size.
//! * [`fig9`] — Figure 9(a–c): system-level improvement of the
//!   multithreaded CGRA over the single-threaded FCFS baseline, for each
//!   thread count, CGRA need, page size, and CGRA size.
//! * [`mapcache`] — content-keyed mapping / II-table cache of kernel
//!   profiles and libraries, optionally persisted to `target/mapcache`
//!   (`--no-cache` disables it); both figure sweeps take it directly.
//! * [`lint`] — the `cgra-lint` pipeline linter over `cgra-analyze`
//!   (also behind the figure binaries' `--analyze` flag).
//! * [`jsonio`] — dependency-free JSON codec backing the disk cache
//!   (re-exported from `cgra-obs`, which also uses it for JSONL traces).
//! * [`microbench`] — minimal wall-clock benchmark harness for the
//!   `benches/` targets.
//! * [`obsflags`] — `--trace <path>` / `--metrics` flag handling shared
//!   by the figure binaries (JSONL traces, folded metrics).
//! * [`table`] — plain-text/markdown table rendering.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compile;
pub mod engine;
pub mod fig8;
pub mod fig9;
pub use cgra_obs::jsonio;
pub mod lint;
pub mod mapcache;
pub mod microbench;
pub mod obsflags;
pub mod table;

use cgra_arch::CgraConfig;

/// The paper's experimental grid: `(dimension, page sizes)` per §VII-A.
/// The 6×6 "8 PE" point is substituted with 3×3 pages (9 PEs) — 8 does
/// not divide 36 (DESIGN.md, substitution 4). The paper skips 8-PE pages
/// on the 4×4 for Fig. 9 ("not enough multithreading potential") but maps
/// them in Fig. 8; we keep the point in both and let the data show it.
pub const GRID: [(u16, &[usize]); 3] = [(4, &[2, 4, 8]), (6, &[2, 4, 9]), (8, &[2, 4, 8])];

/// The `dim × dim` fabric with `page_size`-PE pages.
///
/// # Panics
/// Panics if [`CgraConfig::try_square`] cannot build it.
pub fn cgra(dim: u16, page_size: usize) -> CgraConfig {
    CgraConfig::try_square(dim.into(), page_size)
        .unwrap_or_else(|e| panic!("{dim}x{dim} page {page_size}: {e}"))
}

/// Thread counts of Fig. 9.
pub const THREAD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Seeds averaged per Fig. 9 point.
pub const DEFAULT_SEEDS: u64 = 5;
