//! Golden-file snapshot of the mappings themselves: for every paper
//! kernel on every fabric of the paper's grid, in both the baseline and
//! the paging-constrained mode, one line with the achieved II and an
//! FNV-1a hash of every placement and every routing hop. Three seeded
//! random DFGs ride along on every fabric, and the strict discipline is
//! pinned for the paper kernels on the 4×4 page-4 fabric.
//!
//! The search is deterministic (seeded restarts), so any change to the
//! order in which the mapper tries candidates, to the router, or to the
//! modulo reservation table shows up here as a changed hash, even when
//! the new mapping is just as valid. Performance work on the mapper must
//! leave this file byte-identical. Refresh with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p cgra-mapper --test golden_mappings
//! ```
//!
//! and bump `cgra_bench::mapcache::SCHEMA` in the same commit, since
//! cached mappings are keyed on the search, not on its output.
//!
//! Each fabric is its own `#[test]` so the harness maps them in
//! parallel; every test compares (or rewrites) only its own section of
//! the shared golden file.

use cgra_arch::CgraConfig;
use cgra_dfg::random::{random_dfg, RandomDfgParams};
use cgra_dfg::Dfg;
use cgra_mapper::{
    map_baseline, map_constrained, map_constrained_strict, MapError, MapOptions, MapResult,
};
use cgra_obs::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

/// The paper's fabrics as `(mesh side, page size)`, in the order of
/// `cgra_bench::GRID` (which this crate cannot depend on).
const GRID: [(u16, usize); 9] = [
    (4, 2),
    (4, 4),
    (4, 8),
    (6, 2),
    (6, 4),
    (6, 9),
    (8, 2),
    (8, 4),
    (8, 8),
];

/// Three seeded random DFGs: layered, 2–5 ops per layer, with zero, one
/// and two recurrences.
fn random_kernels() -> Vec<Dfg> {
    [(11, 4, 0), (12, 5, 1), (13, 6, 2)]
        .into_iter()
        .map(|(seed, layers, recurrences)| {
            random_dfg(
                seed,
                RandomDfgParams {
                    layers,
                    recurrences,
                    ..RandomDfgParams::default()
                },
            )
        })
        .collect()
}

/// 64-bit FNV-1a over a stream of integers (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Hash of a mapping: II, then every placement `(pe, time)` in node
/// order, then every edge's hop count and hops `(pe, time)` in edge
/// order.
fn mapping_hash(r: &MapResult) -> u64 {
    let m = &r.mapping;
    let mut h = Fnv::new();
    h.eat(m.ii as u64);
    h.eat(m.placements.len() as u64);
    for p in &m.placements {
        h.eat(p.pe.0 as u64);
        h.eat(p.time as u64);
    }
    h.eat(m.routes.len() as u64);
    for hops in &m.routes {
        h.eat(hops.len() as u64);
        for hop in hops {
            h.eat(hop.pe.0 as u64);
            h.eat(hop.time as u64);
        }
    }
    h.0
}

fn line(out: &mut String, kernel: &str, fabric: &str, mode: &str, r: Result<MapResult, MapError>) {
    match r {
        Ok(r) => {
            let _ = writeln!(
                out,
                "{kernel} {fabric} {mode} ii={} hash={:016x}",
                r.ii(),
                mapping_hash(&r)
            );
        }
        Err(e) => {
            let _ = writeln!(out, "{kernel} {fabric} {mode} error: {e}");
        }
    }
}

/// The golden lines of one fabric: baseline and constrained mappings of
/// every paper kernel and random DFG, or, when `strict` is set, the
/// strict mappings of the paper kernels.
fn render(dim: u16, page: usize, strict: bool) -> String {
    let cgra = CgraConfig::square(dim)
        .with_page_size(page)
        .expect("grid fabric");
    let fabric = format!("{dim}x{dim}p{page}");
    let opts = MapOptions::default();
    let mut out = String::new();
    if strict {
        for dfg in &cgra_dfg::kernels::all() {
            let r = map_constrained_strict(dfg, &cgra, &opts, &Tracer::off());
            line(&mut out, &dfg.name, &fabric, "strict", r);
        }
        return out;
    }
    for dfg in cgra_dfg::kernels::all().iter().chain(&random_kernels()) {
        let name = &dfg.name;
        line(
            &mut out,
            name,
            &fabric,
            "baseline",
            map_baseline(dfg, &cgra, &opts),
        );
        let r = map_constrained(dfg, &cgra, &opts);
        line(&mut out, name, &fabric, "constrained", r);
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join("mappings.txt")
}

/// Sections of the golden file, keyed by fabric, each `# <fabric>`
/// followed by its lines.
fn parse_sections(text: &str) -> BTreeMap<String, String> {
    let mut sections = BTreeMap::new();
    let mut current: Option<(String, String)> = None;
    for l in text.lines() {
        if let Some(name) = l.strip_prefix("# ") {
            if let Some((k, v)) = current.take() {
                sections.insert(k, v);
            }
            current = Some((name.to_string(), String::new()));
        } else if let Some((_, body)) = current.as_mut() {
            body.push_str(l);
            body.push('\n');
        }
    }
    if let Some((k, v)) = current {
        sections.insert(k, v);
    }
    sections
}

/// Serialises read-modify-write of the shared golden file across the
/// parallel per-fabric tests.
static GOLDEN_LOCK: Mutex<()> = Mutex::new(());

/// Section key of a fabric's mappings.
fn key(dim: u16, page: usize, strict: bool) -> String {
    let suffix = if strict { " strict" } else { "" };
    format!("{dim}x{dim}p{page}{suffix}")
}

fn check(dim: u16, page: usize, strict: bool) {
    let section = key(dim, page, strict);
    let actual = render(dim, page, strict);
    let path = golden_path();
    let _guard = GOLDEN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let mut sections = parse_sections(&text);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        sections.insert(section, actual);
        let mut out = String::new();
        let keys = GRID.iter().map(|&(d, p)| key(d, p, false));
        for k in keys.chain([key(4, 4, true)]) {
            if let Some(body) = sections.get(&k) {
                let _ = write!(out, "# {k}\n{body}");
            }
        }
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, out).unwrap();
        return;
    }
    let expected = sections.get(&section).unwrap_or_else(|| {
        panic!(
            "no section {section} in golden file {}; regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        &actual, expected,
        "mappings on {section} diverged; if intentional, rerun with UPDATE_GOLDEN=1"
    );
}

#[test]
fn mappings_4x4_p2() {
    check(4, 2, false);
}

#[test]
fn mappings_4x4_p4() {
    check(4, 4, false);
}

#[test]
fn mappings_4x4_p8() {
    check(4, 8, false);
}

#[test]
fn mappings_6x6_p2() {
    check(6, 2, false);
}

#[test]
fn mappings_6x6_p4() {
    check(6, 4, false);
}

#[test]
fn mappings_6x6_p9() {
    check(6, 9, false);
}

#[test]
fn mappings_8x8_p2() {
    check(8, 2, false);
}

#[test]
fn mappings_8x8_p4() {
    check(8, 4, false);
}

#[test]
fn mappings_8x8_p8() {
    check(8, 8, false);
}

#[test]
fn mappings_4x4_p4_strict() {
    check(4, 4, true);
}
