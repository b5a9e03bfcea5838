//! Cross-crate property tests: random DFGs survive the whole pipeline,
//! random synthetic page schedules transform validly for every M, and
//! random allocator request/release/expand sequences preserve the page
//! accounting invariants.
//!
//! The build environment has no registry access, so instead of `proptest`
//! these are hand-rolled: each property enumerates a deterministic,
//! seeded case set (every case visible in the loop header), and
//! `continue` plays the role of `prop_assume!` — cases that don't satisfy
//! the precondition are skipped, not failed.

use cgra_bench::mapcache::MapCache;
use cgra_mt::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeMap;

/// Any generated DFG maps under both disciplines on a 4x4 and both
/// mappings validate; the constrained II never beats the baseline MII.
#[test]
fn random_dfgs_map_and_validate() {
    for case in 0..24u64 {
        let seed = case * 21; // spread over the old 0..500 range
        let recs = (case % 2) as usize;
        let dfg = cgra_mt::dfg::random::random_dfg(
            seed,
            cgra_mt::dfg::random::RandomDfgParams {
                layers: 4,
                width: (2, 4),
                edge_prob: 0.35,
                recurrences: recs,
                rec_distance: 1,
            },
        );
        let cgra = CgraConfig::square(4);
        let opts = MapOptions::fast();

        let Ok(base) = map_baseline(&dfg, &cgra, &opts) else {
            continue;
        };
        assert!(
            validate_mapping(&base.mdfg, &cgra, &base.mapping, MapMode::Baseline).is_empty(),
            "seed {seed}: baseline mapping invalid"
        );

        let Ok(cons) = map_constrained(&dfg, &cgra, &opts) else {
            continue;
        };
        assert!(
            validate_mapping(&cons.mdfg, &cgra, &cons.mapping, MapMode::Constrained).is_empty(),
            "seed {seed}: constrained mapping invalid"
        );
        assert!(
            cons.ii() >= base.ii().min(cgra_mt::dfg::mii(&dfg, 16)),
            "seed {seed}: constrained II {} beats baseline {}",
            cons.ii(),
            base.ii()
        );
    }
}

/// Every synthetic canonical ring schedule transforms validly onto every
/// M, with II_q between the capacity bound and the block bound.
#[test]
fn synthetic_schedules_transform_validly() {
    for n in 2u16..12 {
        for ii in 1u32..4 {
            for wrap in [false, true] {
                let p = PagedSchedule::synthetic_canonical(n, ii, wrap);
                for m in 1..=n {
                    let Ok(plan) = transform_pagemaster(&p, m) else {
                        continue;
                    };
                    let v = validate_plan(&p, &plan);
                    assert!(v.is_empty(), "N={n} II={ii} wrap={wrap} M={m}: {v:?}");
                    let bound = (n as f64 * ii as f64) / m as f64;
                    assert!(
                        plan.ii_q() + 1e-9 >= bound.min(ii as f64 * (n as f64 / m as f64)),
                        "N={n} II={ii} wrap={wrap} M={m}: II_q {} below bound",
                        plan.ii_q()
                    );
                }
            }
        }
    }
}

/// Mapped kernels' paged schedules shrink validly with the block strategy
/// for every divisor-chain M.
#[test]
fn extracted_schedules_block_transform() {
    for case in 0..24u64 {
        let seed = case * 8; // spread over the old 0..200 range
        let dfg = cgra_mt::dfg::random::random_dfg(
            seed,
            cgra_mt::dfg::random::RandomDfgParams::default(),
        );
        let cgra = CgraConfig::square(4);
        let Ok(cons) = map_constrained(&dfg, &cgra, &MapOptions::fast()) else {
            continue;
        };
        let paged = PagedSchedule::from_mapping(&cons, &cgra).unwrap().trimmed();
        for m in 1..=paged.num_pages {
            let plan = transform_block(&paged, m).unwrap();
            let v = validate_plan(&paged, &plan);
            assert!(v.is_empty(), "seed {seed} M={m}: {v:?}");
        }
    }
}

/// Functional equivalence on random DFGs: the cycle-level machine
/// executing the baseline and constrained mappings reproduces the golden
/// interpreter's store streams exactly.
#[test]
fn random_dfgs_execute_equivalently() {
    for case in 0..16u64 {
        let seed = case * 19; // spread over the old 0..300 range
        let recs = (case % 2) as usize;
        let dfg = cgra_mt::dfg::random::random_dfg(
            seed ^ 0xE0E0,
            cgra_mt::dfg::random::RandomDfgParams {
                layers: 4,
                width: (2, 4),
                edge_prob: 0.4,
                recurrences: recs,
                rec_distance: 1,
            },
        );
        let cgra = CgraConfig::square(4).with_rf_size(32);
        let opts = MapOptions::fast();
        let iters = 6;
        let inputs = InputStreams::random(&dfg, iters, seed);
        let golden = interpret(&dfg, &inputs, iters).unwrap();

        for result in [
            map_baseline(&dfg, &cgra, &opts),
            map_constrained(&dfg, &cgra, &opts),
        ] {
            let Ok(mapped) = result else { continue };
            let sched = MachineSchedule::from_mapping(&mapped.mapping);
            let out = execute(&mapped.mdfg, cgra.mesh(), &sched, &inputs, iters);
            let out = out.unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            for (store, values) in &golden {
                assert_eq!(
                    out.get(store),
                    Some(values),
                    "seed {seed}: store n{store} diverges"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Allocator invariants under random request/release/expand sequences.
//
// A shadow model (`owned`) tracks what the allocator has granted each
// thread; after every step the model and the allocator must agree, the
// page counts must conserve (no page counted for two threads, nothing
// beyond N), and every allocation must sit on the halving chain.

struct Shadow {
    n: u16,
    chain: Vec<u16>,
    owned: BTreeMap<usize, u16>,
}

impl Shadow {
    fn check(&self, a: &cgra_mt::sim::Allocator, step: usize) {
        let total: u16 = self.owned.values().sum();
        assert!(
            total <= self.n,
            "step {step}: granted {total} pages of {}",
            self.n
        );
        assert!(a.check_invariant(), "step {step}: allocator invariant");
        assert_eq!(
            a.free_pages(),
            self.n - total,
            "step {step}: free-page conservation (double ownership?)"
        );
        assert_eq!(a.active(), self.owned.len(), "step {step}: active count");
        for (&t, &p) in &self.owned {
            assert_eq!(a.allocation(t), Some(p), "step {step}: thread {t}");
            assert!(
                self.chain.contains(&p),
                "step {step}: thread {t} holds off-chain allocation {p}"
            );
        }
    }
}

#[test]
fn allocator_random_sequences_preserve_invariants() {
    use cgra_mt::sim::{Allocator, ExpandPolicy, RequestOutcome};

    for case in 0..40u64 {
        let n = [2u16, 4, 8, 9, 16][case as usize % 5];
        let chain = cgra_mt::sim::halving_chain(n);
        let mut rng = StdRng::seed_from_u64(0xA110_C000 + case);
        let mut a = Allocator::new(n);
        let mut shadow = Shadow {
            n,
            chain: chain.clone(),
            owned: BTreeMap::new(),
        };
        let mut next_thread = 0usize;

        for step in 0..200 {
            match rng.gen_range(0..4u32) {
                // Request: a new thread asks for a random chain budget.
                0 | 1 => {
                    let want = chain[rng.gen_range(0..chain.len())];
                    let t = next_thread;
                    next_thread += 1;
                    match a.request(t, want).unwrap() {
                        RequestOutcome::Granted { pages } => {
                            assert!(pages <= want, "step {step}: granted beyond want");
                            shadow.owned.insert(t, pages);
                        }
                        RequestOutcome::Shrunk {
                            victim,
                            victim_was,
                            victim_pages,
                            pages,
                        } => {
                            let before = shadow.owned[&victim];
                            assert_eq!(
                                victim_was, before,
                                "step {step}: victim_was disagrees with the shadow"
                            );
                            assert!(
                                victim_pages < before,
                                "step {step}: shrink did not shrink ({before} -> {victim_pages})"
                            );
                            assert!(pages <= want, "step {step}: granted beyond want");
                            shadow.owned.insert(victim, victim_pages);
                            shadow.owned.insert(t, pages);
                        }
                        RequestOutcome::Queued => {
                            // Queued requests must only happen when no
                            // thread can shrink any further.
                            assert!(
                                shadow.owned.values().all(|&p| p == chain[chain.len() - 1])
                                    || shadow.owned.is_empty() && n == 0,
                                "step {step}: queued while a shrink was possible"
                            );
                        }
                    }
                }
                // Release a random active thread; its pages come back.
                2 => {
                    let Some(&t) = shadow
                        .owned
                        .keys()
                        .nth(rng.gen_range(0..shadow.owned.len().max(1)))
                    else {
                        continue;
                    };
                    let freed = a.release(t).unwrap();
                    assert_eq!(freed, shadow.owned.remove(&t).unwrap());
                }
                // Expand under a random policy; growth only, chain only.
                _ => {
                    let policy = [
                        ExpandPolicy::SmallestFirst,
                        ExpandPolicy::LargestFirst,
                        ExpandPolicy::None,
                    ][rng.gen_range(0..3usize)];
                    let grown = a.expand(policy, |_| n).unwrap();
                    assert!(
                        policy != ExpandPolicy::None || grown.is_empty(),
                        "step {step}: ExpandPolicy::None expanded"
                    );
                    for g in grown {
                        let before = shadow.owned[&g.thread];
                        assert_eq!(
                            g.from_pages, before,
                            "step {step}: from_pages disagrees with the shadow"
                        );
                        assert!(
                            g.to_pages > before,
                            "step {step}: expand shrank thread {}",
                            g.thread
                        );
                        shadow.owned.insert(g.thread, g.to_pages);
                    }
                }
            }
            shadow.check(&a, step);
        }

        // Freed pages are reusable: drain everything, then one thread can
        // claim the whole fabric again.
        for t in shadow.owned.keys().copied().collect::<Vec<_>>() {
            a.release(t).unwrap();
            shadow.owned.remove(&t);
        }
        shadow.check(&a, usize::MAX);
        assert_eq!(a.free_pages(), n);
        assert_eq!(
            a.request(next_thread, n).unwrap(),
            RequestOutcome::Granted { pages: n },
            "full fabric not reusable after drain (N={n})"
        );
    }
}

/// Expansion never grants pages beyond the want cap, even with free room.
#[test]
fn allocator_expand_respects_want_caps() {
    use cgra_mt::sim::{Allocator, ExpandPolicy};

    for n in [4u16, 8, 16] {
        let chain = cgra_mt::sim::halving_chain(n);
        for &cap in &chain {
            let mut a = Allocator::new(n);
            a.request(0, chain[chain.len() - 1]).unwrap(); // start at 1 page
            loop {
                let grown = a.expand(ExpandPolicy::SmallestFirst, |_| cap).unwrap();
                if grown.is_empty() {
                    break;
                }
            }
            let got = a.allocation(0).unwrap();
            assert!(got <= cap, "N={n} cap={cap}: expanded to {got}");
            assert!(a.check_invariant());
        }
    }
}

// ---------------------------------------------------------------------
// Simulator cross-properties (deterministic: libraries are expensive).

#[test]
fn simulator_agrees_with_hand_computation() {
    let cgra = CgraConfig::square(4);
    let lib = MapCache::in_memory().library(&cgra, &MapOptions::default());
    // One thread, one segment: both systems compute exactly.
    let spec = cgra_mt::sim::ThreadSpec {
        segments: vec![cgra_mt::sim::Segment::Cgra {
            kernel: 0,
            iterations: 7,
        }],
    };
    let base = simulate_baseline(&lib, std::slice::from_ref(&spec));
    let mt =
        simulate_multithreaded(&lib, &[spec], MtConfig::default(), &[], &Tracer::off()).unwrap();
    assert_eq!(base.makespan, 7 * lib.profile(0).ii_baseline as u64);
    assert_eq!(mt.makespan, 7 * lib.profile(0).ii_constrained as u64);
}

#[test]
fn multithreaded_never_stalls_forever() {
    // 16 threads on the tiny 4x4: stalls happen, but everything finishes.
    let cgra = CgraConfig::square(4);
    let lib = MapCache::in_memory().library(&cgra, &MapOptions::default());
    let w = generate(
        &lib,
        &WorkloadParams {
            threads: 16,
            need: CgraNeed::High,
            work_per_thread: 10_000,
            bursts: 2,
            seed: 5,
        },
    );
    let r = simulate_multithreaded(&lib, &w, MtConfig::default(), &[], &Tracer::off()).unwrap();
    assert_eq!(r.thread_finish.len(), 16);
    assert!(r.thread_finish.iter().all(|&f| f > 0));
}
