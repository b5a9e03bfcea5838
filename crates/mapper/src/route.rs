//! Operand routing on the time-extended CGRA graph.
//!
//! Routing finds how a value travels from its producer's PE to its
//! consumer's PE through the mesh, cycle by cycle, reserving routing PEs
//! along the way. Search is over states `(pe, t)` = "the value is
//! available at `pe` at cycle `t`":
//!
//! * **Baseline** ([`route_baseline`]): waiting in an RF is free
//!   (`(pe,t) → (pe,t+1)`, no slot), moving costs a routing slot on the
//!   *destination* PE (`(pe,t) → (pe',t+1)` reserves `(pe', t mod II)`).
//!   0-1 BFS minimises hops, then delivery time.
//! * **Ring** ([`route_ring`], the paper's §VI-B data-flow constraint,
//!   stable-column discipline): same as baseline, but every hop and the
//!   final read must stay on the value's page or advance one page along
//!   the ring path — the shrink transform keeps each page's column fixed
//!   within an iteration, so parked values and single-page advances stay
//!   physically reachable after any shrink.
//! * **Strict** ([`route_strict`]): additionally no waiting — each cycle
//!   the value self-hops (a `Route` op on its own PE) or moves, so the
//!   page-level schedule contains only the canonical 1-step dependences
//!   of §VI-C (the input discipline for the paper's drifting Algorithm 1
//!   placement).
//!
//! The routers run inside the mapper's candidate loop, so they neither
//! allocate nor clear per call: every search state lives in one
//! [`RouteScratch`] that the caller reuses, and each call starts a new
//! generation of its stamps instead of clearing them.
//!
//! Before searching, each router rejects a request that no source (the
//! producer, or a fan-out site) can serve in time. The check is exact,
//! never rejecting a request the search would route. A hop moves the
//! value one link and takes one cycle, and the consumer reads from its
//! own PE or across one link. Any path from a source `s` available at
//! `a` therefore needs at least `distance(s, to) − 1` hops, and it has
//! at most `deadline − a` cycles and `hop_budget` hops to make them
//! (strict routing: exactly `deadline − a` steps). The ring rule and
//! busy slots only remove paths, and waiting only spends cycles, so a
//! source with `distance(s, to) − 1 > min(deadline − a, hop_budget)`
//! cannot start any path the search could find.

use crate::mapping::RouteHop;
use crate::mrt::Mrt;
use cgra_arch::page::PageLayout;
use cgra_arch::topology::{Mesh, PeId};
use std::collections::VecDeque;

/// A routing problem: deliver the value available at `(from_pe, avail)` so
/// the consumer on `to_pe` can read it at `deadline` (from its own RF or
/// across one interconnect link).
#[derive(Debug, Clone, Copy)]
pub struct RouteRequest {
    /// Producer PE.
    pub from_pe: PeId,
    /// First cycle the value exists.
    pub avail: u32,
    /// Consumer PE.
    pub to_pe: PeId,
    /// Cycle the consumer reads.
    pub deadline: u32,
}

/// How the edge is realised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutePlan {
    /// No routing ops needed (same PE or one link, timing already legal).
    Direct,
    /// Routing hops to commit to the MRT.
    Chain(Vec<RouteHop>),
}

impl RoutePlan {
    /// The hops of this plan (empty for `Direct`).
    pub fn hops(&self) -> &[RouteHop] {
        match self {
            RoutePlan::Direct => &[],
            RoutePlan::Chain(h) => h,
        }
    }
}

fn ring_ok(ring: Option<&PageLayout>, from: PeId, to: PeId) -> bool {
    match ring {
        None => true,
        Some(layout) => layout.is_ring_step(layout.page_of(from), layout.page_of(to)),
    }
}

/// A place and time where the routed value is already available — the
/// producer's PE, or a landing of an already-committed route of the same
/// value (fanout sharing: one chain's intermediate stops can feed further
/// consumers without re-routing from the producer).
pub type ValueSite = (PeId, u32);

/// No parent: a starting state of the search.
const ROOT: usize = usize::MAX;

/// Reusable search state for the routers: per-state cost and parent
/// arrays, a generation stamp per state, and the work queue.
///
/// A state's entries count only while its stamp equals the current
/// generation, and each search starts a new generation, so a search
/// never clears the arrays: it costs time in the states it visits, not
/// in the size of its window. The arrays only ever grow, to the largest
/// window seen. Keep one scratch per search loop and pass it to every
/// call; a fresh scratch gives the same plans.
#[derive(Debug, Default)]
pub struct RouteScratch {
    generation: u32,
    stamp: Vec<u32>,
    cost: Vec<u32>,
    /// Previous state, and whether the step from it was a hop.
    parent: Vec<(usize, bool)>,
    queue: VecDeque<(PeId, u32)>,
    /// The found path's hops, goal first.
    hops: Vec<RouteHop>,
}

impl RouteScratch {
    /// An empty scratch; it grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a search over `states` states: every state reads as unseen.
    fn begin(&mut self, states: usize) {
        if self.stamp.len() < states {
            self.stamp.resize(states, 0);
            self.cost.resize(states, 0);
            self.parent.resize(states, (ROOT, false));
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: stamps from 2^32 searches ago would read as current.
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.queue.clear();
    }

    #[inline]
    fn seen(&self, i: usize) -> bool {
        self.stamp[i] == self.generation
    }

    /// Cost of state `i`, or `None` while unseen in this search.
    #[inline]
    fn cost(&self, i: usize) -> Option<u32> {
        self.seen(i).then(|| self.cost[i])
    }

    #[inline]
    fn set(&mut self, i: usize, cost: u32, parent: (usize, bool)) {
        self.stamp[i] = self.generation;
        self.cost[i] = cost;
        self.parent[i] = parent;
    }
}

/// Whether no route from a value available on `pe` at cycle `avail` can
/// reach a PE the consumer on `to` reads from (itself or a neighbour) by
/// `deadline` within `hop_budget` hops. A hop moves one link per cycle,
/// so at least `distance − 1` of them are needed.
fn out_of_reach(
    mesh: Mesh,
    pe: PeId,
    avail: u32,
    to: PeId,
    deadline: u32,
    hop_budget: u32,
) -> bool {
    avail > deadline || mesh.distance(pe, to).saturating_sub(1) > (deadline - avail).min(hop_budget)
}

/// Shared 0-1 BFS with free waiting; `ring` optionally restricts every
/// step (and the final read) to ring-path page motion. `extra_sites` are
/// additional starting states beyond the producer.
fn bfs_route(
    mesh: Mesh,
    mrt: &Mrt,
    req: RouteRequest,
    ring: Option<&PageLayout>,
    hop_budget: u32,
    extra_sites: &[ValueSite],
    scratch: &mut RouteScratch,
) -> Option<RoutePlan> {
    if req.deadline < req.avail {
        return None;
    }
    // Direct read from the producer or any existing site.
    let direct_from = |pe: PeId, avail: u32| {
        avail <= req.deadline
            && (pe == req.to_pe || mesh.adjacent(pe, req.to_pe))
            && ring_ok(ring, pe, req.to_pe)
    };
    if direct_from(req.from_pe, req.avail) || extra_sites.iter().any(|&(pe, a)| direct_from(pe, a))
    {
        return Some(RoutePlan::Direct);
    }
    // Exact distance pre-check: every path the search below can find
    // starts at one of these sources.
    let reach =
        |pe: PeId, avail: u32| !out_of_reach(mesh, pe, avail, req.to_pe, req.deadline, hop_budget);
    if !reach(req.from_pe, req.avail) && !extra_sites.iter().any(|&(pe, a)| reach(pe, a)) {
        return None;
    }
    let start = req.avail.min(
        extra_sites
            .iter()
            .map(|&(_, a)| a)
            .min()
            .unwrap_or(req.avail),
    );
    let window = (req.deadline - start) as usize + 1;
    let n = mesh.num_pes();
    let idx = |pe: PeId, t: u32| (t - start) as usize * n + pe.index();
    scratch.begin(n * window);
    scratch.set(idx(req.from_pe, req.avail), 0, (ROOT, false));
    scratch.queue.push_back((req.from_pe, req.avail));
    for &(pe, a) in extra_sites {
        if a <= req.deadline && !scratch.seen(idx(pe, a)) {
            scratch.set(idx(pe, a), 0, (ROOT, false));
            scratch.queue.push_back((pe, a));
        }
    }

    let mut goal: Option<(PeId, u32)> = None;
    while let Some((pe, t)) = scratch.queue.pop_front() {
        let here = idx(pe, t);
        let c = scratch.cost[here];
        if (pe == req.to_pe || mesh.adjacent(pe, req.to_pe)) && ring_ok(ring, pe, req.to_pe) {
            goal = Some((pe, t));
            break;
        }
        if t == req.deadline {
            continue;
        }
        // Wait (cost 0) — push front.
        let wi = idx(pe, t + 1);
        if scratch.cost(wi).is_none_or(|w| w > c) {
            scratch.set(wi, c, (here, false));
            scratch.queue.push_front((pe, t + 1));
        }
        // Hop (cost 1) — push back.
        if c < hop_budget {
            for nb in mesh.neighbors(pe) {
                if !ring_ok(ring, pe, nb) || !mrt.pe_free(nb, t as u64) {
                    continue;
                }
                let hi = idx(nb, t + 1);
                if scratch.cost(hi).is_none_or(|h| h > c + 1) {
                    scratch.set(hi, c + 1, (here, true));
                    scratch.queue.push_back((nb, t + 1));
                }
            }
        }
    }
    let (gpe, gt) = goal?;
    // Walk back from the goal into the scratch, then copy the hops out
    // in order: the plan's `Vec` is the one allocation of the search.
    scratch.hops.clear();
    let mut cur = idx(gpe, gt);
    while scratch.parent[cur].0 != ROOT {
        let (prev, was_hop) = scratch.parent[cur];
        if was_hop {
            let t = start + (cur / n) as u32;
            let pe = PeId((cur % n) as u16);
            // The hop op executes the cycle *before* the value lands.
            scratch.hops.push(RouteHop { pe, time: t - 1 });
        }
        cur = prev;
    }
    if scratch.hops.is_empty() {
        return Some(RoutePlan::Direct);
    }
    Some(RoutePlan::Chain(
        scratch.hops.iter().rev().copied().collect(),
    ))
}

/// Route under baseline rules. Returns `None` if no legal realisation
/// exists within the deadline. `sites` are extra places the value is
/// already available (fanout sharing); pass `&[]` when there are none.
pub fn route_baseline(
    mesh: Mesh,
    mrt: &Mrt,
    req: RouteRequest,
    sites: &[ValueSite],
    scratch: &mut RouteScratch,
) -> Option<RoutePlan> {
    bfs_route(mesh, mrt, req, None, u32::MAX, sites, scratch)
}

/// Route under the paper's ring constraint with the stable-column
/// discipline: waiting allowed, every step ring-monotone.
pub fn route_ring(
    mesh: Mesh,
    layout: &PageLayout,
    mrt: &Mrt,
    req: RouteRequest,
    hop_budget: u32,
    sites: &[ValueSite],
    scratch: &mut RouteScratch,
) -> Option<RoutePlan> {
    bfs_route(mesh, mrt, req, Some(layout), hop_budget, sites, scratch)
}

/// Route under the strict 1-step discipline: the chain, if any, has
/// exactly `deadline − avail` hops (self-hops included); `None` if that
/// exceeds `chain_budget` or no ring-legal path exists.
pub fn route_strict(
    mesh: Mesh,
    layout: &PageLayout,
    mrt: &Mrt,
    req: RouteRequest,
    chain_budget: u32,
    scratch: &mut RouteScratch,
) -> Option<RoutePlan> {
    if req.deadline < req.avail {
        return None;
    }
    let steps = req.deadline - req.avail;
    if steps == 0 {
        let ok = (req.from_pe == req.to_pe || mesh.adjacent(req.from_pe, req.to_pe))
            && ring_ok(Some(layout), req.from_pe, req.to_pe);
        return ok.then_some(RoutePlan::Direct);
    }
    if steps > chain_budget
        || out_of_reach(mesh, req.from_pe, req.avail, req.to_pe, req.deadline, steps)
    {
        return None;
    }
    // BFS over exactly `steps` transitions; states (pe, step).
    let n = mesh.num_pes();
    let idx = |pe: PeId, step: u32| step as usize * n + pe.index();
    scratch.begin(n * (steps as usize + 1));
    scratch.set(idx(req.from_pe, 0), 0, (ROOT, false));
    scratch.queue.push_back((req.from_pe, 0));
    let mut goal: Option<PeId> = None;
    while let Some((pe, step)) = scratch.queue.pop_front() {
        if step == steps {
            if (pe == req.to_pe || mesh.adjacent(pe, req.to_pe))
                && ring_ok(Some(layout), pe, req.to_pe)
            {
                goal = Some(pe);
                break;
            }
            continue;
        }
        let t = req.avail + step; // hop op executes at this cycle
                                  // Self-hop first, then the mesh neighbours.
        for nb in std::iter::once(pe).chain(mesh.neighbors(pe)) {
            if !ring_ok(Some(layout), pe, nb) || !mrt.pe_free(nb, t as u64) {
                continue;
            }
            let i = idx(nb, step + 1);
            if !scratch.seen(i) {
                scratch.set(i, 0, (idx(pe, step), true));
                scratch.queue.push_back((nb, step + 1));
            }
        }
    }
    let gpe = goal?;
    let mut chain = Vec::with_capacity(steps as usize);
    let mut cur = idx(gpe, steps);
    while scratch.parent[cur].0 != ROOT {
        let step = (cur / n) as u32;
        let pe = PeId((cur % n) as u16);
        chain.push(RouteHop {
            pe,
            time: req.avail + step - 1,
        });
        cur = scratch.parent[cur].0;
    }
    chain.reverse();
    debug_assert_eq!(chain.len() as u32, steps);
    Some(RoutePlan::Chain(chain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::CgraConfig;

    fn setup(ii: u32) -> (CgraConfig, Mrt) {
        let c = CgraConfig::square(4);
        let mrt = Mrt::new(c.mesh(), ii, 1);
        (c, mrt)
    }

    #[test]
    fn adjacent_is_direct() {
        let (c, mrt) = setup(4);
        let plan = route_baseline(
            c.mesh(),
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(1),
                deadline: 5,
            },
            &[],
            &mut RouteScratch::new(),
        );
        assert_eq!(plan, Some(RoutePlan::Direct));
    }

    #[test]
    fn two_hop_distance_needs_one_routing_pe() {
        let (c, mrt) = setup(4);
        // PE0 -> PE2: PE1 is adjacent to both; one hop onto PE1 lets the
        // consumer read across the last link.
        let plan = route_baseline(
            c.mesh(),
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(2),
                deadline: 3,
            },
            &[],
            &mut RouteScratch::new(),
        )
        .expect("routable");
        assert_eq!(plan.hops().len(), 1);
        assert_eq!(plan.hops()[0].pe, PeId(1));
    }

    #[test]
    fn deadline_too_tight_fails() {
        let (c, mrt) = setup(4);
        // PE0 to PE15 (corner to corner): needs 5 hops, deadline allows 1.
        let plan = route_baseline(
            c.mesh(),
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(15),
                deadline: 2,
            },
            &[],
            &mut RouteScratch::new(),
        );
        assert!(plan.is_none());
    }

    #[test]
    fn far_corner_routes_given_time() {
        let (c, mrt) = setup(8);
        let plan = route_baseline(
            c.mesh(),
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(15),
                deadline: 8,
            },
            &[],
            &mut RouteScratch::new(),
        )
        .expect("routable");
        // Manhattan distance 6; consumer reads across last link: 5 hops.
        assert_eq!(plan.hops().len(), 5);
    }

    #[test]
    fn baseline_routes_around_occupied_pes() {
        let (c, mut mrt) = setup(2);
        mrt.reserve(PeId(1), 0, crate::mrt::SlotUse::Compute(9), false);
        mrt.reserve(PeId(1), 1, crate::mrt::SlotUse::Compute(10), false);
        let plan = route_baseline(
            c.mesh(),
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(2),
                deadline: 9,
            },
            &[],
            &mut RouteScratch::new(),
        )
        .expect("routable around blockage");
        assert_eq!(plan.hops().len(), 3);
        assert!(plan.hops().iter().all(|h| h.pe != PeId(1)));
    }

    #[test]
    fn ring_route_rejects_backward_page_motion() {
        let (c, mrt) = setup(4);
        // PE2 (page 1) -> PE1 (page 0): backwards on the ring path.
        let plan = route_ring(
            c.mesh(),
            c.layout(),
            &mrt,
            RouteRequest {
                from_pe: PeId(2),
                avail: 3,
                to_pe: PeId(1),
                deadline: 12,
            },
            8,
            &[],
            &mut RouteScratch::new(),
        );
        assert!(plan.is_none());
        // Forward: PE1 (page 0) -> PE2 (page 1) is direct.
        let plan = route_ring(
            c.mesh(),
            c.layout(),
            &mrt,
            RouteRequest {
                from_pe: PeId(1),
                avail: 3,
                to_pe: PeId(2),
                deadline: 3,
            },
            8,
            &[],
            &mut RouteScratch::new(),
        );
        assert_eq!(plan, Some(RoutePlan::Direct));
    }

    #[test]
    fn ring_route_allows_waiting_then_crossing() {
        let (c, mrt) = setup(4);
        // PE0 (page 0) -> PE7 (row1,col3: page 1): distance 3. Value may
        // park at PE0 and hop through page 0/1 PEs.
        let plan = route_ring(
            c.mesh(),
            c.layout(),
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(7),
                deadline: 9,
            },
            8,
            &[],
            &mut RouteScratch::new(),
        )
        .expect("ring-forward route exists");
        // Never leaves pages 0/1.
        for h in plan.hops() {
            let p = c.layout().page_of(h.pe);
            assert!(p.0 <= 1, "hop on {}", h.pe);
        }
    }

    #[test]
    fn strict_zero_step_requires_ring_legality() {
        let (c, mrt) = setup(4);
        let plan = route_strict(
            c.mesh(),
            c.layout(),
            &mrt,
            RouteRequest {
                from_pe: PeId(2),
                avail: 3,
                to_pe: PeId(1),
                deadline: 3,
            },
            8,
            &mut RouteScratch::new(),
        );
        assert!(plan.is_none());
    }

    #[test]
    fn strict_chain_is_contiguous_and_exact_length() {
        let (c, mrt) = setup(8);
        let plan = route_strict(
            c.mesh(),
            c.layout(),
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 2,
                to_pe: PeId(0),
                deadline: 5,
            },
            8,
            &mut RouteScratch::new(),
        )
        .expect("self-delivery via self-hops");
        let hops = plan.hops();
        assert_eq!(hops.len(), 3);
        for (i, h) in hops.iter().enumerate() {
            assert_eq!(h.time, 2 + i as u32);
        }
    }

    #[test]
    fn strict_respects_chain_budget() {
        let (c, mrt) = setup(8);
        let plan = route_strict(
            c.mesh(),
            c.layout(),
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 0,
                to_pe: PeId(0),
                deadline: 7,
            },
            4,
            &mut RouteScratch::new(),
        );
        assert!(plan.is_none());
    }

    #[test]
    fn strict_cannot_wrap_the_ring() {
        let (c, mrt) = setup(8);
        // Path semantics: page 3 -> page 0 (the wrap link) is rejected
        // even though the quadrant pages are physically adjacent.
        let plan = route_strict(
            c.mesh(),
            c.layout(),
            &mrt,
            RouteRequest {
                from_pe: PeId(8), // row2,col0: page 3
                avail: 0,
                to_pe: PeId(4), // row1,col0: page 0
                deadline: 0,
            },
            8,
            &mut RouteScratch::new(),
        );
        assert!(plan.is_none());
    }

    #[test]
    fn baseline_hop_times_precede_landing() {
        let (c, mrt) = setup(8);
        let plan = route_baseline(
            c.mesh(),
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(10),
                deadline: 8,
            },
            &[],
            &mut RouteScratch::new(),
        )
        .expect("routable");
        let hops = plan.hops();
        for w in hops.windows(2) {
            assert!(w[0].time < w[1].time);
        }
        assert!(hops.first().map(|h| h.time >= 1).unwrap_or(true));
    }

    /// Seeded random occupancies and requests in all three modes: one
    /// scratch reused across every call gives the plan a fresh scratch
    /// gives (a stale stamp would leak one search's states into the
    /// next), and every plan respects the hop lower bound and the time
    /// window.
    #[test]
    fn reused_scratch_matches_a_fresh_one() {
        use crate::mrt::SlotUse;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let fabrics = [
            CgraConfig::square(4),
            CgraConfig::square(6).with_page_size(9).unwrap(),
            CgraConfig::square(8).with_page_size(2).unwrap(),
        ];
        let mut rng = StdRng::seed_from_u64(0x2077E);
        let mut reused = RouteScratch::new();
        let (mut calls, mut routed) = (0, 0);
        for round in 0..120 {
            let cgra = &fabrics[round % fabrics.len()];
            let (mesh, layout) = (cgra.mesh(), cgra.layout());
            let n = mesh.num_pes() as u16;
            let ii = rng.gen_range(1..7u32);
            let mut mrt = Mrt::new(mesh, ii, 1);
            let fill = rng.gen_range(0..60u32);
            for pe in mesh.pes() {
                for t in 0..ii {
                    if rng.gen_range(0..100u32) < fill {
                        mrt.reserve(pe, t as u64, SlotUse::Compute(0), false);
                    }
                }
            }
            for _ in 0..20 {
                let avail = rng.gen_range(0..8u32);
                let req = RouteRequest {
                    from_pe: PeId(rng.gen_range(0..n)),
                    avail,
                    to_pe: PeId(rng.gen_range(0..n)),
                    deadline: avail + rng.gen_range(0..14u32),
                };
                // Sibling landings come strictly after the producer's
                // value exists; some land past the deadline.
                let sites: Vec<ValueSite> = (0..rng.gen_range(0..4usize))
                    .map(|_| {
                        let a = req.avail + 1 + rng.gen_range(0..16u32);
                        (PeId(rng.gen_range(0..n)), a)
                    })
                    .collect();
                let budget = rng.gen_range(1..12u32);
                let mode = rng.gen_range(0..3u32);
                let route = |scratch: &mut RouteScratch| match mode {
                    0 => route_baseline(mesh, &mrt, req, &sites, scratch),
                    1 => route_ring(mesh, layout, &mrt, req, budget, &sites, scratch),
                    _ => route_strict(mesh, layout, &mrt, req, budget, scratch),
                };
                let plan = route(&mut reused);
                assert_eq!(plan, route(&mut RouteScratch::new()), "{req:?} mode {mode}");
                calls += 1;
                let Some(plan) = plan else { continue };
                routed += 1;
                let sources = std::iter::once((req.from_pe, req.avail));
                let sources: Vec<ValueSite> = if mode == 2 {
                    sources.collect()
                } else {
                    sources.chain(sites.iter().copied()).collect()
                };
                let min_hops = sources
                    .iter()
                    .filter(|&&(_, a)| a <= req.deadline)
                    .map(|&(pe, _)| mesh.distance(pe, req.to_pe).saturating_sub(1))
                    .min()
                    .unwrap();
                let hops = plan.hops();
                assert!(hops.len() as u32 >= min_hops, "{req:?}: {hops:?}");
                for h in hops {
                    assert!(
                        (req.avail..req.deadline).contains(&h.time),
                        "{req:?}: {h:?}"
                    );
                    assert!(mrt.pe_free(h.pe, h.time as u64), "{req:?}: {h:?}");
                }
            }
        }
        assert!(calls >= 2000, "{calls} calls");
        assert!(
            routed > calls / 10 && routed < calls,
            "{routed} of {calls} routed"
        );
    }
}
