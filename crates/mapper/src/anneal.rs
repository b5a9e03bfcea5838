//! A DRESC-style simulated-annealing mapper (secondary baseline).
//!
//! DRESC [9] maps kernels by simulated annealing over placements,
//! penalising resource conflicts and unroutable operands, lowering II when
//! a legal schedule is found. This implementation anneals placements
//! against a relaxed cost (conflict counts + routing-slack shortfalls),
//! then attempts an exact routing pass with the real router; the result is
//! validated by [`crate::mapping::validate_mapping`] like any other
//! mapping. It exists to cross-check the list scheduler's quality and to
//! reproduce the paper's remark that annealing-based compilation is far
//! too slow for runtime use (see `benches/mapper.rs`).

use crate::ems::MapResult;
use crate::engine::{asap_with_mem, mii_with_mem};
use crate::error::MapError;
use crate::mapping::{MapMode, Mapping, Placement};
use crate::mrt::{Mrt, SlotUse};
use crate::opts::MapOptions;
use crate::route::{route_baseline, RoutePlan, RouteRequest, RouteScratch, ValueSite};
use crate::spill::MapDfg;
use cgra_arch::CgraConfig;
use cgra_dfg::graph::Dfg;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Annealing parameters.
#[derive(Debug, Clone, Copy)]
pub struct AnnealOptions {
    /// Moves per temperature step.
    pub moves_per_temp: u32,
    /// Temperature decay per step.
    pub cooling: f64,
    /// Initial temperature.
    pub t0: f64,
    /// Temperature floor — stop when reached.
    pub t_min: f64,
    /// Independent annealing runs per II.
    pub runs: u32,
}

impl Default for AnnealOptions {
    fn default() -> Self {
        AnnealOptions {
            moves_per_temp: 256,
            cooling: 0.92,
            t0: 8.0,
            t_min: 0.05,
            runs: 3,
        }
    }
}

/// Relaxed cost of a placement vector: slot/bus conflicts plus per-edge
/// routability shortfall (a lower bound that ignores congestion).
fn relaxed_cost(mdfg: &MapDfg, cgra: &CgraConfig, ii: u32, placements: &[Placement]) -> u64 {
    let mesh = cgra.mesh();
    let mut cost = 0u64;

    // Slot conflicts.
    let mut slot_count = vec![0u32; mesh.num_pes() * ii as usize];
    let mut bus_count = vec![0u32; mesh.rows() as usize * ii as usize];
    for (i, p) in placements.iter().enumerate() {
        let s = p.pe.index() * ii as usize + (p.time % ii) as usize;
        slot_count[s] += 1;
        if mdfg.dfg.node(cgra_dfg::NodeId(i as u32)).op.is_mem() {
            let b = mesh.pos(p.pe).r as usize * ii as usize + (p.time % ii) as usize;
            bus_count[b] += 1;
        }
    }
    cost += slot_count
        .iter()
        .map(|&c| (c.saturating_sub(1)) as u64)
        .sum::<u64>()
        * 4;
    let cap = cgra.mem().buses_per_row() as u32;
    cost += bus_count
        .iter()
        .map(|&c| c.saturating_sub(cap) as u64)
        .sum::<u64>()
        * 4;

    // Edge feasibility shortfall.
    for (ei, e) in mdfg.dfg.edges().enumerate() {
        let pu = placements[e.src.index()];
        let pv = placements[e.dst.index()];
        let consume = pv.time as i64 + e.distance as i64 * ii as i64;
        if mdfg.is_mem_edge(ei) {
            let short = (pu.time as i64 + 2) - consume;
            cost += short.max(0) as u64;
            continue;
        }
        let avail = pu.time as i64 + 1;
        if consume < avail {
            cost += (avail - consume) as u64 + 1;
            continue;
        }
        let d = mesh.distance(pu.pe, pv.pe) as i64;
        let min_hops = (d - 1).max(0); // last link is read directly
        let slack = consume - avail;
        cost += (min_hops - slack).max(0) as u64;
    }
    cost
}

/// Exact routing pass over a conflict-free placement. Returns the routed
/// mapping or `None` if some edge cannot be realised.
fn routing_pass(
    mdfg: &MapDfg,
    cgra: &CgraConfig,
    ii: u32,
    placements: &[Placement],
) -> Option<Mapping> {
    let mut mrt = Mrt::new(cgra.mesh(), ii, cgra.mem().buses_per_row());
    for (i, p) in placements.iter().enumerate() {
        let op = mdfg.dfg.node(cgra_dfg::NodeId(i as u32)).op;
        if !mrt.pe_free(p.pe, p.time as u64) || (op.is_mem() && !mrt.bus_free(p.pe, p.time as u64))
        {
            return None;
        }
        mrt.reserve(p.pe, p.time as u64, SlotUse::Compute(i as u32), op.is_mem());
    }
    // Route tightest edges first.
    let mut order: Vec<usize> = (0..mdfg.dfg.num_edges()).collect();
    let slack = |ei: usize| {
        let e = mdfg.dfg.edge(cgra_dfg::EdgeId(ei as u32));
        let pu = placements[e.src.index()];
        let pv = placements[e.dst.index()];
        pv.time as i64 + e.distance as i64 * ii as i64 - pu.time as i64 - 1
    };
    order.sort_by_key(|&ei| slack(ei));
    let mut routes = vec![Vec::new(); mdfg.dfg.num_edges()];
    let mut scratch = RouteScratch::new();
    for ei in order {
        let e = mdfg.dfg.edge(cgra_dfg::EdgeId(ei as u32));
        if mdfg.is_mem_edge(ei) {
            continue;
        }
        let pu = placements[e.src.index()];
        let pv = placements[e.dst.index()];
        let consume = pv.time as i64 + e.distance as i64 * ii as i64;
        let req = RouteRequest {
            from_pe: pu.pe,
            avail: pu.time + 1,
            to_pe: pv.pe,
            deadline: u32::try_from(consume).ok()?,
        };
        // Share landings of already-routed sibling edges (same producer).
        let sites: Vec<ValueSite> = mdfg
            .dfg
            .succ_edges(e.src)
            .filter(|e2| e2.index() != ei && !mdfg.is_mem_edge(e2.index()))
            .flat_map(|e2| routes[e2.index()].iter())
            .map(|h: &crate::mapping::RouteHop| (h.pe, h.time + 1))
            .collect();
        match route_baseline(cgra.mesh(), &mrt, req, &sites, &mut scratch)? {
            RoutePlan::Direct => {}
            RoutePlan::Chain(hops) => {
                for h in &hops {
                    if !mrt.pe_free(h.pe, h.time as u64) {
                        return None;
                    }
                    mrt.reserve(h.pe, h.time as u64, SlotUse::Route(ei as u32), false);
                }
                routes[ei] = hops;
            }
        }
    }
    Some(Mapping {
        ii,
        placements: placements.to_vec(),
        routes,
    })
}

/// Map a kernel by simulated annealing (baseline discipline).
pub fn map_anneal(
    dfg: &Dfg,
    cgra: &CgraConfig,
    opts: &MapOptions,
    anneal: &AnnealOptions,
) -> Result<MapResult, MapError> {
    let mdfg = MapDfg::unspilled(dfg);
    let mii = mii_with_mem(&mdfg, cgra);
    let mesh = cgra.mesh();
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xA11EA1);

    for ii in mii..=mii + opts.max_ii_slack {
        let Some(asap) = asap_with_mem(&mdfg, ii) else {
            continue;
        };
        for _run in 0..anneal.runs {
            // Random initial placement within each node's 2·II window.
            let mut placements: Vec<Placement> = asap
                .iter()
                .map(|&a| Placement {
                    pe: cgra_arch::PeId(rng.gen_range(0..mesh.num_pes() as u16)),
                    time: a + rng.gen_range(0..2 * ii),
                })
                .collect();
            let mut cost = relaxed_cost(&mdfg, cgra, ii, &placements);
            let mut temp = anneal.t0;
            while temp > anneal.t_min && cost > 0 {
                for _ in 0..anneal.moves_per_temp {
                    if cost == 0 {
                        break;
                    }
                    let v = rng.gen_range(0..placements.len());
                    let old = placements[v];
                    placements[v] = Placement {
                        pe: cgra_arch::PeId(rng.gen_range(0..mesh.num_pes() as u16)),
                        time: asap[v] + rng.gen_range(0..2 * ii),
                    };
                    let new_cost = relaxed_cost(&mdfg, cgra, ii, &placements);
                    let delta = new_cost as f64 - cost as f64;
                    if delta <= 0.0 || rng.gen_bool((-delta / temp).exp().min(1.0)) {
                        cost = new_cost;
                    } else {
                        placements[v] = old;
                    }
                }
                temp *= anneal.cooling;
            }
            if cost == 0 {
                if let Some(mapping) = routing_pass(&mdfg, cgra, ii, &placements) {
                    return Ok(MapResult {
                        mapping,
                        mdfg,
                        mode: MapMode::Baseline,
                    });
                }
            }
        }
    }
    Err(MapError::NoScheduleFound {
        mii,
        max_ii_tried: mii + opts.max_ii_slack,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::validate_mapping;

    #[test]
    fn anneal_maps_mpeg2_and_validates() {
        let cgra = CgraConfig::square(4);
        let kernel = cgra_dfg::kernels::mpeg2();
        let r = map_anneal(
            &kernel,
            &cgra,
            &MapOptions::default(),
            &AnnealOptions::default(),
        )
        .expect("anneal maps mpeg2");
        let v = validate_mapping(&r.mdfg, &cgra, &r.mapping, MapMode::Baseline);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn anneal_respects_mii() {
        let cgra = CgraConfig::square(4);
        let kernel = cgra_dfg::kernels::sor();
        let r = map_anneal(
            &kernel,
            &cgra,
            &MapOptions::default(),
            &AnnealOptions::default(),
        )
        .expect("anneal maps sor");
        assert!(r.ii() >= 4); // sor's RecMII
    }
}
