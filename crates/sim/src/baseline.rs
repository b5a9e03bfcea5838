//! The single-threaded, non-preemptive CGRA system (§VII-B case (i)).
//!
//! The host runs every thread concurrently (one core each — DESIGN.md
//! substitution 3), but the CGRA is a single FCFS resource: a kernel
//! occupies the *entire* array, at the unconstrained baseline II, until it
//! finishes. This is the system today's CGRA compilers imply, and the
//! reference Fig. 9 improvements are measured against.

use crate::event::EventQueue;
use crate::kernel_lib::KernelLibrary;
use crate::stats::SimReport;
use crate::workload::{Segment, ThreadSpec};

/// Simulate the baseline system; deterministic for a given workload.
pub fn simulate_baseline(lib: &KernelLibrary, threads: &[ThreadSpec]) -> SimReport {
    let mut q = EventQueue::new(threads.len());
    let mut seg_idx = vec![0usize; threads.len()];
    let mut finish = vec![0u64; threads.len()];
    let mut cgra_free_at = 0u64;
    let mut cgra_iterations = 0u64;
    let mut page_cycles = 0u64;
    let mut stall_cycles = 0u64;

    // Everyone starts their first segment at t=0.
    for t in 0..threads.len() {
        q.push(0, t);
    }

    while let Some(ev) = q.pop() {
        let t = ev.thread;
        let idx = seg_idx[t];
        if idx >= threads[t].segments.len() {
            continue;
        }
        match threads[t].segments[idx] {
            Segment::Cpu(cycles) => {
                seg_idx[t] += 1;
                let done = ev.time + cycles;
                if seg_idx[t] >= threads[t].segments.len() {
                    finish[t] = done;
                } else {
                    q.bump(t);
                    q.push(done, t);
                }
            }
            Segment::Cgra { kernel, iterations } => {
                let ii = lib.profile(kernel).ii_baseline as u64;
                let start = ev.time.max(cgra_free_at);
                let duration = iterations * ii;
                stall_cycles += start - ev.time;
                cgra_free_at = start + duration;
                cgra_iterations += iterations;
                page_cycles += lib.num_pages as u64 * duration;
                seg_idx[t] += 1;
                if seg_idx[t] >= threads[t].segments.len() {
                    finish[t] = cgra_free_at;
                } else {
                    q.bump(t);
                    q.push(cgra_free_at, t);
                }
            }
        }
    }

    SimReport {
        makespan: finish.iter().copied().max().unwrap_or(0),
        thread_finish: finish,
        cgra_iterations,
        page_cycles,
        shrinks: 0,
        expands: 0,
        stall_cycles,
        faults: Default::default(),
    }
}
