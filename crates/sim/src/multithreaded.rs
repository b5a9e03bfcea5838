//! The multithreaded CGRA system (§VII-B case (ii)).
//!
//! Threads request CGRA pages when they reach a kernel segment. The
//! allocator serves them from unused pages when possible, otherwise
//! shrinks the biggest tenant (PageMaster transform, modelled by the
//! pre-computed `II_q(M)` table); when a tenant leaves, survivors are
//! expanded back. Schedule switches take effect at the next iteration
//! boundary of the old schedule (§VII-B.1: "switched at an integer value
//! of II_p × N/M"), plus a configurable transformation overhead (the
//! paper argues it is negligible against the kernel-memory transfer; the
//! `fig9 --ablation-overhead` sweep tests that claim).
//!
//! ## Fault injection
//!
//! [`simulate_multithreaded`] threads a schedule of
//! [`FaultEvent`]s through the discrete-event loop. A page *death* is
//! handled exactly like a contention shrink — the owning thread is
//! remapped onto its surviving pages at the next iteration boundary (or
//! re-queued when it was already at one page) — and a page *degrade*
//! slows whoever holds the page by `degrade_factor`. Every fault is
//! applied **before** the next thread event at a later time, because
//! applying one bumps event versions; the loop peeks instead of popping
//! for exactly this reason. Fault-free runs take the same code path and
//! are bit-identical to the pre-fault simulator.
//!
//! ## Repair and re-expansion
//!
//! A [`FaultKind::Transient`] fault kills its page like a permanent
//! kill, then schedules repair: `repair_after` cycles later the page
//! enters `Repairing`, and after a further quarantine window
//! ([`MtConfig::quarantine`] — hysteresis so a flapping page cannot
//! thrash shrink/expand) it returns to the allocator's free pool as a
//! `PageRepaired` discrete event. Recovered capacity first re-admits
//! queued threads, then a supervision policy re-expands the *most
//! shrunk* live thread through the ordinary PageMaster expansion path
//! (`Reexpanded` trace events). Any new fault on a page invalidates its
//! in-flight repair — a permanent kill during repair sticks.

use crate::alloc::{Allocator, ExpandPolicy, PageDeath, RequestOutcome};
use crate::error::SimError;
use crate::event::EventQueue;
use crate::kernel_lib::KernelLibrary;
use crate::stats::{FaultStats, SimReport};
use crate::workload::{Segment, ThreadSpec};
use cgra_arch::{FaultEvent, FaultKind, FaultMap, PageHealth};
use cgra_obs::{TraceEvent, Tracer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Multithreaded-system knobs.
#[derive(Debug, Clone, Copy)]
pub struct MtConfig {
    /// Extra cycles a schedule switch costs (0 = the paper's assumption).
    pub switch_overhead: u64,
    /// Redistribution policy when pages free up.
    pub expand: ExpandPolicy,
    /// II multiplier for a thread holding a *degraded* (but usable)
    /// page. 1 = degraded pages run at full speed.
    pub degrade_factor: u64,
    /// Cycles a repaired page must stay fault-free *after* its repair
    /// interval elapses before it is re-offered to threads (hysteresis
    /// against flapping pages). Inert without transient faults.
    pub quarantine: u64,
}

impl Default for MtConfig {
    fn default() -> Self {
        MtConfig {
            switch_overhead: 0,
            expand: ExpandPolicy::SmallestFirst,
            degrade_factor: 2,
            quarantine: 64,
        }
    }
}

/// The two stages of a scheduled page repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum RepairPhase {
    /// Dead → Repairing, `repair_after` cycles after the strike.
    Begin,
    /// Repairing → Healthy + back to the free pool, after the
    /// quarantine window.
    Commit,
}

/// One scheduled repair action. Ordered by `(time, page, phase,
/// version)` so the pending-repair heap pops deterministically; the
/// version snapshot invalidates the action if the page is struck again
/// after it was scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RepairAction {
    time: u64,
    page: u16,
    phase: RepairPhase,
    version: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Waiting to start the next segment (event pending).
    Advancing,
    /// Executing a kernel: iterations remaining as of `since`, at
    /// `rate` cycles per iteration.
    OnCgra {
        kernel: usize,
        remaining: u64,
        rate: u64,
        since: u64,
    },
    /// Stalled in the CGRA queue.
    Waiting {
        kernel: usize,
        iterations: u64,
        enqueued: u64,
    },
    Done,
}

struct Sim<'a> {
    lib: &'a KernelLibrary,
    /// Pages each library kernel asks for
    /// ([`wanted_pages`](crate::KernelProfile::wanted_pages)), computed
    /// once per run.
    kernel_want: Vec<u16>,
    threads: &'a [ThreadSpec],
    cfg: MtConfig,
    tracer: &'a Tracer,
    q: EventQueue,
    seg_idx: Vec<usize>,
    mode: Vec<Mode>,
    finish: Vec<u64>,
    alloc: Allocator,
    queue: VecDeque<usize>,
    // Fault injection.
    fault_events: Vec<FaultEvent>,
    fault_idx: usize,
    faults: FaultMap,
    fstats: FaultStats,
    /// Threads queued because a fault revoked their last page (their
    /// wait counts toward recovery latency, not just stall time).
    fault_waiting: Vec<bool>,
    /// Pending repair actions for transient faults, popped in
    /// `(time, page, phase)` order.
    repairs: BinaryHeap<Reverse<RepairAction>>,
    /// Per-page strike counter; a repair action scheduled under an
    /// older version is stale and dropped (the page was re-struck).
    repair_version: Vec<u64>,
    // Stats.
    cgra_iterations: u64,
    page_cycles: u64,
    pages_busy: u64,
    last_integral: u64,
    shrinks: u64,
    expands: u64,
    stall_cycles: u64,
}

impl<'a> Sim<'a> {
    fn integrate(&mut self, now: u64) {
        self.page_cycles += self.pages_busy * (now - self.last_integral);
        self.last_integral = now;
    }

    /// The budget a thread in `mode` would grow to: its kernel's want
    /// on or waiting for the CGRA, one page otherwise.
    fn want(mode: Mode, kernel_want: &[u16]) -> u16 {
        match mode {
            Mode::OnCgra { kernel, .. } | Mode::Waiting { kernel, .. } => kernel_want[kernel],
            _ => 1,
        }
    }

    /// Cycles per iteration for `thread` running `kernel` on `pages`
    /// pages, including the degraded-page slowdown. Typed error instead
    /// of a panic when the budget is off the profile's chain.
    fn effective_rate(&self, thread: usize, kernel: usize, pages: u16) -> Result<u64, SimError> {
        let profile = self.lib.profile(kernel);
        let base = profile
            .try_ii_at(pages)
            .ok_or_else(|| SimError::ProfileMissing {
                kernel: profile.name.clone(),
                m: pages,
            })? as u64;
        // Until some page degrades, no thread can hold a degraded one.
        let slowed = self.fstats.pages_degraded > 0
            && self
                .alloc
                .owned_pages(thread)
                .any(|p| self.faults.health(p) == PageHealth::Degraded);
        Ok(if slowed {
            base * self.cfg.degrade_factor.max(1)
        } else {
            base
        })
    }

    /// Change a running thread's rate at the next iteration boundary of
    /// its old schedule (plus the switch overhead). Returns the time the
    /// new schedule takes over, or `None` when no switch was needed.
    fn set_rate(&mut self, thread: usize, now: u64, new_rate: u64) -> Option<u64> {
        let Mode::OnCgra {
            kernel,
            remaining,
            rate,
            since,
        } = self.mode[thread]
        else {
            return None;
        };
        if new_rate == rate {
            return None;
        }
        // `since` can lie in the future while a previous switch's overhead
        // drains; no progress has been made in that case.
        let boundary = if now <= since {
            since
        } else {
            let elapsed = now - since;
            if elapsed.is_multiple_of(rate) {
                now
            } else {
                since + (elapsed / rate + 1) * rate
            }
        };
        let done = ((boundary - since) / rate).min(remaining);
        self.cgra_iterations += done;
        let remaining = remaining - done;
        let since = boundary + self.cfg.switch_overhead;
        self.q.bump(thread);
        if remaining == 0 {
            self.mode[thread] = Mode::OnCgra {
                kernel,
                remaining,
                rate: new_rate,
                since: boundary,
            };
            self.q.push(boundary, thread);
            Some(boundary)
        } else {
            self.mode[thread] = Mode::OnCgra {
                kernel,
                remaining,
                rate: new_rate,
                since,
            };
            self.q.push(since + remaining * new_rate, thread);
            Some(since)
        }
    }

    /// Put a thread onto the CGRA with `pages`.
    fn start_kernel(
        &mut self,
        thread: usize,
        kernel: usize,
        iterations: u64,
        now: u64,
        pages: u16,
    ) -> Result<(), SimError> {
        let rate = self.effective_rate(thread, kernel, pages)?;
        let since = now + self.cfg.switch_overhead;
        self.mode[thread] = Mode::OnCgra {
            kernel,
            remaining: iterations,
            rate,
            since,
        };
        self.pages_busy += pages as u64;
        self.q.bump(thread);
        self.q.push(since + iterations * rate, thread);
        let tr = self.tracer;
        tr.emit(|| TraceEvent::ThreadStart {
            time: now,
            thread: thread as u32,
            kernel: kernel as u32,
            pages: self.alloc.pages_of(thread),
        });
        Ok(())
    }

    /// Handle a CGRA page request; may shrink a victim.
    fn request_cgra(
        &mut self,
        thread: usize,
        kernel: usize,
        iterations: u64,
        now: u64,
    ) -> Result<(), SimError> {
        match self.alloc.request(thread, self.kernel_want[kernel])? {
            RequestOutcome::Granted { pages } => {
                self.integrate(now);
                self.start_kernel(thread, kernel, iterations, now, pages)?;
            }
            RequestOutcome::Shrunk {
                victim,
                victim_was,
                victim_pages,
                pages,
            } => {
                self.integrate(now);
                self.shrinks += 1;
                let Mode::OnCgra { kernel: vk, .. } = self.mode[victim] else {
                    return Err(SimError::VictimNotRunning { thread: victim });
                };
                let new_rate = self.effective_rate(victim, vk, victim_pages)?;
                // pages_busy: victim gave up (old - new) pages.
                self.set_rate(victim, now, new_rate);
                self.pages_busy -= (victim_was - victim_pages) as u64;
                let tr = self.tracer;
                tr.emit(|| TraceEvent::ThreadShrink {
                    time: now,
                    thread: victim as u32,
                    from: victim_was,
                    to: victim_pages,
                    pages: self.alloc.pages_of(victim),
                });
                self.start_kernel(thread, kernel, iterations, now, pages)?;
            }
            RequestOutcome::Queued => {
                self.mode[thread] = Mode::Waiting {
                    kernel,
                    iterations,
                    enqueued: now,
                };
                self.queue.push_back(thread);
                self.tracer.emit(|| TraceEvent::ThreadQueue {
                    time: now,
                    thread: thread as u32,
                    kernel: kernel as u32,
                });
            }
        }
        Ok(())
    }

    /// Serve stalled threads from freed pages, front of the queue
    /// first. A fault-revoked thread's wait counts toward recovery
    /// latency as well as stall time.
    fn drain_queue(&mut self, now: u64) -> Result<(), SimError> {
        while let Some(&head) = self.queue.front() {
            let Mode::Waiting {
                kernel,
                iterations,
                enqueued,
            } = self.mode[head]
            else {
                self.queue.pop_front();
                continue;
            };
            if self.alloc.free_pages() == 0 {
                break;
            }
            self.queue.pop_front();
            self.stall_cycles += now - enqueued;
            if self.fault_waiting[head] {
                self.fault_waiting[head] = false;
                self.fstats.recovery_cycles += now - enqueued;
            }
            // Re-request: guaranteed to be served from free pages.
            self.request_cgra(head, kernel, iterations, now)?;
        }
        Ok(())
    }

    /// Serve stalled threads from freed pages, then grow the survivors.
    /// Runs after every kernel completion and page death, growing by the
    /// configured policy, and after every page repair (`after_repair`),
    /// where the remaining recovered capacity goes to the *most shrunk*
    /// live thread first (supervision policy) and each growth is
    /// emitted as `Reexpanded` rather than `ThreadExpand`, so the trace
    /// distinguishes recovery from routine growth.
    fn redistribute(&mut self, now: u64, after_repair: bool) -> Result<(), SimError> {
        self.drain_queue(now)?;

        let (mode, kernel_want) = (&self.mode, &self.kernel_want);
        let want = |t: usize| Self::want(mode[t], kernel_want);
        let grown = if after_repair {
            self.alloc.expand_most_shrunk(want)?
        } else {
            self.alloc.expand(self.cfg.expand, want)?
        };
        for ex in grown {
            self.expands += 1;
            if after_repair {
                self.fstats.reexpansions += 1;
            }
            if let Mode::OnCgra { kernel, .. } = self.mode[ex.thread] {
                self.pages_busy += (ex.to_pages - ex.from_pages) as u64;
                let new_rate = self.effective_rate(ex.thread, kernel, ex.to_pages)?;
                self.set_rate(ex.thread, now, new_rate);
                let tr = self.tracer;
                tr.emit(|| {
                    let (thread, from, to) = (ex.thread as u32, ex.from_pages, ex.to_pages);
                    let pages = self.alloc.pages_of(ex.thread);
                    if after_repair {
                        TraceEvent::Reexpanded {
                            time: now,
                            thread,
                            from,
                            to,
                            pages,
                        }
                    } else {
                        TraceEvent::ThreadExpand {
                            time: now,
                            thread,
                            from,
                            to,
                            pages,
                        }
                    }
                });
            }
        }
        Ok(())
    }

    /// A thread finished its kernel segment: release pages, serve the
    /// queue, expand survivors.
    fn finish_kernel(&mut self, thread: usize, now: u64) -> Result<(), SimError> {
        let Mode::OnCgra { remaining, .. } = self.mode[thread] else {
            return Err(SimError::VictimNotRunning { thread });
        };
        self.cgra_iterations += remaining;
        self.integrate(now);
        let freed = self.alloc.release(thread)?;
        self.pages_busy -= freed as u64;
        self.tracer.emit(|| TraceEvent::ThreadFinish {
            time: now,
            thread: thread as u32,
            freed,
        });
        self.advance(thread, now)?;
        self.redistribute(now, false)
    }

    /// Move a thread to its next segment at `now`.
    fn advance(&mut self, thread: usize, now: u64) -> Result<(), SimError> {
        let idx = self.seg_idx[thread];
        if idx >= self.threads[thread].segments.len() {
            self.mode[thread] = Mode::Done;
            self.finish[thread] = now;
            self.tracer.emit(|| TraceEvent::ThreadDone {
                time: now,
                thread: thread as u32,
            });
            return Ok(());
        }
        self.seg_idx[thread] += 1;
        match self.threads[thread].segments[idx] {
            Segment::Cpu(cycles) => {
                self.mode[thread] = Mode::Advancing;
                self.q.bump(thread);
                self.q.push(now + cycles, thread);
                Ok(())
            }
            Segment::Cgra { kernel, iterations } => {
                self.request_cgra(thread, kernel, iterations, now)
            }
        }
    }

    /// Apply one fault event at its scheduled time.
    fn apply_fault(&mut self, ev: FaultEvent) -> Result<(), SimError> {
        let now = ev.time;
        if ev.page >= self.faults.num_pages() {
            return Err(SimError::PageOutOfRange {
                page: ev.page,
                num_pages: self.faults.num_pages(),
            });
        }
        self.fstats.injected += 1;
        self.tracer.emit(|| TraceEvent::Fault {
            time: now,
            page: ev.page,
            kind: ev.kind,
        });
        match ev.kind {
            FaultKind::Degrade => {
                if self.faults.health(ev.page) != PageHealth::Healthy {
                    return Ok(()); // dead or already degraded: no change
                }
                self.faults.mark_page(ev.page, PageHealth::Degraded);
                self.fstats.pages_degraded += 1;
                if let Some(owner) = self.alloc.owner_of(ev.page) {
                    if let Mode::OnCgra { kernel, .. } = self.mode[owner] {
                        let pages = self
                            .alloc
                            .allocation(owner)
                            .ok_or(SimError::UnknownThread { thread: owner })?;
                        let rate = self.effective_rate(owner, kernel, pages)?;
                        if let Some(at) = self.set_rate(owner, now, rate) {
                            self.fstats.recovery_cycles += at.saturating_sub(now);
                        }
                    }
                }
                Ok(())
            }
            FaultKind::Kill => {
                // A permanent kill cancels any in-flight repair of this
                // page — whatever happens below, the page stays dead.
                self.repair_version[ev.page as usize] += 1;
                if self.faults.health(ev.page) == PageHealth::Dead {
                    return Ok(());
                }
                self.apply_kill(now, ev.page)
            }
            FaultKind::Transient { repair_after } => {
                if self.faults.health(ev.page) == PageHealth::Dead {
                    // Already dead: either permanently killed (never
                    // improve) or awaiting its first repair (which
                    // stands — repair tracks the first strike).
                    return Ok(());
                }
                // A re-strike mid-repair invalidates the pending
                // completion; repair restarts from this strike.
                self.repair_version[ev.page as usize] += 1;
                self.repairs.push(Reverse(RepairAction {
                    time: now.saturating_add(repair_after),
                    page: ev.page,
                    phase: RepairPhase::Begin,
                    version: self.repair_version[ev.page as usize],
                }));
                self.apply_kill(now, ev.page)
            }
        }
    }

    /// The kill machinery shared by permanent and transient faults: the
    /// page dies, its owner (if any) is shrunk or revoked, and freed
    /// capacity is redistributed.
    fn apply_kill(&mut self, now: u64, page: u16) -> Result<(), SimError> {
        self.faults.mark_page(page, PageHealth::Dead);
        self.fstats.pages_killed += 1;
        match self.alloc.kill_page(page)? {
            PageDeath::AlreadyDead | PageDeath::Unallocated => {}
            PageDeath::Shrunk {
                victim,
                from_pages,
                to_pages,
            } => {
                self.integrate(now);
                self.fstats.threads_remapped += 1;
                self.pages_busy -= (from_pages - to_pages) as u64;
                let Mode::OnCgra { kernel, .. } = self.mode[victim] else {
                    return Err(SimError::VictimNotRunning { thread: victim });
                };
                let rate = self.effective_rate(victim, kernel, to_pages)?;
                if let Some(at) = self.set_rate(victim, now, rate) {
                    self.fstats.recovery_cycles += at.saturating_sub(now);
                }
                let tr = self.tracer;
                tr.emit(|| TraceEvent::ThreadShrink {
                    time: now,
                    thread: victim as u32,
                    from: from_pages,
                    to: to_pages,
                    pages: self.alloc.pages_of(victim),
                });
            }
            PageDeath::Revoked { victim } => {
                self.integrate(now);
                self.fstats.threads_revoked += 1;
                self.pages_busy -= 1;
                let Mode::OnCgra {
                    kernel,
                    remaining,
                    rate,
                    since,
                } = self.mode[victim]
                else {
                    return Err(SimError::VictimNotRunning { thread: victim });
                };
                // Credit whole iterations completed before the
                // fault; the in-flight remainder is lost and
                // re-queued.
                let done = if now <= since {
                    0
                } else {
                    ((now - since) / rate).min(remaining)
                };
                self.cgra_iterations += done;
                let left = remaining - done;
                self.fstats.iterations_deferred += left;
                self.q.bump(victim);
                self.mode[victim] = Mode::Waiting {
                    kernel,
                    iterations: left,
                    enqueued: now,
                };
                self.queue.push_back(victim);
                self.fault_waiting[victim] = true;
                self.tracer.emit(|| TraceEvent::Revoke {
                    time: now,
                    thread: victim as u32,
                    page,
                });
            }
        }
        // A death can free surplus pages (chain rounding): let
        // waiting threads in and regrow survivors.
        self.redistribute(now, false)
    }

    /// Apply one pending repair action (stale ones — scheduled before
    /// the page was struck again — are dropped).
    fn apply_repair(&mut self, action: RepairAction) -> Result<(), SimError> {
        if action.version != self.repair_version[action.page as usize] {
            return Ok(());
        }
        let now = action.time;
        match action.phase {
            RepairPhase::Begin => {
                // Dead → Repairing; the quarantine window starts. The
                // page is still unusable until the commit.
                self.faults.begin_repair(action.page);
                self.repairs.push(Reverse(RepairAction {
                    time: now.saturating_add(self.cfg.quarantine),
                    page: action.page,
                    phase: RepairPhase::Commit,
                    version: action.version,
                }));
                Ok(())
            }
            RepairPhase::Commit => {
                // Repairing → Healthy; the page returns to the free
                // pool and recovered capacity is re-offered: queued
                // threads first, then the most-shrunk live thread.
                self.faults.complete_repair(action.page);
                let revived = self.alloc.revive(action.page)?;
                debug_assert!(revived, "live-version commit must revive a dead page");
                self.fstats.repairs += 1;
                self.tracer.emit(|| TraceEvent::PageRepaired {
                    time: now,
                    page: action.page,
                });
                self.redistribute(now, true)
            }
        }
    }

    fn run(&mut self) -> Result<(), SimError> {
        for t in 0..self.threads.len() {
            self.q.push(0, t);
            self.mode[t] = Mode::Advancing;
        }
        // Kick-off events advance each thread into its first segment.
        // Three merged streams: thread events, fault events, and repair
        // actions. Fabric events (faults + repairs) strictly before the
        // next thread event go first (ties go to the thread event: a
        // kernel finishing at t completes before a page dying at t),
        // and must be applied before *popping* — a fault bumps versions
        // and can invalidate the event we would have popped. Among
        // fabric events at the same time, repairs fire before faults (a
        // page repairs, then is struck again). Fabric events also
        // continue with no thread events pending: with every tenant
        // revoked and queued, a later kill can still free surplus pages
        // — and a pending repair can rescue the whole queue.
        loop {
            let next_event = self.q.peek_time();
            let next_fault = self.fault_events.get(self.fault_idx).copied();
            let next_repair = self.repairs.peek().map(|&Reverse(a)| a);
            let repair_first = match (next_repair, next_fault) {
                (Some(r), Some(f)) => r.time <= f.time,
                (Some(_), None) => true,
                (None, _) => false,
            };
            let fabric_time = match (next_repair, next_fault) {
                (None, None) => None,
                _ if repair_first => next_repair.map(|r| r.time),
                _ => next_fault.map(|f| f.time),
            };
            let fabric_due = match (next_event, fabric_time) {
                (None, None) => break,
                (Some(te), Some(ft)) => ft < te,
                (None, Some(_)) => true,
                (Some(_), None) => false,
            };
            if fabric_due {
                if repair_first {
                    self.repairs.pop();
                    self.apply_repair(next_repair.expect("repair_first implies a repair"))?;
                } else {
                    self.fault_idx += 1;
                    self.apply_fault(next_fault.expect("fabric_due implies a fault"))?;
                }
                continue;
            }
            let Some(ev) = self.q.pop() else { continue };
            let t = ev.thread;
            match self.mode[t] {
                Mode::Advancing => self.advance(t, ev.time)?,
                Mode::OnCgra { .. } => self.finish_kernel(t, ev.time)?,
                Mode::Waiting { .. } | Mode::Done => {}
            }
            if !self.alloc.check_invariant() {
                return Err(SimError::InvariantViolated {
                    detail: "allocation counts diverged from page identities".to_string(),
                });
            }
        }
        // Faults can eat so much of the fabric that queued threads are
        // never admitted again; report that instead of a silent zero
        // finish time. (Impossible without faults: every queued thread
        // is eventually served when a running thread finishes.)
        for t in 0..self.threads.len() {
            if self.mode[t] != Mode::Done {
                return Err(SimError::Starved {
                    thread: t,
                    usable_pages: self.alloc.usable_pages(),
                });
            }
        }
        Ok(())
    }
}

/// Simulate the multithreaded system under a fault schedule, with every
/// scheduling decision emitted to `tracer`; deterministic for a given
/// workload and schedule.
///
/// `faults` need not be sorted; events are applied in `(time, page)`
/// order, each one strictly before any thread event at a later time. An
/// empty schedule is the fault-free system. The trace is one
/// `SimBegin`/`SimEnd` pair bracketing the run (or `SimAbort` when the
/// simulation errors out), with thread queue/start/shrink/expand/
/// finish/done, fault, and revoke events in between, all stamped with
/// simulation time. Pass [`Tracer::off`] for an untraced run.
///
/// Re-entrant: the result depends only on the arguments, so concurrent
/// calls sharing one `&KernelLibrary` (and one `Tracer`) agree with
/// serial ones.
pub fn simulate_multithreaded(
    lib: &KernelLibrary,
    threads: &[ThreadSpec],
    cfg: MtConfig,
    faults: &[FaultEvent],
    tracer: &Tracer,
) -> Result<SimReport, SimError> {
    let mut fault_events = faults.to_vec();
    fault_events.sort_by_key(|f| (f.time, f.page));
    tracer.emit(|| TraceEvent::SimBegin {
        threads: threads.len() as u32,
        pages: lib.num_pages,
    });
    let mut sim = Sim {
        lib,
        kernel_want: lib
            .profiles
            .iter()
            .map(|p| p.wanted_pages(lib.num_pages))
            .collect(),
        threads,
        cfg,
        tracer,
        q: EventQueue::new(threads.len()),
        seg_idx: vec![0; threads.len()],
        mode: vec![Mode::Advancing; threads.len()],
        finish: vec![0; threads.len()],
        alloc: Allocator::new(lib.num_pages),
        queue: VecDeque::new(),
        fault_events,
        fault_idx: 0,
        faults: FaultMap::new(lib.num_pages),
        fstats: FaultStats::default(),
        fault_waiting: vec![false; threads.len()],
        repairs: BinaryHeap::new(),
        repair_version: vec![0; lib.num_pages as usize],
        cgra_iterations: 0,
        page_cycles: 0,
        pages_busy: 0,
        last_integral: 0,
        shrinks: 0,
        expands: 0,
        stall_cycles: 0,
    };
    if let Err(err) = sim.run() {
        tracer.emit(|| TraceEvent::SimAbort {
            reason: err.to_string(),
        });
        return Err(err);
    }
    tracer.emit(|| TraceEvent::SimEnd {
        makespan: sim.finish.iter().copied().max().unwrap_or(0),
        iterations: sim.cgra_iterations,
    });
    Ok(SimReport {
        makespan: sim.finish.iter().copied().max().unwrap_or(0),
        thread_finish: sim.finish,
        cgra_iterations: sim.cgra_iterations,
        page_cycles: sim.page_cycles,
        shrinks: sim.shrinks,
        expands: sim.expands,
        stall_cycles: sim.stall_cycles,
        faults: sim.fstats,
    })
}
