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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::improvement_percent;
    use crate::workload::{generate, CgraNeed, WorkloadParams};
    use cgra_arch::FaultSpec;
    use cgra_mapper::MapOptions;
    use cgra_obs::RingSink;
    use std::sync::Arc;

    fn lib(dim: u16) -> KernelLibrary {
        KernelLibrary::compile_benchmarks(
            &cgra_arch::CgraConfig::square(dim),
            &MapOptions::default(),
            &Tracer::off(),
        )
        .expect("library compiles")
    }

    /// An untraced run under the default [`MtConfig`].
    fn simulate(
        lib: &KernelLibrary,
        threads: &[ThreadSpec],
        faults: &[FaultEvent],
    ) -> Result<SimReport, SimError> {
        simulate_multithreaded(lib, threads, MtConfig::default(), faults, &Tracer::off())
    }

    #[test]
    fn single_thread_matches_constrained_rate() {
        let lib = lib(4);
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: 0,
                iterations: 50,
            }],
        };
        let r = simulate(&lib, &[spec], &[]).unwrap();
        let ii = lib.profile(0).ii_constrained as u64;
        assert_eq!(r.makespan, 50 * ii);
        assert_eq!(r.shrinks, 0);
    }

    #[test]
    fn deterministic() {
        let lib = lib(4);
        let w = generate(&lib, &WorkloadParams::default());
        let a = simulate(&lib, &w, &[]).unwrap();
        let b = simulate(&lib, &w, &[]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn small_kernels_co_run_without_shrinking() {
        let lib = lib(4);
        // Two threads running kernels that fit half the array each.
        let small = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) <= 2)
            .expect("some kernel uses at most half the 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: small,
                iterations: 100,
            }],
        };
        let r = simulate(&lib, &[spec.clone(), spec], &[]).unwrap();
        assert_eq!(r.shrinks, 0, "unused-portion rule should serve both");
        let ii = lib.profile(small).ii_constrained as u64;
        assert_eq!(r.makespan, 100 * ii);
    }

    #[test]
    fn multithreading_beats_baseline_on_contended_workloads() {
        let lib = lib(8);
        let w = generate(
            &lib,
            &WorkloadParams {
                threads: 8,
                need: CgraNeed::High,
                work_per_thread: 50_000,
                bursts: 3,
                seed: 7,
            },
        );
        let base = crate::baseline::simulate_baseline(&lib, &w);
        let mt = simulate(&lib, &w, &[]).unwrap();
        let imp = improvement_percent(base.makespan, mt.makespan);
        assert!(
            imp > 20.0,
            "expected solid improvement on 8x8 with 8 threads, got {imp:.1}%"
        );
    }

    #[test]
    fn overhead_reduces_but_does_not_break_improvement() {
        let lib = lib(4);
        let w = generate(
            &lib,
            &WorkloadParams {
                threads: 4,
                need: CgraNeed::High,
                ..Default::default()
            },
        );
        let zero = simulate(&lib, &w, &[]).unwrap();
        let heavy = simulate_multithreaded(
            &lib,
            &w,
            MtConfig {
                switch_overhead: 1000,
                ..Default::default()
            },
            &[],
            &Tracer::off(),
        )
        .unwrap();
        assert!(heavy.makespan >= zero.makespan);
    }

    #[test]
    fn conservation_of_iterations() {
        let lib = lib(4);
        let w = generate(&lib, &WorkloadParams::default());
        let total: u64 = w
            .iter()
            .flat_map(|t| &t.segments)
            .map(|s| match s {
                Segment::Cgra { iterations, .. } => *iterations,
                _ => 0,
            })
            .sum();
        let r = simulate(&lib, &w, &[]).unwrap();
        assert_eq!(r.cgra_iterations, total);
    }

    #[test]
    fn queued_thread_drains_when_capacity_frees() {
        let lib = lib(4);
        // Find a kernel wanting the whole array, so every arrival forces
        // a shrink and the fifth request finds everyone at one page.
        let big = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == lib.num_pages)
            .expect("some kernel wants the whole 4x4");
        let spec = |iters: u64| ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: big,
                iterations: iters,
            }],
        };
        // Threads 0..4 fill the fabric down to 1 page each; thread 4
        // arrives with nothing shrinkable left and must queue until one
        // of the others finishes.
        let threads = [spec(200), spec(200), spec(200), spec(200), spec(50)];
        let r = simulate(&lib, &threads, &[]).unwrap();
        assert!(r.stall_cycles > 0, "fifth thread should have waited: {r:?}");
        assert!(r.thread_finish.iter().all(|&f| f > 0));
        assert_eq!(r.shrinks, 3, "arrivals 1..3 each shrink a tenant");
    }

    #[test]
    fn zero_fault_schedule_is_identical_to_plain_path() {
        // An `off` spec schedules nothing, and a traced run of it is the
        // plain untraced fault-free run.
        let lib = lib(4);
        let w = generate(&lib, &WorkloadParams::default());
        let off = FaultSpec::Off.reseeded(3).schedule(lib.num_pages);
        assert!(off.is_empty());
        let plain = simulate(&lib, &w, &[]);
        let sink = Arc::new(RingSink::unbounded());
        let traced =
            simulate_multithreaded(&lib, &w, MtConfig::default(), &off, &Tracer::new(sink));
        assert_eq!(plain, traced);
        assert!(!plain.unwrap().faults.any());
    }

    #[test]
    fn concurrent_calls_agree_with_serial() {
        // The sweep engine's contract: runs sharing one `&KernelLibrary`
        // from many threads match serial runs, with and without faults.
        let lib = lib(4);
        let runs: Vec<(Vec<ThreadSpec>, Vec<FaultEvent>)> = (0..8)
            .map(|i| {
                let params = WorkloadParams {
                    threads: 1 + i % 4,
                    need: CgraNeed::ALL[i % 3],
                    work_per_thread: 8_000,
                    bursts: 2,
                    seed: i as u64,
                };
                let faults = match i % 2 {
                    0 => Vec::new(),
                    _ => FaultSpec::parse("mtbf=4000,count=2,mttr=1000")
                        .unwrap()
                        .reseeded(i as u64)
                        .schedule(lib.num_pages),
                };
                (generate(&lib, &params), faults)
            })
            .collect();
        let run = |(w, f): &(Vec<ThreadSpec>, Vec<FaultEvent>)| simulate(&lib, w, f);
        let serial: Vec<_> = runs.iter().map(run).collect();
        let parallel: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = runs.iter().map(|r| s.spawn(move || run(r))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn page_death_shrinks_only_the_owner() {
        let lib = lib(4);
        let small = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == 2)
            .expect("some kernel wants half the 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: small,
                iterations: 1000,
            }],
        };
        // Two tenants at 2 pages each: thread 0 on pages {0,1}, thread 1
        // on pages {2,3}. Kill page 0 mid-run: only thread 0 is remapped.
        let ii = lib.profile(small).ii_constrained as u64;
        let faults = [FaultEvent {
            time: 100 * ii,
            page: 0,
            kind: FaultKind::Kill,
        }];
        let r = simulate(&lib, &[spec.clone(), spec], &faults).unwrap();
        assert_eq!(r.faults.injected, 1);
        assert_eq!(r.faults.pages_killed, 1);
        assert_eq!(r.faults.threads_remapped, 1);
        assert_eq!(r.faults.threads_revoked, 0);
        // Thread 1 is untouched: it finishes at its undisturbed rate.
        assert_eq!(r.thread_finish[1], 1000 * ii);
        // Thread 0 lost a page and must run slower from the fault on.
        assert!(r.thread_finish[0] > 1000 * ii);
        assert_eq!(r.cgra_iterations, 2000);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let lib = lib(4);
        let w = generate(&lib, &WorkloadParams::default());
        let faults = [
            FaultEvent {
                time: 5_000,
                page: 1,
                kind: FaultKind::Kill,
            },
            FaultEvent {
                time: 9_000,
                page: 3,
                kind: FaultKind::Degrade,
            },
        ];
        let a = simulate(&lib, &w, &faults).unwrap();
        let b = simulate(&lib, &w, &faults).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn revoked_thread_requeues_and_completes() {
        let lib = lib(4);
        let big = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == lib.num_pages)
            .expect("some kernel wants the whole 4x4");
        let spec = |iters: u64| ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: big,
                iterations: iters,
            }],
        };
        // Four tenants at one page each; kill thread 0's page early. It
        // is revoked, waits, and is re-admitted when a tenant finishes.
        let threads = [spec(500), spec(100), spec(500), spec(500)];
        let r = simulate(
            &lib,
            &threads,
            &[FaultEvent {
                time: 3,
                page: 0,
                kind: FaultKind::Kill,
            }],
        )
        .unwrap();
        assert_eq!(r.faults.threads_revoked, 1);
        assert!(r.faults.iterations_deferred > 0);
        assert!(r.faults.recovery_cycles > 0);
        assert!(r.thread_finish.iter().all(|&f| f > 0), "{r:?}");
    }

    #[test]
    fn killing_every_page_starves_typed() {
        let lib = lib(4);
        let big = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == lib.num_pages)
            .expect("some kernel wants the whole 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: big,
                iterations: 1_000_000,
            }],
        };
        let faults: Vec<FaultEvent> = (0..4)
            .map(|p| FaultEvent {
                time: 10 + p as u64,
                page: p,
                kind: FaultKind::Kill,
            })
            .collect();
        let err = simulate(&lib, &[spec], &faults).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Starved {
                    usable_pages: 0,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    /// Two tenants at two pages each; a transient strike on page 0
    /// shrinks thread 0 to one page, then repair + supervised
    /// re-expansion puts it back on two — the full
    /// shrink → repair → expand round trip, with the trace showing
    /// `PageRepaired` and `Reexpanded` at the expected cycles.
    #[test]
    fn transient_fault_round_trips_to_original_page_count() {
        let lib = lib(4);
        let small = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == 2)
            .expect("some kernel wants half the 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: small,
                iterations: 1000,
            }],
        };
        let ii = lib.profile(small).ii_constrained as u64;
        let (strike, repair_after, quarantine) = (100 * ii, 50 * ii, 64);
        let sink = std::sync::Arc::new(cgra_obs::RingSink::unbounded());
        let tracer = Tracer::new(sink.clone());
        let r = simulate_multithreaded(
            &lib,
            &[spec.clone(), spec],
            MtConfig {
                quarantine,
                ..MtConfig::default()
            },
            &[FaultEvent {
                time: strike,
                page: 0,
                kind: FaultKind::Transient { repair_after },
            }],
            &tracer,
        )
        .unwrap();
        assert_eq!(r.faults.pages_killed, 1);
        assert_eq!(r.faults.threads_remapped, 1);
        assert_eq!(r.faults.repairs, 1);
        assert_eq!(r.faults.reexpansions, 1);
        // No revoke ⇒ no iteration loss across the round trip.
        assert_eq!(r.faults.iterations_deferred, 0);
        assert_eq!(r.cgra_iterations, 2000);
        // Thread 1 never noticed; thread 0 paid for the one-page spell.
        assert_eq!(r.thread_finish[1], 1000 * ii);
        assert!(r.thread_finish[0] > 1000 * ii);
        let events = sink.drain();
        let repaired_at = events
            .iter()
            .find_map(|ev| match ev {
                TraceEvent::PageRepaired { time, page: 0 } => Some(*time),
                _ => None,
            })
            .expect("page 0 is repaired");
        assert_eq!(repaired_at, strike + repair_after + quarantine);
        let reexpanded = events
            .iter()
            .find_map(|ev| match ev {
                TraceEvent::Reexpanded {
                    time,
                    thread: 0,
                    from,
                    to,
                    ..
                } => Some((*time, *from, *to)),
                _ => None,
            })
            .expect("thread 0 is re-expanded");
        assert_eq!(reexpanded.1, 1, "re-expansion starts from the shrunk size");
        assert_eq!(reexpanded.2, 2, "…and restores the original page count");
        assert!(reexpanded.0 >= repaired_at);
    }

    /// A longer quarantine window keeps the repaired page out of the
    /// pool longer, so the shrunk thread runs slow for longer.
    #[test]
    fn quarantine_delays_the_reoffer() {
        let lib = lib(4);
        let small = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == 2)
            .expect("some kernel wants half the 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: small,
                iterations: 1000,
            }],
        };
        let ii = lib.profile(small).ii_constrained as u64;
        let fault = [FaultEvent {
            time: 100 * ii,
            page: 0,
            kind: FaultKind::Transient {
                repair_after: 10 * ii,
            },
        }];
        let run = |quarantine: u64| {
            simulate_multithreaded(
                &lib,
                &[spec.clone(), spec.clone()],
                MtConfig {
                    quarantine,
                    ..MtConfig::default()
                },
                &fault,
                &Tracer::off(),
            )
            .unwrap()
        };
        let short = run(0);
        let long = run(400 * ii);
        assert_eq!(short.faults.repairs, 1);
        assert_eq!(long.faults.repairs, 1);
        assert!(
            short.thread_finish[0] < long.thread_finish[0],
            "longer quarantine must delay recovery: {} vs {}",
            short.thread_finish[0],
            long.thread_finish[0]
        );
    }

    /// A permanent kill landing while the page awaits repair cancels
    /// the repair — the page stays dead for good.
    #[test]
    fn permanent_kill_during_repair_sticks() {
        let lib = lib(4);
        let small = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == 2)
            .expect("some kernel wants half the 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: small,
                iterations: 1000,
            }],
        };
        let ii = lib.profile(small).ii_constrained as u64;
        let faults = [
            FaultEvent {
                time: 100 * ii,
                page: 0,
                kind: FaultKind::Transient {
                    repair_after: 50 * ii,
                },
            },
            // Lands while page 0 is dead awaiting repair.
            FaultEvent {
                time: 120 * ii,
                page: 0,
                kind: FaultKind::Kill,
            },
        ];
        let r = simulate(&lib, &[spec.clone(), spec], &faults).unwrap();
        assert_eq!(r.faults.injected, 2);
        assert_eq!(r.faults.pages_killed, 1, "second strike found it dead");
        assert_eq!(r.faults.repairs, 0, "the permanent kill cancels repair");
        assert_eq!(r.faults.reexpansions, 0);
        assert!(r.thread_finish[0] > 1000 * ii, "thread 0 stays shrunk");
    }

    /// A second transient strike mid-quarantine invalidates the pending
    /// commit and restarts the repair clock from the new strike.
    #[test]
    fn restrike_during_quarantine_restarts_the_repair_clock() {
        let lib = lib(4);
        let small = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == 2)
            .expect("some kernel wants half the 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: small,
                iterations: 2000,
            }],
        };
        let ii = lib.profile(small).ii_constrained as u64;
        let (t0, ra, q) = (100 * ii, 20 * ii, 100 * ii);
        let t1 = t0 + ra + q / 2; // inside the quarantine window
        let faults = [
            FaultEvent {
                time: t0,
                page: 0,
                kind: FaultKind::Transient { repair_after: ra },
            },
            FaultEvent {
                time: t1,
                page: 0,
                kind: FaultKind::Transient { repair_after: ra },
            },
        ];
        let sink = std::sync::Arc::new(cgra_obs::RingSink::unbounded());
        let tracer = Tracer::new(sink.clone());
        let r = simulate_multithreaded(
            &lib,
            &[spec.clone(), spec],
            MtConfig {
                quarantine: q,
                ..MtConfig::default()
            },
            &faults,
            &tracer,
        )
        .unwrap();
        assert_eq!(r.faults.pages_killed, 2, "the re-strike kills it again");
        assert_eq!(r.faults.repairs, 1, "only the restarted repair commits");
        let repaired_at = sink
            .drain()
            .iter()
            .find_map(|ev| match ev {
                TraceEvent::PageRepaired { time, page: 0 } => Some(*time),
                _ => None,
            })
            .expect("page 0 is eventually repaired");
        assert_eq!(repaired_at, t1 + ra + q, "clock restarts at the re-strike");
    }

    /// Transient kills of *every* page starve the fabric only until the
    /// repairs land — the revoked threads are re-admitted from the
    /// queue and the run completes (contrast
    /// [`killing_every_page_starves_typed`]).
    #[test]
    fn transient_kill_of_every_page_recovers_instead_of_starving() {
        let lib = lib(4);
        let big = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == lib.num_pages)
            .expect("some kernel wants the whole 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: big,
                iterations: 1000,
            }],
        };
        let faults: Vec<FaultEvent> = (0..4)
            .map(|p| FaultEvent {
                time: 10 + u64::from(p),
                page: p,
                kind: FaultKind::Transient { repair_after: 500 },
            })
            .collect();
        let r = simulate(&lib, std::slice::from_ref(&spec), &faults).unwrap();
        assert_eq!(r.faults.repairs, 4, "every page comes back");
        assert_eq!(r.faults.threads_revoked, 1);
        assert!(r.faults.recovery_cycles > 0);
        assert!(r.thread_finish[0] > 0, "{r:?}");
        assert_eq!(r.cgra_iterations, 1000, "no iterations lost for good");
    }

    #[test]
    fn transient_runs_are_deterministic() {
        let lib = lib(4);
        let w = generate(&lib, &WorkloadParams::default());
        let faults = [
            FaultEvent {
                time: 5_000,
                page: 1,
                kind: FaultKind::Transient { repair_after: 800 },
            },
            FaultEvent {
                time: 9_000,
                page: 3,
                kind: FaultKind::Transient { repair_after: 200 },
            },
        ];
        let a = simulate(&lib, &w, &faults).unwrap();
        let b = simulate(&lib, &w, &faults).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn degrade_slows_only_while_holding_the_page() {
        let lib = lib(4);
        let big = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == lib.num_pages)
            .expect("some kernel wants the whole 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: big,
                iterations: 100,
            }],
        };
        let ii = lib.profile(big).ii_constrained as u64;
        let clean = simulate(&lib, std::slice::from_ref(&spec), &[]).unwrap();
        let degraded = simulate(
            &lib,
            &[spec],
            &[FaultEvent {
                time: 10 * ii,
                page: 2,
                kind: FaultKind::Degrade,
            }],
        )
        .unwrap();
        assert_eq!(degraded.faults.pages_degraded, 1);
        assert!(
            degraded.makespan > clean.makespan,
            "degraded page should slow the tenant: {} vs {}",
            degraded.makespan,
            clean.makespan
        );
    }
}
