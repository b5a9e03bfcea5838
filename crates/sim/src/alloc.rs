//! The OS page allocator (§VII-B.1).
//!
//! Budgets move along the halving chain: "when another thread requests
//! access to the CGRA, the thread using the most pages is decreased to use
//! half as many pages and the new thread is resized to fit into the freed
//! portion … threads are expanded as other threads complete."
//!
//! Beyond budget *counts*, the allocator tracks page *identity*: which
//! physical page backs which thread. Counts drive every policy decision
//! (so fault-free runs are bit-identical to the count-only allocator this
//! replaced); identity exists so a [`kill_page`](Allocator::kill_page)
//! fault can find the owning thread and revoke exactly the page that
//! died. Grants take the lowest-numbered free pages; shrinks return a
//! thread's highest-numbered pages — both deterministic.
//!
//! Every operation is bounded by the page count `n`, never by the number
//! of threads in the workload: each thread on the CGRA holds at least
//! one page, so at most `n` threads are ever *running*, and those are
//! kept in a sorted vector whose capacity is reserved up front. Nothing
//! allocates except [`pages_of`](Allocator::pages_of), the returned
//! `Vec<Expansion>` of a growth that grows someone, and the invariant
//! check's per-thread scratch table, which grows to the highest thread
//! id once and is reused after that.

use crate::error::SimError;
use crate::kernel_lib::halving_chain;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::cmp::Reverse;

/// How freed pages are redistributed when a thread leaves the CGRA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExpandPolicy {
    /// Grow the smallest allocation first (default; fairness-oriented).
    SmallestFirst,
    /// Grow the largest allocation first (throughput for the leader).
    LargestFirst,
    /// Never expand (ablation: measures how much expansion contributes).
    None,
}

/// Outcome of a CGRA page request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Pages granted without touching anyone.
    Granted {
        /// Pages handed to the requester.
        pages: u16,
    },
    /// A running thread was shrunk to make room.
    Shrunk {
        /// The shrunk thread.
        victim: usize,
        /// The victim's allocation before the shrink.
        victim_was: u16,
        /// The victim's new allocation.
        victim_pages: u16,
        /// Pages handed to the requester.
        pages: u16,
    },
    /// No pages available (every running thread is at one page): stall.
    Queued,
}

/// What happened when a page died ([`Allocator::kill_page`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageDeath {
    /// The page was already dead; nothing changed.
    AlreadyDead,
    /// The page was free; capacity shrank by one, no thread affected.
    Unallocated,
    /// The owning thread dropped to the next halving-chain budget.
    Shrunk {
        /// The affected thread.
        victim: usize,
        /// Its allocation before the fault.
        from_pages: u16,
        /// Its allocation after (next chain value below).
        to_pages: u16,
    },
    /// The owning thread was at one page: its allocation is gone and it
    /// must re-queue.
    Revoked {
        /// The evicted thread.
        victim: usize,
    },
}

/// One applied expansion: `thread` grew `from_pages → to_pages`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expansion {
    /// The grown thread.
    pub thread: usize,
    /// Allocation before the expansion.
    pub from_pages: u16,
    /// Allocation after.
    pub to_pages: u16,
}

/// Per-page ownership state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageState {
    Free,
    Dead,
    Owned(usize),
}

/// The order in which a growth step picks the thread to grow.
#[derive(Debug, Clone, Copy)]
enum GrowthOrder {
    /// Smallest current allocation first.
    Smallest,
    /// Largest current allocation first.
    Largest,
    /// Largest deficit below the desired budget first.
    Deficit,
}

impl GrowthOrder {
    /// Priority of a thread holding `pages` and wanting `desired`
    /// (lower grows first; ties go to the lowest thread id).
    fn key(self, pages: u16, desired: u16) -> i32 {
        match self {
            GrowthOrder::Smallest => i32::from(pages),
            GrowthOrder::Largest => -i32::from(pages),
            GrowthOrder::Deficit => -i32::from(desired - pages),
        }
    }
}

/// Page bookkeeping for the multithreaded CGRA.
#[derive(Debug, Clone)]
pub struct Allocator {
    n: u16,
    free: u16,
    /// `(thread, budget)` of every thread on the CGRA, sorted by thread.
    running: Vec<(usize, u16)>,
    chain: Vec<u16>,
    pages: Vec<PageState>,
    /// Scratch for [`check_invariant`](Allocator::check_invariant):
    /// owned pages counted per thread id.
    held: RefCell<Vec<u16>>,
}

impl Allocator {
    /// An allocator over `n` pages.
    pub fn new(n: u16) -> Self {
        Allocator {
            n,
            free: n,
            running: Vec::with_capacity(n as usize),
            chain: halving_chain(n),
            pages: vec![PageState::Free; n as usize],
            held: RefCell::new(Vec::new()),
        }
    }

    /// Index of `thread` in `running`, or where it would be inserted.
    fn slot(&self, thread: usize) -> Result<usize, usize> {
        self.running.binary_search_by_key(&thread, |&(t, _)| t)
    }

    /// Set a thread's budget, admitting it if it is not running.
    fn set_allocation(&mut self, thread: usize, pages: u16) {
        match self.slot(thread) {
            Ok(i) => self.running[i].1 = pages,
            Err(i) => self.running.insert(i, (thread, pages)),
        }
    }

    /// Take a thread off the CGRA, returning its budget.
    fn remove(&mut self, thread: usize) -> Option<u16> {
        let i = self.slot(thread).ok()?;
        Some(self.running.remove(i).1)
    }

    /// Pages currently unallocated (and not dead).
    pub fn free_pages(&self) -> u16 {
        self.free
    }

    /// Pages still usable (free or owned; excludes dead).
    pub fn usable_pages(&self) -> u16 {
        self.pages
            .iter()
            .filter(|s| !matches!(s, PageState::Dead))
            .count() as u16
    }

    /// Current allocation of a thread (None if not on the CGRA).
    pub fn allocation(&self, thread: usize) -> Option<u16> {
        self.slot(thread).ok().map(|i| self.running[i].1)
    }

    /// Number of threads on the CGRA.
    pub fn active(&self) -> usize {
        self.running.len()
    }

    /// The thread owning `page`, if any.
    pub fn owner_of(&self, page: u16) -> Option<usize> {
        match self.pages.get(page as usize)? {
            PageState::Owned(t) => Some(*t),
            _ => None,
        }
    }

    /// The physical pages held by `thread`, ascending, without
    /// allocating.
    pub fn owned_pages(&self, thread: usize) -> impl Iterator<Item = u16> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter(move |&(_, s)| *s == PageState::Owned(thread))
            .map(|(i, _)| i as u16)
    }

    /// The physical pages held by `thread`, ascending.
    pub fn pages_of(&self, thread: usize) -> Vec<u16> {
        self.owned_pages(thread).collect()
    }

    fn largest_chain_at_most(&self, x: u16) -> Option<u16> {
        self.chain.iter().copied().find(|&c| c <= x)
    }

    fn chain_above(&self, c: u16) -> Option<u16> {
        self.chain.iter().copied().rev().find(|&x| x > c)
    }

    fn chain_below(&self, c: u16) -> Option<u16> {
        self.chain.iter().copied().find(|&x| x < c)
    }

    /// Hand the `count` lowest-numbered free pages to `thread`.
    fn take_free(&mut self, thread: usize, count: u16) -> Result<(), SimError> {
        let mut left = count;
        for s in self.pages.iter_mut() {
            if left == 0 {
                break;
            }
            if *s == PageState::Free {
                *s = PageState::Owned(thread);
                left -= 1;
            }
        }
        if left != 0 {
            return Err(SimError::InvariantViolated {
                detail: format!(
                    "free count {} but only {} free pages",
                    self.free,
                    count - left
                ),
            });
        }
        self.free -= count;
        Ok(())
    }

    /// Return `count` of `thread`'s highest-numbered pages to the free
    /// pool.
    fn give_back(&mut self, thread: usize, count: u16) -> Result<(), SimError> {
        let mut left = count;
        for s in self.pages.iter_mut().rev() {
            if left == 0 {
                break;
            }
            if *s == PageState::Owned(thread) {
                *s = PageState::Free;
                left -= 1;
            }
        }
        if left != 0 {
            return Err(SimError::InvariantViolated {
                detail: format!("thread {thread} owns fewer than {count} pages"),
            });
        }
        self.free += count;
        Ok(())
    }

    /// Request pages for `thread` (wanting `want`, a halving-chain value).
    pub fn request(&mut self, thread: usize, want: u16) -> Result<RequestOutcome, SimError> {
        debug_assert!(self.chain.contains(&want), "want {want} not on chain");
        if self.slot(thread).is_ok() {
            return Err(SimError::InvariantViolated {
                detail: format!("thread {thread} requested pages while already on the CGRA"),
            });
        }
        // Unused portion first: no transformation of anyone needed.
        if self.free > 0 {
            if let Some(pages) = self.largest_chain_at_most(self.free.min(want)) {
                self.take_free(thread, pages)?;
                self.set_allocation(thread, pages);
                return Ok(RequestOutcome::Granted { pages });
            }
        }
        // Shrink the thread using the most pages (ties: lowest id).
        let victim = self
            .running
            .iter()
            .max_by_key(|&&(id, pages)| (pages, Reverse(id)))
            .copied();
        let Some((victim, victim_was)) = victim else {
            return Ok(RequestOutcome::Queued);
        };
        let Some(new_pages) = self.chain_below(victim_was) else {
            return Ok(RequestOutcome::Queued); // everyone already at 1 page
        };
        let freed = victim_was - new_pages;
        self.set_allocation(victim, new_pages);
        self.give_back(victim, freed)?;
        let pages =
            self.largest_chain_at_most(self.free.min(want))
                .ok_or(SimError::InvariantViolated {
                    detail: "shrink freed no usable budget".to_string(),
                })?;
        self.take_free(thread, pages)?;
        self.set_allocation(thread, pages);
        Ok(RequestOutcome::Shrunk {
            victim,
            victim_was,
            victim_pages: new_pages,
            pages,
        })
    }

    /// Release a thread's pages; returns how many were freed.
    pub fn release(&mut self, thread: usize) -> Result<u16, SimError> {
        let pages = self
            .remove(thread)
            .ok_or(SimError::UnknownThread { thread })?;
        self.give_back(thread, pages)?;
        Ok(pages)
    }

    /// A page died. Capacity shrinks by one; if a thread owned the page
    /// it drops to the next halving-chain budget below (its other freed
    /// pages return to the pool), or loses its allocation entirely when
    /// it was already at one page.
    pub fn kill_page(&mut self, page: u16) -> Result<PageDeath, SimError> {
        let Some(&state) = self.pages.get(page as usize) else {
            return Err(SimError::PageOutOfRange {
                page,
                num_pages: self.n,
            });
        };
        match state {
            PageState::Dead => Ok(PageDeath::AlreadyDead),
            PageState::Free => {
                self.pages[page as usize] = PageState::Dead;
                self.free -= 1;
                Ok(PageDeath::Unallocated)
            }
            PageState::Owned(victim) => {
                let from_pages = self
                    .allocation(victim)
                    .ok_or(SimError::UnknownThread { thread: victim })?;
                self.pages[page as usize] = PageState::Dead;
                match self.chain_below(from_pages) {
                    None => {
                        // Was at the chain bottom (one page): fully evicted.
                        self.remove(victim);
                        Ok(PageDeath::Revoked { victim })
                    }
                    Some(to_pages) => {
                        // The thread keeps `to_pages` of its surviving
                        // pages; the rest (beyond the dead one) free up.
                        let extra = from_pages - 1 - to_pages;
                        self.give_back(victim, extra)?;
                        self.set_allocation(victim, to_pages);
                        Ok(PageDeath::Shrunk {
                            victim,
                            from_pages,
                            to_pages,
                        })
                    }
                }
            }
        }
    }

    /// A repaired page returns to the free pool (Dead → Free). Returns
    /// `true` if the page was actually dead; reviving a page that is
    /// free or owned is a no-op (`false`) so a stale repair completion
    /// can never double-count capacity.
    pub fn revive(&mut self, page: u16) -> Result<bool, SimError> {
        let Some(&state) = self.pages.get(page as usize) else {
            return Err(SimError::PageOutOfRange {
                page,
                num_pages: self.n,
            });
        };
        if state == PageState::Dead {
            self.pages[page as usize] = PageState::Free;
            self.free += 1;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Supervised re-expansion after a page repair: repeatedly grow the
    /// live thread with the largest *deficit* below its desired budget
    /// (ties: lowest id) by one halving-chain step, while free pages
    /// cover the cost. Unlike [`expand`](Allocator::expand), which
    /// orders by current size per policy, this orders by how much a
    /// thread has been shrunk — the most-shrunk thread recovers first,
    /// which is the supervision policy recovered capacity is for.
    /// Returns every applied expansion.
    pub fn expand_most_shrunk(
        &mut self,
        want: impl Fn(usize) -> u16,
    ) -> Result<Vec<Expansion>, SimError> {
        self.grow(GrowthOrder::Deficit, want)
    }

    /// Expand running threads into free pages per `policy`. `want(t)`
    /// caps each thread's growth. Returns every applied expansion.
    pub fn expand(
        &mut self,
        policy: ExpandPolicy,
        want: impl Fn(usize) -> u16,
    ) -> Result<Vec<Expansion>, SimError> {
        let order = match policy {
            ExpandPolicy::SmallestFirst => GrowthOrder::Smallest,
            ExpandPolicy::LargestFirst => GrowthOrder::Largest,
            ExpandPolicy::None => return Ok(Vec::new()),
        };
        self.grow(order, want)
    }

    /// The growth loop behind both expansion policies: one halving-chain
    /// step at a time (capped at `want`), each for the first thread in
    /// `order` whose step the free pool can pay for, until no thread can
    /// grow.
    fn grow(
        &mut self,
        order: GrowthOrder,
        want: impl Fn(usize) -> u16,
    ) -> Result<Vec<Expansion>, SimError> {
        let mut applied = Vec::new();
        while let Some((i, up)) = self.next_growth(order, &want) {
            let (thread, pages) = self.running[i];
            self.take_free(thread, up - pages)?;
            self.running[i].1 = up;
            applied.push(Expansion {
                thread,
                from_pages: pages,
                to_pages: up,
            });
        }
        Ok(applied)
    }

    /// The next growth step as `(running index, new budget)`: the
    /// affordable step of the thread with the lowest `(key, id)`. One
    /// pass over the running threads, which are in id order, so the
    /// first of equal keys is the lowest id.
    fn next_growth(
        &self,
        order: GrowthOrder,
        want: &impl Fn(usize) -> u16,
    ) -> Option<(usize, u16)> {
        // Every step costs at least one page.
        if self.free == 0 {
            return None;
        }
        let mut best: Option<(i32, usize, u16)> = None;
        for (i, &(thread, pages)) in self.running.iter().enumerate() {
            let desired = want(thread);
            if pages >= desired {
                continue;
            }
            let Some(up) = self.chain_above(pages) else {
                continue;
            };
            let up = up.min(desired);
            if up <= pages || up - pages > self.free {
                continue;
            }
            let key = order.key(pages, desired);
            if best.is_some_and(|(k, _, _)| k <= key) {
                continue;
            }
            best = Some((key, i, up));
        }
        best.map(|(_, i, up)| (i, up))
    }

    /// Sanity: allocations + free + dead always equals N, and the
    /// identity map agrees with the counts. One pass over the pages
    /// recounts dead, free and per-thread owned pages.
    pub fn check_invariant(&self) -> bool {
        // Owned pages per thread id. Only running threads' entries are
        // reset and read; a page whose owner is not running counts
        // toward no running thread (its entry, if any, is scratch).
        let mut held = self.held.borrow_mut();
        let ids = self.running.last().map_or(0, |&(t, _)| t + 1);
        if held.len() < ids {
            held.resize(ids, 0);
        }
        for &(t, _) in &self.running {
            held[t] = 0;
        }
        let (mut dead, mut free_ident) = (0u16, 0u16);
        for s in &self.pages {
            match *s {
                PageState::Dead => dead += 1,
                PageState::Free => free_ident += 1,
                PageState::Owned(t) => {
                    if let Some(h) = held.get_mut(t) {
                        *h = h.wrapping_add(1);
                    }
                }
            }
        }
        let counts_ok =
            self.running.iter().map(|&(_, c)| c).sum::<u16>() + self.free + dead == self.n;
        let identity_ok =
            free_ident == self.free && self.running.iter().all(|&(t, c)| held[t] == c);
        counts_ok && identity_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_thread_gets_what_it_wants() {
        let mut a = Allocator::new(8);
        assert_eq!(
            a.request(0, 8).unwrap(),
            RequestOutcome::Granted { pages: 8 }
        );
        assert_eq!(a.pages_of(0), (0..8).collect::<Vec<u16>>());
        assert!(a.check_invariant());
    }

    #[test]
    fn unused_portion_served_without_shrinking() {
        let mut a = Allocator::new(8);
        a.request(0, 4).unwrap();
        // 4 pages free: second thread fits without a shrink.
        assert_eq!(
            a.request(1, 4).unwrap(),
            RequestOutcome::Granted { pages: 4 }
        );
        assert_eq!(a.pages_of(1), vec![4, 5, 6, 7]);
        assert!(a.check_invariant());
    }

    #[test]
    fn shrink_halves_the_biggest() {
        let mut a = Allocator::new(8);
        a.request(0, 8).unwrap();
        let out = a.request(1, 8).unwrap();
        assert_eq!(
            out,
            RequestOutcome::Shrunk {
                victim: 0,
                victim_was: 8,
                victim_pages: 4,
                pages: 4
            }
        );
        // Victim keeps its lowest pages; newcomer takes the freed ones.
        assert_eq!(a.pages_of(0), vec![0, 1, 2, 3]);
        assert_eq!(a.pages_of(1), vec![4, 5, 6, 7]);
        assert!(a.check_invariant());
    }

    #[test]
    fn cascade_of_arrivals() {
        let mut a = Allocator::new(8);
        a.request(0, 8).unwrap();
        a.request(1, 8).unwrap(); // 4 + 4
        let out = a.request(2, 8).unwrap(); // shrink thread 0 (tie-lowest) to 2
        assert_eq!(
            out,
            RequestOutcome::Shrunk {
                victim: 0,
                victim_was: 4,
                victim_pages: 2,
                pages: 2
            }
        );
        assert_eq!(a.allocation(1), Some(4));
        assert!(a.check_invariant());
    }

    #[test]
    fn queue_when_everyone_at_one_page() {
        let mut a = Allocator::new(2);
        a.request(0, 2).unwrap();
        a.request(1, 2).unwrap(); // 1 + 1
        assert_eq!(a.request(2, 2).unwrap(), RequestOutcome::Queued);
        assert!(a.check_invariant());
    }

    #[test]
    fn queued_request_drains_after_release() {
        let mut a = Allocator::new(2);
        a.request(0, 2).unwrap();
        a.request(1, 2).unwrap(); // 1 + 1
        assert_eq!(a.request(2, 2).unwrap(), RequestOutcome::Queued);
        // Thread 0 finishes; the stalled request now fits its free page.
        a.release(0).unwrap();
        assert_eq!(
            a.request(2, 2).unwrap(),
            RequestOutcome::Granted { pages: 1 }
        );
        assert!(a.check_invariant());
    }

    #[test]
    fn release_and_expand_smallest_first() {
        let mut a = Allocator::new(8);
        a.request(0, 8).unwrap();
        a.request(1, 8).unwrap(); // 4+4
        a.request(2, 8).unwrap(); // 2+4+2
        assert_eq!(a.allocation(0), Some(2));
        a.release(1).unwrap();
        let grown = a.expand(ExpandPolicy::SmallestFirst, |_| 8).unwrap();
        // Thread 0 (2 pages) doubles to 4, then thread 2 doubles to 4.
        assert_eq!(
            grown,
            vec![
                Expansion {
                    thread: 0,
                    from_pages: 2,
                    to_pages: 4
                },
                Expansion {
                    thread: 2,
                    from_pages: 2,
                    to_pages: 4
                }
            ]
        );
        assert!(a.check_invariant());
    }

    #[test]
    fn expansion_respects_want() {
        let mut a = Allocator::new(8);
        a.request(0, 2).unwrap();
        let grown = a.expand(ExpandPolicy::SmallestFirst, |_| 2).unwrap();
        assert!(grown.is_empty(), "{grown:?}");
    }

    #[test]
    fn expand_none_is_inert() {
        let mut a = Allocator::new(8);
        a.request(0, 2).unwrap();
        assert!(a.expand(ExpandPolicy::None, |_| 8).unwrap().is_empty());
    }

    #[test]
    fn nine_page_chain_composition() {
        // 6x6 with 2x2 pages: 9 pages, chain [9,4,2,1].
        let mut a = Allocator::new(9);
        assert_eq!(
            a.request(0, 9).unwrap(),
            RequestOutcome::Granted { pages: 9 }
        );
        let out = a.request(1, 9).unwrap();
        // Victim halves 9 -> 4, freeing 5; newcomer takes 4 (largest chain <= 5).
        assert_eq!(
            out,
            RequestOutcome::Shrunk {
                victim: 0,
                victim_was: 9,
                victim_pages: 4,
                pages: 4
            }
        );
        assert_eq!(a.free_pages(), 1);
        // A third small thread can take the loose page without shrinking.
        assert_eq!(
            a.request(2, 1).unwrap(),
            RequestOutcome::Granted { pages: 1 }
        );
        assert!(a.check_invariant());
    }

    #[test]
    fn release_unknown_thread_is_typed_error() {
        let mut a = Allocator::new(4);
        assert_eq!(a.release(3), Err(SimError::UnknownThread { thread: 3 }));
    }

    #[test]
    fn kill_free_page_shrinks_capacity() {
        let mut a = Allocator::new(4);
        assert_eq!(a.kill_page(2).unwrap(), PageDeath::Unallocated);
        assert_eq!(a.free_pages(), 3);
        assert_eq!(a.usable_pages(), 3);
        assert_eq!(a.kill_page(2).unwrap(), PageDeath::AlreadyDead);
        assert!(a.check_invariant());
    }

    #[test]
    fn kill_owned_page_shrinks_owner_to_chain_below() {
        let mut a = Allocator::new(8);
        a.request(0, 8).unwrap();
        // Page 5 dies: thread 0 drops 8 -> 4, pages 5 is dead and the
        // other 3 surplus pages free up.
        assert_eq!(
            a.kill_page(5).unwrap(),
            PageDeath::Shrunk {
                victim: 0,
                from_pages: 8,
                to_pages: 4
            }
        );
        assert_eq!(a.allocation(0), Some(4));
        assert_eq!(a.pages_of(0).len(), 4);
        assert!(!a.pages_of(0).contains(&5));
        assert_eq!(a.free_pages(), 3);
        assert_eq!(a.usable_pages(), 7);
        assert!(a.check_invariant());
    }

    #[test]
    fn kill_last_page_revokes_thread() {
        let mut a = Allocator::new(2);
        a.request(0, 2).unwrap();
        a.request(1, 2).unwrap(); // 1 + 1
        let page = a.pages_of(1)[0];
        assert_eq!(a.kill_page(page).unwrap(), PageDeath::Revoked { victim: 1 });
        assert_eq!(a.allocation(1), None);
        assert_eq!(a.active(), 1);
        assert!(a.check_invariant());
    }

    #[test]
    fn kill_out_of_range_is_typed_error() {
        let mut a = Allocator::new(4);
        assert_eq!(
            a.kill_page(9),
            Err(SimError::PageOutOfRange {
                page: 9,
                num_pages: 4
            })
        );
    }

    #[test]
    fn revive_returns_dead_page_to_the_pool() {
        let mut a = Allocator::new(4);
        a.kill_page(2).unwrap();
        assert_eq!(a.free_pages(), 3);
        assert_eq!(a.usable_pages(), 3);
        assert!(a.revive(2).unwrap());
        assert_eq!(a.free_pages(), 4);
        assert_eq!(a.usable_pages(), 4);
        // Double-revive and reviving a live page are no-ops.
        assert!(!a.revive(2).unwrap());
        assert_eq!(a.free_pages(), 4);
        a.request(0, 4).unwrap();
        assert!(!a.revive(0).unwrap());
        assert_eq!(
            a.revive(9),
            Err(SimError::PageOutOfRange {
                page: 9,
                num_pages: 4
            })
        );
        assert!(a.check_invariant());
    }

    #[test]
    fn revived_page_is_grantable_again() {
        let mut a = Allocator::new(2);
        a.request(0, 2).unwrap();
        a.request(1, 2).unwrap(); // 1 + 1
        let page = a.pages_of(1)[0];
        assert_eq!(a.kill_page(page).unwrap(), PageDeath::Revoked { victim: 1 });
        assert_eq!(a.request(1, 2).unwrap(), RequestOutcome::Queued);
        assert!(a.revive(page).unwrap());
        assert_eq!(
            a.request(1, 2).unwrap(),
            RequestOutcome::Granted { pages: 1 }
        );
        assert_eq!(a.pages_of(1), vec![page]);
        assert!(a.check_invariant());
    }

    #[test]
    fn expand_most_shrunk_grows_largest_deficit_first() {
        let mut a = Allocator::new(8);
        a.request(0, 8).unwrap();
        a.request(1, 8).unwrap(); // 4 + 4
        a.request(2, 8).unwrap(); // 2 + 4 + 2
        a.release(1).unwrap(); // 4 free
                               // Thread 0 wants 8 (deficit 6); thread 2 wants 4 (deficit 2):
                               // the most-shrunk thread 0 doubles first, then thread 2 takes
                               // the remaining 2.
        let wants = |t: usize| if t == 0 { 8 } else { 4 };
        let grown = a.expand_most_shrunk(wants).unwrap();
        assert_eq!(
            grown,
            vec![
                Expansion {
                    thread: 0,
                    from_pages: 2,
                    to_pages: 4
                },
                Expansion {
                    thread: 2,
                    from_pages: 2,
                    to_pages: 4
                }
            ]
        );
        assert_eq!(a.free_pages(), 0);
        assert!(a.check_invariant());
    }

    #[test]
    fn expand_most_shrunk_ties_go_to_lowest_id() {
        let mut a = Allocator::new(8);
        a.request(0, 8).unwrap();
        a.request(1, 8).unwrap(); // 4 + 4
        a.request(2, 8).unwrap(); // 2 + 4 + 2
        a.release(1).unwrap(); // 4 free; threads 0 and 2 both at 2
                               // Equal deficits: thread 0 wins the tie, and after one chain
                               // step (2 -> 4) the pool is drained before thread 2's turn
                               // comes again.
        let grown = a.expand_most_shrunk(|_| 8).unwrap();
        assert_eq!(grown.len(), 2);
        assert_eq!(grown[0].thread, 0);
        assert_eq!((grown[0].from_pages, grown[0].to_pages), (2, 4));
        assert_eq!(grown[1].thread, 2);
        assert!(a.check_invariant());
    }

    /// Two tenants (2 + 4 pages on 8) with one page killed and one
    /// freed: every page state is present, and the invariant holds.
    fn mixed_state() -> Allocator {
        let mut a = Allocator::new(8);
        a.request(0, 8).unwrap();
        a.request(1, 8).unwrap(); // 4 + 4
        a.request(2, 8).unwrap(); // 2 + 4 + 2
        a.kill_page(3).unwrap(); // thread 2: 2 -> 1, page 3 dead
        assert_eq!(a.free_pages(), 0);
        a.release(2).unwrap(); // page 2 free
        assert!(a.check_invariant());
        assert_eq!(a.pages_of(0), vec![0, 1]);
        assert_eq!(a.pages_of(1), vec![4, 5, 6, 7]);
        assert_eq!(a.free_pages(), 1);
        a
    }

    #[test]
    fn invariant_catches_free_count_off_by_one() {
        let mut a = mixed_state();
        a.free += 1;
        assert!(!a.check_invariant());
        let mut a = mixed_state();
        a.free -= 1;
        assert!(!a.check_invariant());
    }

    #[test]
    fn invariant_catches_page_owned_by_a_thread_not_running() {
        // The free page goes to a thread the allocator never admitted;
        // the free count follows, so only the ghost owner is wrong.
        let mut a = mixed_state();
        a.pages[2] = PageState::Owned(9);
        a.free -= 1;
        assert!(!a.check_invariant());
        // Likewise for a page taken from a running tenant.
        let mut a = mixed_state();
        a.pages[0] = PageState::Owned(9);
        assert!(!a.check_invariant());
        // And for a ghost whose id lies between running ids (threads 0
        // and 2 run, thread 1 has left).
        let mut a = Allocator::new(8);
        a.request(0, 4).unwrap();
        a.request(1, 2).unwrap();
        a.request(2, 2).unwrap();
        a.release(1).unwrap();
        assert!(a.check_invariant());
        a.pages[4] = PageState::Owned(1);
        a.free -= 1;
        assert!(!a.check_invariant());
    }

    #[test]
    fn invariant_catches_page_count_disagreeing_with_allocation() {
        // Page 5 moves from thread 1 to thread 0: the totals still add
        // up, but each thread's identity map disagrees with its count.
        let mut a = mixed_state();
        a.pages[5] = PageState::Owned(0);
        assert!(!a.check_invariant());
    }

    #[test]
    fn invariant_catches_dead_free_owned_not_summing_to_n() {
        let mut a = mixed_state();
        a.n += 1;
        assert!(!a.check_invariant());
        let mut a = mixed_state();
        a.n -= 1;
        assert!(!a.check_invariant());
        // A free page dying without the free count noticing.
        let mut a = mixed_state();
        a.pages[2] = PageState::Dead;
        assert!(!a.check_invariant());
    }

    #[test]
    fn expand_most_shrunk_respects_want_and_empty_pool() {
        let mut a = Allocator::new(8);
        a.request(0, 2).unwrap();
        // Satisfied threads never grow.
        assert!(a.expand_most_shrunk(|_| 2).unwrap().is_empty());
        // Nothing free: no growth even with a deficit.
        let mut b = Allocator::new(2);
        b.request(0, 2).unwrap();
        b.request(1, 2).unwrap();
        assert!(b.expand_most_shrunk(|_| 2).unwrap().is_empty());
    }
}
