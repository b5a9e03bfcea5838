//! # cgra-sim — multithreaded CGRA system simulation
//!
//! A deterministic discrete-event simulator reproducing the paper's
//! §VII-B experiment: a multithreaded host whose threads offload loop
//! kernels to one shared CGRA, under two accelerator regimes:
//!
//! * [`baseline::simulate_baseline`] — today's single-threaded,
//!   non-preemptive CGRA: kernels occupy the whole array FCFS.
//! * [`multithreaded::simulate_multithreaded`] — the paper's proposal:
//!   page-granular space multiplexing with PageMaster shrink/expand,
//!   driven by pre-computed `II_q(M)` tables from real transforms.
//!
//! Workloads ([`workload`]) follow §VII-B.1: 1–16 threads, CGRA need of
//! 50 / 75 / 87.5 %, kernels drawn uniformly from the 11-benchmark
//! library ([`kernel_lib`]).
//!
//! Faults are first-class: [`simulate_multithreaded`] takes a fault
//! schedule (empty for the fault-free system) and injects page deaths
//! and degradations mid-run (pages revoked via the allocator, owners
//! remapped or re-queued), and every fallible path reports a typed
//! [`error::SimError`] instead of panicking, so one poisoned sweep point
//! cannot abort a whole bench run. It also takes a
//! [`Tracer`](cgra_obs::Tracer) (off for an untraced run): the fault
//! schedule and the tracer are plain inputs, not separate entry points.
//!
//! Every simulator is a pure function of its inputs — no globals, no
//! interior mutability, no thread-locals — so the crate is safe to drive
//! from many sweep workers at once. A `const` check in the crate root
//! turns that contract into a build error if a simulator input or
//! output ever stops being `Send + Sync`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod baseline;
pub mod error;
pub mod event;
pub mod kernel_lib;
pub mod multithreaded;
pub mod stats;
pub mod workload;

pub use alloc::{Allocator, ExpandPolicy, Expansion, PageDeath, RequestOutcome};
pub use baseline::simulate_baseline;
pub use error::SimError;
pub use kernel_lib::{halving_chain, KernelLibrary, KernelProfile};
/// The benchmark adapter (which must not change between benchmark
/// revisions) still calls the simulator by this older name: an alias of
/// [`simulate_multithreaded`], not a second path.
#[doc(hidden)]
pub use multithreaded::simulate_multithreaded as simulate_multithreaded_faulty_traced;
pub use multithreaded::{simulate_multithreaded, MtConfig};
pub use stats::{improvement_percent, FaultStats, SimReport};
pub use workload::{generate, CgraNeed, Segment, ThreadSpec, WorkloadParams};

// Simulator inputs and outputs cross sweep-worker threads: a
// non-`Send`/`Sync` field (an `Rc`, a raw pointer) fails the build here.
const _: () = {
    const fn parallel_safe<T: Send + Sync>() {}
    parallel_safe::<KernelLibrary>();
    parallel_safe::<SimReport>();
    parallel_safe::<MtConfig>();
    parallel_safe::<WorkloadParams>();
    parallel_safe::<SimError>();
    parallel_safe::<cgra_arch::FaultSpec>();
    parallel_safe::<cgra_obs::Tracer>();
};
