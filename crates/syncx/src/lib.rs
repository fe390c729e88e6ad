//! Synchronization facade for the *atpg-easy* workspace.
//!
//! Concurrency-sensitive code (the parallel campaign engine's fault
//! cursor and drop-bitmap, the serve daemon's scheduler and counters,
//! `obs`'s shared trace sink) imports its atomics, `Arc`, `Mutex`, and
//! thread-spawning through this crate instead of `std::sync` directly.
//! In a normal build every item below is a plain re-export of the std
//! type — zero cost, byte-identical codegen. Under
//! `RUSTFLAGS="--cfg loom"` the same paths resolve to the loom model
//! checker's shims, so the `loom_parallel` suite can exhaustively explore
//! thread interleavings of the real production types.
//!
//! The `S002` source lint enforces the funnel: no crate outside this one
//! may import `std::sync::atomic`, so new atomics cannot silently escape
//! loom coverage. `S004` similarly pins `thread::spawn` to the parallel
//! engine.
//!
//! Code built under `cfg(loom)` must only exercise these primitives
//! inside `loom::model`; outside a model the loom shims panic. Normal
//! builds have no such restriction (the types *are* std's).

#![forbid(unsafe_code)]

/// Atomic types and orderings (`std::sync::atomic` or loom's shims).
pub mod atomic {
    #[cfg(not(loom))]
    pub use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

    #[cfg(loom)]
    pub use loom::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

/// Thread spawning (`std::thread` or loom's scheduler-aware shims).
/// `std::thread::scope` has no loom equivalent; scoped fan-out stays in
/// the parallel engine, whose loom coverage models the scoped protocol
/// with `spawn` + `join` over `Arc`-shared state.
pub mod thread {
    #[cfg(not(loom))]
    pub use std::thread::{spawn, yield_now, JoinHandle};

    #[cfg(loom)]
    pub use loom::thread::{spawn, yield_now, JoinHandle};
}

#[cfg(not(loom))]
pub use std::sync::{Arc, Mutex, MutexGuard};

#[cfg(loom)]
pub use loom::sync::{Arc, Mutex, MutexGuard};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_is_std_outside_loom() {
        // In a normal build the facade types must be *the* std types, not
        // lookalikes: a value constructed through the facade is usable
        // where std's type is demanded.
        #[cfg(not(loom))]
        {
            let a: std::sync::atomic::AtomicUsize = super::atomic::AtomicUsize::new(7);
            assert_eq!(a.load(super::atomic::Ordering::Relaxed), 7);
            let m: std::sync::Mutex<u32> = super::Mutex::new(3);
            assert_eq!(*m.lock().expect("std mutex"), 3);
            let h: std::thread::JoinHandle<u8> = super::thread::spawn(|| 9);
            assert_eq!(h.join().expect("std thread"), 9);
        }
    }
}
