//! Model-checked exploration of the parallel campaign engine's lock-free
//! core: the drop-bitmap publish/read protocol and the in-order committer
//! hand-off. Compiled only under `RUSTFLAGS="--cfg loom"`, where
//! `atpg_easy_syncx` swaps the production atomics for the vendored model
//! checker's — so these tests explore the *production* `DropBitmap` type,
//! not a copy. The shared fault cursor needs no scenario: it is one
//! `fetch_add`, which hands out each index once under any schedule.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p atpg-easy-atpg --test loom_parallel --release
//! ```
#![cfg(loom)]

use std::sync::Mutex as StdMutex;

use atpg_easy_atpg::DropBitmap;
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;

/// Scenario 1a — drop-bit publish racing a fault-skip read: bits are
/// monotone, and because the committer sets them in commit order, a
/// worker that observes a later bit must also observe every earlier one
/// (the Release `set` / Acquire `get` pairing; under the model's
/// sequentially-consistent exploration this checks the protocol logic —
/// same-word and cross-word).
#[test]
fn bitmap_later_bit_implies_earlier_bit() {
    loom::model(|| {
        let bits = Arc::new(DropBitmap::new(128));
        let b1 = Arc::clone(&bits);
        // Committer: retires fault 3, then fault 70 (different words) —
        // strictly in frontier order.
        let t = loom::thread::spawn(move || {
            b1.set(3);
            b1.set(70);
        });
        // Worker: speculative skip-checks in reverse commit order.
        let later = bits.get(70);
        let earlier = bits.get(3);
        if later {
            assert!(earlier, "observed bit 70 but not bit 3, set before it");
        }
        t.join().expect("committer thread");
        // Monotone: both definitively set after the committer is done.
        assert!(bits.get(3) && bits.get(70));
    });
}

/// Scenario 1b — concurrent sets in the *same* 64-bit word must both
/// survive: `set` is a `fetch_or`, not a load/store pair, so no schedule
/// can lose a sibling bit.
#[test]
fn bitmap_same_word_sets_never_lose_a_bit() {
    loom::model(|| {
        let bits = Arc::new(DropBitmap::new(64));
        let b1 = Arc::clone(&bits);
        let t = loom::thread::spawn(move || b1.set(5));
        bits.set(3);
        t.join().expect("setter thread");
        assert!(
            bits.get(3) && bits.get(5),
            "a same-word set lost its sibling bit"
        );
    });
}

/// Scenario 2a — in-order committer vs speculative worker completion.
///
/// Models the engine's hand-off protocol on 2 faults: the committer
/// retires fault 0 and its test vector also covers fault 1 (so it sets
/// fault 1's drop bit), while a worker races the bit with a speculative
/// solve of fault 1. Whatever the schedule: the worker always delivers
/// exactly one message (solved or skipped — no deadlock at the frontier),
/// and the committed outcome is identical — fault 0 solved, fault 1
/// dropped — whether or not the worker's speculation was wasted.
#[test]
fn committer_handoff_is_schedule_independent() {
    // Committed outcomes across ALL explored schedules must collapse to
    // one value; collect them outside the model and check after.
    let outcomes: std::sync::Arc<StdMutex<Vec<Vec<&'static str>>>> =
        std::sync::Arc::new(StdMutex::new(Vec::new()));
    let sink = std::sync::Arc::clone(&outcomes);
    loom::model(move || {
        let bits = Arc::new(DropBitmap::new(2));
        // 0 = in flight, 1 = solved speculatively, 2 = skipped (saw bit).
        let mailbox = Arc::new(AtomicUsize::new(0));
        let (b_w, m_w) = (Arc::clone(&bits), Arc::clone(&mailbox));
        let worker = loom::thread::spawn(move || {
            // Speculative path: check the drop bit, then "solve".
            if b_w.get(1) {
                m_w.store(2, Ordering::SeqCst);
            } else {
                m_w.store(1, Ordering::SeqCst);
            }
        });
        // Committer: fault 0 is its own work; its vector covers fault 1.
        let mut committed = Vec::new();
        committed.push("solve:0");
        bits.set(1);
        // Frontier moves to fault 1: its bit is set (by us), so it
        // retires as dropped — but the worker's message must still be
        // consumed, whatever it says.
        let msg = loop {
            match mailbox.load(Ordering::SeqCst) {
                0 => loom::thread::yield_now(),
                m => break m,
            }
        };
        assert!(msg == 1 || msg == 2, "worker delivered exactly one verdict");
        committed.push("drop:1");
        worker.join().expect("worker thread");
        sink.lock().expect("outcome sink").push(committed);
    });
    let seen = outcomes.lock().expect("outcome sink");
    assert!(!seen.is_empty());
    assert!(
        seen.iter().all(|c| c == &vec!["solve:0", "drop:1"]),
        "committed outcome varied across schedules: {seen:?}"
    );
}

/// Scenario 2b — speculative completion *ahead* of the frontier: the
/// worker finishes fault 1 before fault 0 is committed in some schedules,
/// yet the commit order is always 0 then 1.
#[test]
fn commit_order_is_frontier_order_not_completion_order() {
    let outcomes: std::sync::Arc<StdMutex<Vec<Vec<usize>>>> =
        std::sync::Arc::new(StdMutex::new(Vec::new()));
    let sink = std::sync::Arc::clone(&outcomes);
    loom::model(move || {
        let done1 = Arc::new(AtomicUsize::new(0));
        let d_w = Arc::clone(&done1);
        let worker = loom::thread::spawn(move || d_w.store(1, Ordering::SeqCst));
        let mut order = Vec::new();
        // Fault 0 commits first regardless of when the worker finished 1.
        order.push(0);
        while done1.load(Ordering::SeqCst) == 0 {
            loom::thread::yield_now();
        }
        order.push(1);
        worker.join().expect("worker thread");
        sink.lock().expect("outcome sink").push(order);
    });
    let seen = outcomes.lock().expect("outcome sink");
    assert!(seen.iter().all(|o| o == &vec![0, 1]));
}

/// Scenario 2c — windowed commit hand-off: with a commit window ≥ 2, a
/// solve arriving ahead of the frontier commits immediately — its drop
/// bit is published before the frontier fault is even solved — while its
/// record is merely *held*. Whatever the schedule: a worker racing the
/// early bit delivers exactly one verdict (skip or solve, no deadlock),
/// and emission is still strict frontier order because the held record
/// fills the gap the moment the frontier fault lands.
#[test]
fn window_handoff_publishes_early_and_emits_in_order() {
    let outcomes: std::sync::Arc<StdMutex<Vec<Vec<&'static str>>>> =
        std::sync::Arc::new(StdMutex::new(Vec::new()));
    let sink = std::sync::Arc::clone(&outcomes);
    loom::model(move || {
        let bits = Arc::new(DropBitmap::new(2));
        // 0 = in flight, 1 = solved speculatively, 2 = skipped (saw bit).
        let mailbox = Arc::new(AtomicUsize::new(0));
        let (b_w, m_w) = (Arc::clone(&bits), Arc::clone(&mailbox));
        // Worker: owns fault 0 (the frontier fault) and re-checks its
        // drop bit immediately before the speculative solve.
        let worker = loom::thread::spawn(move || {
            if b_w.get(0) {
                m_w.store(2, Ordering::SeqCst);
            } else {
                m_w.store(1, Ordering::SeqCst);
            }
        });
        // Committer: fault 1's solve already arrived and sits inside the
        // window, so it commits ahead of the frontier — bit published
        // now, record held for in-order emission. Its test vector also
        // covers fault 0, so bit 0 is published too.
        bits.set(1);
        bits.set(0);
        let held = "commit:1";
        let mut emitted = Vec::new();
        // Frontier fault 0: its bit is set (by the speculative commit),
        // so it retires as dropped — but the worker's message must still
        // be consumed, whatever it says.
        let msg = loop {
            match mailbox.load(Ordering::SeqCst) {
                0 => loom::thread::yield_now(),
                m => break m,
            }
        };
        assert!(msg == 1 || msg == 2, "worker delivered exactly one verdict");
        emitted.push("drop:0");
        emitted.push(held);
        worker.join().expect("worker thread");
        // Monotone: the early-published bits are visible to any later read.
        assert!(bits.get(0) && bits.get(1));
        sink.lock().expect("outcome sink").push(emitted);
    });
    let seen = outcomes.lock().expect("outcome sink");
    assert!(!seen.is_empty());
    assert!(
        seen.iter().all(|c| c == &vec!["drop:0", "commit:1"]),
        "emission order varied across schedules: {seen:?}"
    );
}
