//! Model-checked exploration of the parallel campaign engine's
//! concurrent core: the drop-bitmap publish/read protocol and the
//! workers' own commits under the commit lock. Compiled only under
//! `RUSTFLAGS="--cfg loom"`, where `atpg_easy_syncx` swaps the production
//! atomics and `Mutex` for the vendored model checker's — so these tests
//! explore the *production* `DropBitmap` type, not a copy. The shared
//! fault cursor needs no scenario of its own: it is one `fetch_add`,
//! which hands out each index once under any schedule.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p atpg-easy-atpg --test loom_parallel --release
//! ```
#![cfg(loom)]

use std::collections::BTreeMap;
use std::sync::Mutex as StdMutex;

use atpg_easy_atpg::DropBitmap;
use atpg_easy_syncx::Mutex;
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

/// One emitted record: the fault index and how the fault was retired.
type Record = (usize, &'static str);

/// The commit state of scenarios 2a and 2b, over two faults: a miniature
/// of the engine's `Committer`. A filed solve is the fault index and the
/// later faults its test vector detects.
#[derive(Default)]
struct Commit {
    detected: [bool; 2],
    pending: BTreeMap<usize, Vec<usize>>,
    held: BTreeMap<usize, Record>,
    records: Vec<Record>,
}

impl Commit {
    /// Marks the solved fault and its hits detected, publishing each new
    /// drop bit, and returns the solved record.
    fn commit(&mut self, index: usize, hits: Vec<usize>, bits: &DropBitmap) -> Record {
        for j in std::iter::once(index).chain(hits) {
            if !self.detected[j] {
                self.detected[j] = true;
                bits.set(j);
            }
        }
        (index, "solve")
    }

    /// The engine's drain: emit at the frontier as far as filed solves
    /// reach, commit filed solves inside the window ahead of it, and
    /// repeat until a window pass commits nothing.
    fn drain(&mut self, bits: &DropBitmap, window: usize) {
        loop {
            while self.records.len() < 2 {
                let f = self.records.len();
                let record = if let Some(record) = self.held.remove(&f) {
                    record
                } else if self.detected[f] {
                    self.pending.remove(&f);
                    (f, "drop")
                } else if let Some(hits) = self.pending.remove(&f) {
                    self.commit(f, hits, bits)
                } else {
                    break;
                };
                self.records.push(record);
            }
            let (held, f) = (self.held.len(), self.records.len());
            let eligible: Vec<usize> = self.pending.range(f..f + window).map(|(&i, _)| i).collect();
            for i in eligible {
                if !self.detected[i] {
                    let hits = self.pending.remove(&i).expect("eligible faults are filed");
                    let record = self.commit(i, hits, bits);
                    self.held.insert(i, record);
                }
            }
            if self.held.len() == held {
                break;
            }
        }
    }
}

/// Explores two workers over two faults, whose test vector for fault 0
/// also detects fault 1, at commit window `window`, and returns the
/// records every schedule emitted.
///
/// Each worker takes indices from a shared cursor, skips an index whose
/// drop bit is set, "solves" the others — finding fault 0's hit on fault
/// 1 only while bit 1 reads clear, as the engine's live-fault filter does
/// — and commits under the facade `Mutex`: it files the solve unless the
/// frontier has passed it, then drains. No worker waits for the other
/// except for that lock. After the join, every fault not yet emitted must
/// be retired or filed, so the calling thread's last drain completes the
/// records alone.
fn explore(window: usize) -> Vec<Vec<Record>> {
    let outcomes: std::sync::Arc<StdMutex<Vec<Vec<Record>>>> =
        std::sync::Arc::new(StdMutex::new(Vec::new()));
    let sink = std::sync::Arc::clone(&outcomes);
    loom::model(move || {
        let bits = Arc::new(DropBitmap::new(2));
        let cursor = Arc::new(AtomicUsize::new(0));
        let commit = Arc::new(Mutex::new(Commit::default()));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (bits, cursor, commit) =
                    (Arc::clone(&bits), Arc::clone(&cursor), Arc::clone(&commit));
                loom::thread::spawn(move || loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= 2 {
                        return;
                    }
                    if bits.get(index) {
                        continue;
                    }
                    let hits = if index == 0 && !bits.get(1) {
                        vec![1]
                    } else {
                        Vec::new()
                    };
                    let mut c = commit.lock().expect("model mutex");
                    if index >= c.records.len() {
                        c.pending.insert(index, hits);
                    }
                    c.drain(&bits, window);
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker thread");
        }
        let mut c = commit.lock().expect("model mutex");
        for f in c.records.len()..2 {
            assert!(
                c.detected[f] || c.pending.contains_key(&f) || c.held.contains_key(&f),
                "fault {f} waits on a worker that has exited"
            );
        }
        c.drain(&bits, window);
        assert!(bits.get(0) && bits.get(1), "both faults end detected");
        sink.lock().expect("outcome sink").push(c.records.clone());
    });
    let seen = outcomes.lock().expect("outcome sink").clone();
    assert!(!seen.is_empty());
    seen
}

/// Scenario 2a — workers commit their own solves at window 1: whichever
/// worker solves first and whatever it sees of the drop bits, every
/// schedule emits the sequential engine's records, fault 0 solved and
/// fault 1 dropped by its test, in index order.
#[test]
fn worker_commits_emit_sequential_records_at_window_1() {
    for records in explore(1) {
        assert_eq!(records, vec![(0, "solve"), (1, "drop")], "window 1");
    }
}

/// Scenario 2b — workers commit ahead of the frontier at window 2: a solve
/// for fault 1 that is filed first commits at once, publishing its drop
/// bit before fault 0 is solved, and its record is held. Which of the two
/// retires fault 1 depends on the schedule, but every schedule emits both
/// faults in index order with the same verdict, detected.
#[test]
fn worker_commits_emit_in_index_order_at_window_2() {
    let mut kinds = Vec::new();
    for records in explore(2) {
        let indices: Vec<usize> = records.iter().map(|r| r.0).collect();
        assert_eq!(indices, vec![0, 1], "records emit in index order");
        assert_eq!(records[0], (0, "solve"), "fault 0 has no earlier test");
        kinds.push(records[1].1);
    }
    // Both retirements of fault 1 occur, so the window is exercised.
    assert!(
        kinds.contains(&"drop") && kinds.contains(&"solve"),
        "{kinds:?}"
    );
}
