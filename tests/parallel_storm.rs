//! Cursor/commit storm: the parallel campaign engine under real OS-thread
//! contention must stay byte-deterministic. Randomized circuits (varying
//! locality, so varying drop rates and solve times) are run with 1 and
//! with 8 worker threads; the committed reports must be identical bytes
//! — the in-order committer, not scheduling luck, decides the output.
//!
//! This complements the `loom_parallel` model tests: loom explores every
//! interleaving of a tiny protocol model; this test hammers the full
//! engine — shared fault cursor, speculative solves, drop bitmap, mpsc
//! hand-off, committer — with genuinely concurrent workers.

use atpg_easy_atpg::{campaign, AtpgCampaign, AtpgConfig};
use atpg_easy_circuits::random::{generate, RandomCircuitConfig};

#[test]
fn eight_thread_storm_matches_single_thread_byte_for_byte() {
    for (seed, locality) in [(11u64, 0.95), (12, 0.6), (13, 0.3)] {
        let nl = generate(&RandomCircuitConfig {
            gates: 160,
            inputs: 24,
            locality,
            seed,
            ..RandomCircuitConfig::default()
        })
        .expect("valid random circuit");
        let config = AtpgConfig {
            random_patterns: 32,
            seed,
            ..AtpgConfig::default()
        };
        let baseline = AtpgCampaign::new(config).with_threads(1).run(&nl);
        let stormed = AtpgCampaign::new(config).with_threads(8).run(&nl);
        assert_eq!(
            stormed.result.detection_report(),
            baseline.result.detection_report(),
            "seed {seed} locality {locality}: detection report diverged under 8 threads"
        );
        assert_eq!(
            stormed.result.canonical_report(),
            baseline.result.canonical_report(),
            "seed {seed} locality {locality}: canonical report diverged under 8 threads"
        );
        // The storm must actually have contended: all 8 workers exist and
        // every fault was taken exactly once between them.
        assert_eq!(stormed.report.workers.len(), 8);
        let taken: usize = stormed
            .report
            .workers
            .iter()
            .map(|w| w.solved + w.skipped)
            .sum();
        assert_eq!(taken, stormed.report.queue_depth, "every fault taken once");
    }
}

/// The commit-window sweep: at every thread count × window width the
/// per-fault detection report must be byte-identical to the sequential
/// campaign, and window 1 must additionally preserve the full canonical
/// bytes of the from-scratch config (the legacy contract). The second
/// config is the warm, statically pruned option set; it must also prune
/// exactly the faults the sequential driver prunes. This is the
/// reconciliation guarantee under real OS-thread contention.
///
/// Every run traces, so the traced commit path is exercised where commit
/// order differs from fault order (windows wider than 1): exactly one
/// trace per committed solve, in ascending `seq`, each matching the
/// record it describes and stamped with a real worker id.
#[test]
fn window_sweep_keeps_detection_identical_across_threads() {
    let nl = generate(&RandomCircuitConfig {
        gates: 160,
        inputs: 24,
        locality: 0.6,
        seed: 21,
        ..RandomCircuitConfig::default()
    })
    .expect("valid random circuit");
    let plain = AtpgConfig {
        random_patterns: 32,
        seed: 21,
        ..AtpgConfig::default()
    };
    let warm_pruned = AtpgConfig {
        incremental: true,
        static_prune: true,
        ..plain
    };
    for config in [plain, warm_pruned] {
        let sequential = campaign::run(&nl, &config);
        let detection = sequential.detection_report();
        let canonical = sequential.canonical_report();
        if config.static_prune {
            assert!(
                sequential.statically_pruned() > 0,
                "the fixture must give the pre-pass work"
            );
        }
        for window in [1usize, 4, 16] {
            for threads in [1usize, 2, 4, 8] {
                let run = AtpgCampaign::new(config)
                    .with_threads(threads)
                    .with_commit_window(window)
                    .with_tracing(true)
                    .run(&nl);
                let what = format!(
                    "incremental={} static_prune={} threads={threads} window={window}",
                    config.incremental, config.static_prune
                );
                assert_eq!(
                    run.result.detection_report(),
                    detection,
                    "{what}: detection report diverged"
                );
                assert_eq!(
                    run.report.static_pruned,
                    sequential.statically_pruned(),
                    "{what}: static prune diverged"
                );
                if config == plain && window == 1 {
                    assert_eq!(
                        run.result.canonical_report(),
                        canonical,
                        "{what}: window 1 must stay byte-identical"
                    );
                }
                let taken: usize = run
                    .report
                    .workers
                    .iter()
                    .map(|w| w.solved + w.skipped)
                    .sum();
                assert_eq!(taken, run.report.queue_depth, "every fault taken once");
                assert_eq!(
                    run.traces.len(),
                    run.report.committed_solves(),
                    "{what}: one trace per committed solve"
                );
                assert!(
                    run.traces.windows(2).all(|w| w[0].seq < w[1].seq),
                    "{what}: traces must be in strictly ascending seq order"
                );
                for t in &run.traces {
                    let r = &run.result.records[t.seq as usize];
                    assert!(r.sat_vars > 0, "{what}: seq {} has no SAT instance", t.seq);
                    assert_eq!(
                        (t.vars, t.clauses, t.sub_size, t.outcome.as_str()),
                        (
                            r.sat_vars as u64,
                            r.sat_clauses as u64,
                            r.sub_size as u64,
                            campaign::outcome_label(&r.outcome)
                        ),
                        "{what}: seq {} trace disagrees with its record",
                        t.seq
                    );
                    assert!(
                        (t.worker as usize) < threads,
                        "{what}: seq {} stamped with worker {}",
                        t.seq,
                        t.worker
                    );
                }
            }
        }
    }
}

#[test]
fn storm_without_dropping_is_also_deterministic() {
    // With dropping off there is no bitmap coordination at all — commit
    // order alone carries determinism; make sure that path holds too.
    let nl = generate(&RandomCircuitConfig {
        gates: 120,
        inputs: 20,
        seed: 99,
        ..RandomCircuitConfig::default()
    })
    .expect("valid random circuit");
    let config = AtpgConfig {
        fault_dropping: false,
        random_patterns: 16,
        seed: 99,
        ..AtpgConfig::default()
    };
    let baseline = AtpgCampaign::new(config).with_threads(1).run(&nl);
    let stormed = AtpgCampaign::new(config).with_threads(8).run(&nl);
    assert_eq!(
        stormed.result.detection_report(),
        baseline.result.detection_report()
    );
    assert_eq!(
        stormed.report.wasted_solves, 0,
        "nothing drops, nothing wasted"
    );
}
