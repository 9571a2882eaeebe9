//! The crash-consistency sweep: crash the standard scripted run at
//! every media-operation boundary — clean cuts, dropped unsynced
//! writes, and torn prefixes at every byte of every write — and
//! require recovery to produce exactly the last durable epoch,
//! bit-for-bit, or a clean "no checkpoint".

use nvm_store::{
    check_crash_point, enumerate_points_exhaustive, expected_mark, standard_run, CrashMode,
    CrashPoint,
};
use proptest::prelude::*;

#[test]
fn exhaustive_sweep_over_every_crash_boundary() {
    let run = standard_run();
    assert!(
        run.marks.len() >= 4,
        "the standard run must commit at least 4 epochs (got {})",
        run.marks.len()
    );
    let points = enumerate_points_exhaustive(&run.ops);
    // Sanity: the sweep is genuinely dense — well beyond one point
    // per operation.
    assert!(
        points.len() > 2 * run.ops.len(),
        "sweep unexpectedly sparse: {} points for {} ops",
        points.len(),
        run.ops.len()
    );
    for point in &points {
        check_crash_point(&run, point);
    }
}

#[test]
fn every_epoch_is_reachable_as_a_recovery_outcome() {
    // The sweep is only meaningful if crash points actually land in
    // every epoch's window: check the oracle maps some point to each
    // committed epoch and one to the virgin (None) state.
    let run = standard_run();
    let mut seen = std::collections::BTreeSet::new();
    for at_op in 0..=run.ops.len() {
        let p = CrashPoint {
            at_op,
            mode: CrashMode::Keep,
        };
        seen.insert(expected_mark(&run.marks, &p).map(|m| m.epoch));
    }
    assert!(
        seen.contains(&None),
        "a pre-commit crash must recover to virgin"
    );
    for mark in &run.marks {
        assert!(
            seen.contains(&Some(mark.epoch)),
            "no crash point recovers to epoch {}",
            mark.epoch
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_crash_points_recover_to_the_oracle(
        at_op in 0usize..512,
        mode_sel in 0u8..3,
        keep in 0usize..65536,
    ) {
        let run = standard_run();
        check_crash_point(&run, &CrashPoint::pick(&run.ops, at_op, mode_sel, keep));
    }
}
