//! The engine and its container run in lockstep with the one model of
//! committed bytes ([`harness`]): random histories under every pre-copy
//! policy, on RAM or spilled devices, with and without a store, with
//! restarts from the device, the store or a buddy's images, crashes of
//! the container's media and faulted checkpoints. The named properties
//! the pre-copy schemes must keep are in `precopy_invariants.rs`.

#[path = "lockstep/harness.rs"]
mod harness;

use harness::{every_policy, ops, Op, BACKINGS};
use nvm_chkpt::Versioning;
use proptest::prelude::*;

#[test]
fn a_grow_or_delete_before_the_next_commit_comes_back_from_the_store_only() {
    // Committed `c0` grows, then `c1` alone commits: the store drops
    // the grown `c0` from that record as the device does. Then `c2`
    // grows and the process dies before a commit: the store's last
    // record still holds it as committed, the device no longer does.
    let ops = [(6, 0, 0, 0), (8, 0, 7, 0), (7, 1, 0, 0), (8, 2, 9, 0)];
    for source in [0, 1, 2] {
        let restart = (9, 0, source, 0);
        let ops: Vec<Op> = ops.iter().copied().chain([restart, (6, 0, 0, 0)]).collect();
        every_policy(Versioning::Double, &BACKINGS, &ops).unwrap();
    }
}

#[test]
fn a_torn_record_over_the_bytes_of_an_older_torn_one_is_no_commit() {
    // A record torn one byte short is rolled back to the one before;
    // the next, shorter (`c1` is deleted), lands on its bytes, and is
    // torn too. Its body is whole and its length covered by the older
    // bytes: only its CRC tells that it never completed.
    const TORN: Op = (10, 0, 2, u16::MAX - 1);
    const ALL: Op = (6, 0, 0, 0);
    let ops = [ALL, ALL, TORN, (8, 1, 0, 1), ALL, TORN];
    every_policy(Versioning::Double, &[(false, true)], &ops).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engine_commits_what_the_model_commits_under_every_policy_backing_and_store(ops in ops(12)) {
        let outcome = every_policy(Versioning::Double, &BACKINGS, &ops);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// Half the ops are faulted checkpoints, on spilled devices.
    #[test]
    fn a_failed_checkpoint_rolls_back_to_the_previous_commit(ops in ops(24)) {
        let outcome = every_policy(Versioning::Double, &[(true, false), (true, true)], &ops);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}
