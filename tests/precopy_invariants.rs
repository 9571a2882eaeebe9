//! Properties of the checkpoint engine that no pre-copy scheme may
//! change, each a proptest over the engine run in lockstep with the one
//! model of committed bytes (`lockstep/harness.rs`).
//!
//! The paper's pre-copy schemes are *performance* optimizations: they
//! change when bytes move, never what a checkpoint contains. Every
//! history in `lockstep.rs` already checks the model and the clock at
//! each step; `policies_commit_identical_content` and
//! `virtual_time_is_monotone` keep those checks under their own names.

#[path = "lockstep/harness.rs"]
mod harness;

use harness::{every_policy, ops, run_history, Lockstep, Op, BACKINGS};
use nvm_chkpt::{EngineConfig, Versioning};
use proptest::prelude::*;

/// The op kinds below this one write, compute, commit, grow, delete
/// and re-allocate: no restart, crash or fault.
const CRASH_FREE: u8 = 9;
const CHECKPOINT_ALL: Op = (6, 0, 0, 0);

fn fail(e: impl std::fmt::Display) -> TestCaseError {
    TestCaseError(e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every pre-copy policy commits the model's content for the same
    /// history, so each commits what the others do.
    #[test]
    fn policies_commit_identical_content(ops in ops(CRASH_FREE)) {
        let outcome = every_policy(Versioning::Double, &[(false, false)], &ops);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// After any history ending in `nvchkptall`, each chunk's committed
    /// bytes equal its working copy: nothing is torn or stale.
    #[test]
    fn checkpoint_commits_working_copy(mut ops in ops(12)) {
        ops.push(CHECKPOINT_ALL);
        let world = Lockstep::new(EngineConfig::default(), false, true);
        let mut world = run_history(world, &ops).map_err(fail)?;
        for (&id, want) in &world.model.working {
            let committed = world.engine.committed_bytes(id).map_err(fail)?;
            let mut working = vec![0u8; committed.len()];
            world.engine.read(id, 0, &mut working).map_err(fail)?;
            prop_assert!(committed == working && &working == want, "{:?}", id);
        }
    }

    /// A restart after any history — from the device, the store or a
    /// buddy's images, eager, parallel or lazy — recovers the last
    /// commit byte for byte, including the chunks a lazy restart defers.
    #[test]
    fn restart_recovers_last_commit(
        mut ops in ops(12),
        (strategy, source) in (0usize..3, any::<u16>()),
    ) {
        ops.push((9, strategy, source, 0));
        for (spilled, store) in BACKINGS {
            let world = Lockstep::new(EngineConfig::default(), spilled, store);
            let mut world = run_history(world, &ops).map_err(fail)?;
            for (&id, want) in &world.model.working {
                let mut got = vec![0u8; want.len()];
                world.engine.read(id, 0, &mut got).map_err(fail)?;
                prop_assert!(&got == want, "{:?} spilled={} store={}", id, spilled, store);
            }
        }
    }

    /// Single versioning commits what double versioning commits on a
    /// crash-free history: the model's bytes, under every policy.
    #[test]
    fn single_versioning_matches_double(ops in ops(CRASH_FREE)) {
        for versioning in [Versioning::Double, Versioning::Single] {
            let outcome = every_policy(versioning, &[(false, false), (true, true)], &ops);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    /// The clock never runs backwards, whatever the history does:
    /// `Lockstep::step` fails a history whose clock does.
    #[test]
    fn virtual_time_is_monotone(ops in ops(24)) {
        let world = Lockstep::new(EngineConfig::default(), true, true);
        run_history(world, &ops).map_err(fail)?;
    }
}
