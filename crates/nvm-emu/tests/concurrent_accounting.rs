//! Bandwidth/statistics accounting under concurrent charge calls.
//!
//! ClusterSim executes ranks on a worker pool; every rank charges
//! write/read costs against its node's shared [`MemoryDevice`]. These
//! tests pin down the property that makes parallel rank execution
//! bit-identical to serial: per-operation costs are functions of
//! (length, concurrency, model) only, and the device statistics are
//! commutative sums, so neither depends on the order in which
//! concurrent threads win the device lock.

use nvm_emu::{MemoryDevice, SimDuration};
use std::thread;

const MB: usize = 1 << 20;
const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 16;

/// Per-thread write length: distinct per thread so an ordering bug in
/// the accounting would actually change per-op costs.
fn write_len(thread: usize, op: usize) -> usize {
    (thread + 1) * 64 * 1024 + op * 4096
}

#[test]
fn concurrent_charges_match_serial_reference() {
    let run = |concurrent: bool| -> (nvm_emu::DeviceStats, Vec<Vec<SimDuration>>) {
        let dev = MemoryDevice::pcm(256 * MB);
        let regions: Vec<_> = (0..THREADS)
            .map(|_| dev.alloc_synthetic(4 * MB).unwrap())
            .collect();
        let work = |t: usize| {
            let dev = dev.clone();
            let id = regions[t];
            move || {
                let mut costs = Vec::with_capacity(OPS_PER_THREAD);
                for op in 0..OPS_PER_THREAD {
                    let len = write_len(t, op);
                    costs.push(dev.write_synthetic(id, 0, len, THREADS).unwrap());
                    dev.lock().charge_read(id, 0, len / 2, THREADS).unwrap();
                }
                costs
            }
        };
        let costs: Vec<Vec<SimDuration>> = if concurrent {
            thread::scope(|s| {
                let handles: Vec<_> = (0..THREADS).map(|t| s.spawn(work(t))).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        } else {
            (0..THREADS).map(|t| work(t)()).collect()
        };
        (dev.stats(), costs)
    };

    let (serial_stats, serial_costs) = run(false);
    let (conc_stats, conc_costs) = run(true);

    // Charged costs are pure functions of (len, concurrency, model):
    // every thread sees the same durations in both schedules.
    assert_eq!(serial_costs, conc_costs);

    // Statistics are commutative sums; lock-acquisition order must not
    // show through.
    assert_eq!(serial_stats, conc_stats);

    // Totals are the expected closed-form sums, not just self-consistent.
    let expected_written: u64 = (0..THREADS)
        .flat_map(|t| (0..OPS_PER_THREAD).map(move |op| write_len(t, op) as u64))
        .sum();
    assert_eq!(conc_stats.bytes_written, expected_written);
    assert_eq!(conc_stats.write_ops, (THREADS * OPS_PER_THREAD) as u64);
    assert_eq!(conc_stats.read_ops, (THREADS * OPS_PER_THREAD) as u64);
}
