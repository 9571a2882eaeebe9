//! Hot-path microbenchmarks gated by CI (`scripts/check_perf.py`).
//!
//! Labels are part of the gate's contract: `experiments/
//! perf_baseline.json` keys on them, so renaming a benchmark here
//! requires regenerating the baseline (see README "Performance").
//! `calibration/spin_64k` is the machine-speed unit every other
//! benchmark is normalized against — it must stay a fixed pure-ALU
//! workload.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use nvm_chkpt::checksum::crc64;
use nvm_chkpt::PrecopyPolicy;
use nvm_perf::{
    analyze_events, buddy_store, calibration_spin, epoch_engine, epoch_step, fold_metrics,
    kv_drain_step, kv_mix_step, kv_store, merge_traces, merge_traces_sharded, payload,
    run_tiny_cluster, store_commit_restart_step, store_fixture, touched_rank_metrics,
    trace_buffers, traced_tiny_events, KV_MIX_OPS,
};

fn bench_calibration(c: &mut Criterion) {
    c.bench_function("calibration/spin_64k", |b| {
        b.iter(|| calibration_spin(black_box(64 * 1024)))
    });
}

fn bench_engine_epoch(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Bytes(4 << 20));
    for (label, policy) in [
        ("epoch_cpc", PrecopyPolicy::Cpc),
        ("epoch_dcpcp", PrecopyPolicy::Dcpcp),
    ] {
        g.bench_function(label, |b| {
            let (mut e, id) = epoch_engine(policy);
            b.iter(|| black_box(epoch_step(&mut e, id)))
        });
    }
    g.finish();
}

fn bench_rank_simulate(c: &mut Criterion) {
    c.bench_function("cluster/rank_simulate_loop", |b| {
        b.iter(|| black_box(run_tiny_cluster().total_time))
    });
}

fn bench_merges(c: &mut Criterion) {
    let mut g = c.benchmark_group("merge");
    let buffers = trace_buffers(48, 256);
    g.throughput(Throughput::Elements(48 * 256));
    g.bench_function("trace_merge_48x256", |b| {
        b.iter(|| black_box(merge_traces(black_box(buffers.clone()))))
    });
    let ranks = touched_rank_metrics(48);
    g.throughput(Throughput::Elements(48));
    g.bench_function("metrics_fold_48", |b| {
        b.iter(|| black_box(fold_metrics(black_box(&ranks))))
    });
    // The rank-scaling merge plan: 1024 per-rank buffers folded
    // through 32 shards (ceil(sqrt(1024))) — the coordinator cost
    // that must stay O(shards) as rank counts grow.
    let wide = trace_buffers(1024, 16);
    g.throughput(Throughput::Elements(1024 * 16));
    g.bench_function("trace_merge_sharded_1024x16", |b| {
        b.iter(|| black_box(merge_traces_sharded(black_box(wide.clone()), 32)))
    });
    g.finish();
}

fn bench_analyzer(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs");
    let events = traced_tiny_events();
    g.throughput(Throughput::Elements(events.len() as u64));
    g.bench_function("analyze_tiny_trace", |b| {
        b.iter(|| black_box(analyze_events(black_box(&events))))
    });
    g.finish();
}

fn bench_kv(c: &mut Criterion) {
    // The record log is append-only, so a store cannot be stepped
    // forever: recycle it for a fresh preloaded one before the log
    // outgrows the engine's chunk capacity. The rebuild lands inside
    // the timed region once every few thousand iterations, which is
    // noise next to the per-op cost being gated.
    const LOG_CAP_BYTES: u64 = 8 << 20;
    let mut g = c.benchmark_group("kv");
    g.throughput(Throughput::Elements(KV_MIX_OPS));
    g.bench_function("upsert_read_mix", |b| {
        let mut fixture = kv_store();
        b.iter(|| {
            if fixture.1.stats().log_bytes > LOG_CAP_BYTES {
                fixture = kv_store();
            }
            let (e, kv, session) = &mut fixture;
            black_box(kv_mix_step(e, kv, *session))
        })
    });
    g.throughput(Throughput::Elements(1));
    g.bench_function("checkpoint_drain", |b| {
        let mut fixture = kv_store();
        b.iter(|| {
            if fixture.1.stats().log_bytes > LOG_CAP_BYTES {
                fixture = kv_store();
            }
            let (e, kv, session) = &mut fixture;
            black_box(kv_drain_step(e, kv, *session))
        })
    });
    g.finish();
}

fn bench_buddy_fetch(c: &mut Criterion) {
    let mut g = c.benchmark_group("remote");
    let (store, _, chunk) = buddy_store(256 * 1024);
    g.throughput(Throughput::Bytes(256 * 1024));
    g.bench_function("buddy_fetch_256k", |b| {
        b.iter(|| black_box(store.fetch(black_box(0), chunk).expect("fetch")))
    });
    g.finish();
}

fn bench_checksum(c: &mut Criterion) {
    let mut g = c.benchmark_group("checksum");
    let data = payload(1 << 20);
    g.throughput(Throughput::Bytes(1 << 20));
    g.bench_function("crc64_1m", |b| b.iter(|| crc64(black_box(&data))));
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    // 4 MiB committed + 4 MiB restored per iteration.
    g.throughput(Throughput::Bytes(8 << 20));
    g.bench_function("commit_restart_4m", |b| {
        let mut fx = store_fixture();
        b.iter(|| black_box(store_commit_restart_step(&mut fx)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_calibration,
    bench_engine_epoch,
    bench_rank_simulate,
    bench_merges,
    bench_analyzer,
    bench_kv,
    bench_buddy_fetch,
    bench_checksum,
    bench_store
);
criterion_main!(benches);
