//! Criterion microbenchmarks for the optimizer layer.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tuna_optimizer::smac::{SmacOptimizer, SmacParams};
use tuna_optimizer::{Objective, Solver};
use tuna_space::ConfigSpace;
use tuna_stats::rng::Rng;

fn pg_like_space() -> ConfigSpace {
    ConfigSpace::builder()
        .int_log("a", 16, 24_576)
        .int_log("b", 1, 1_024)
        .float("c", 1.0, 8.0)
        .float("d", 0.1, 2.0)
        .int("e", 10, 500)
        .categorical("f", &["x", "y", "z"])
        .boolean("g")
        .boolean("h")
        .build()
}

fn bench_smac_ask(c: &mut Criterion) {
    let mut group = c.benchmark_group("smac");
    group.sample_size(20);
    for &history in &[20usize, 100] {
        group.bench_with_input(
            BenchmarkId::new("ask_with_history", history),
            &history,
            |b, &history| {
                let space = pg_like_space();
                let mut opt =
                    SmacOptimizer::new(space.clone(), Objective::Minimize, SmacParams::default());
                let mut rng = Rng::seed_from(1);
                for _ in 0..history {
                    let s = opt.ask(&mut rng);
                    let cost = space.encode(&s.config).iter().sum::<f64>();
                    opt.tell(&s.config, cost, s.budget);
                }
                b.iter(|| black_box(opt.ask(&mut rng)))
            },
        );
    }
    group.finish();
}

fn bench_space_ops(c: &mut Criterion) {
    let space = pg_like_space();
    let mut rng = Rng::seed_from(2);
    let cfg = space.sample(&mut rng);
    c.bench_function("space/sample", |b| {
        b.iter(|| black_box(space.sample(&mut rng)))
    });
    c.bench_function("space/encode", |b| b.iter(|| black_box(space.encode(&cfg))));
    c.bench_function("space/neighbor", |b| {
        b.iter(|| black_box(space.neighbor(&cfg, &mut rng)))
    });
    c.bench_function("space/config_id", |b| b.iter(|| black_box(cfg.id())));
}

criterion_group!(benches, bench_smac_ask, bench_space_ops);
criterion_main!(benches);
