//! `tune_mssales`: the paper's headline workload. For each seed of the
//! set, `Experiment::paper_default(mssales())` tunes with TUNA+SMAC and
//! deploys, then Traditional+SMAC does the same, on two executor threads.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::convert::Infallible;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

use tuna_cloudsim::Cluster;
use tuna_core::adjuster::{AdjusterConfig, NoiseAdjuster};
use tuna_core::executor::ExecutionMode;
use tuna_core::experiment::{Experiment, Method, RunSummary};
use tuna_core::sample::Sample;
use tuna_ml::forest::RandomForest;
use tuna_ml::Regressor;
use tuna_optimizer::smac::SmacParams;
use tuna_optimizer::History;
use tuna_space::{ConfigId, ConfigSpace};
use tuna_stats::rng::{hash_combine, Rng};
use tuna_stats::summary;

use crate::protocol::{fingerprint, run_traced, Probes, TuningCapture};
use crate::trace::{self, nanos_since, now, span, SutRun};
use crate::{fastest_setup, median, passes, Args, Outcome};

/// Tuning runs (seeds) per set, as in the paper's protocol.
const SEEDS_PER_SET: u64 = 3;

/// Nominal seconds per TUNA pass over the seed set on the 2-core
/// benchmark machine. A seed's TUNA time is its fastest pass: other
/// tenants of the machine only ever slow a run (the same seed set took
/// 4.7 to 6.6 s per run within one hour). At `--seconds` 30 a run makes
/// two passes and lasts about 35 s.
const PASS_S: f64 = 15.0;

/// The seed set of `--seed n`: `100 * (n / 1000) + i` for
/// `i < SEEDS_PER_SET`. A TUNA run's cost depends on its seed (3 to 6.5 s
/// per run), by far more than any bound could absorb, so tuning runs are
/// compared on fixed seed sets: `--seed` 0–999 all select the default set
/// {0, 1, 2}, and each further thousand selects a held-out set.
fn seed_set(seed: u64) -> Vec<u64> {
    (0..SEEDS_PER_SET)
        .map(|i| 100 * (seed / 1000) + i)
        .collect()
}

fn experiment() -> Experiment {
    let mut exp = Experiment::paper_default(tuna_workloads::mssales());
    exp.exec = ExecutionMode::Parallel { workers: 2 };
    exp
}

/// Builds everything a tuning run starts from: the experiment, its SuT
/// and each seed's tuning cluster.
fn setup(seeds: &[u64]) -> f64 {
    let t = now();
    let exp = experiment();
    let sut = exp.make_sut();
    for &seed in seeds {
        black_box(Cluster::new(
            exp.cluster_size,
            exp.sku.clone(),
            exp.region.clone(),
            hash_combine(seed, 0xE0_0001),
        ));
    }
    black_box((&exp, sut.space().len()));
    nanos_since(t) as f64 / 1e9
}

/// The fastest of one block of set-ups.
fn setup_block(seeds: &[u64]) -> f64 {
    let Ok(secs) = fastest_setup(|| Ok::<_, Infallible>(setup(seeds)));
    secs
}

/// Sanity of one run's outputs (used when no reference run exists).
fn check_run(out: &mut Outcome, exp: &Experiment, run: &RunSummary, seed: u64) {
    let Some(tuning) = &run.tuning else {
        out.check(
            false,
            format!("seed {seed} {}: no tuning result", run.method),
        );
        return;
    };
    let budget = if run.method == Method::Tuna.name() {
        exp.rounds * exp.cluster_size
    } else {
        exp.rounds
    };
    out.check(
        tuning.total_samples >= budget,
        format!(
            "seed {seed} {}: {} samples < {budget}",
            run.method, tuning.total_samples
        ),
    );
    let d = &run.deployment;
    out.check(
        d.values.len() == exp.deploy_vms * exp.deploy_repeats
            && d.values.iter().all(|v| v.is_finite() && *v > 0.0),
        format!("seed {seed} {}: malformed deployment values", run.method),
    );
}

/// One seed's TUNA and traditional runs.
struct SeedRun {
    seed: u64,
    tuna: RunSummary,
    /// Wall time of the TUNA run: the fastest of its passes.
    tuna_s: f64,
    trad: RunSummary,
}

/// Times one TUNA run. A panicking run counts as failed.
fn timed_tuna(out: &mut Outcome, exp: &Experiment, seed: u64) -> Option<(RunSummary, f64)> {
    out.attempted += 1;
    let t = now();
    let run = catch_unwind(AssertUnwindSafe(|| exp.run(Method::Tuna, seed)));
    let secs = nanos_since(t) as f64 / 1e9;
    match run {
        Ok(run) => Some((run, secs)),
        Err(_) => {
            out.failed += 1;
            None
        }
    }
}

/// The untraced passes over the seed set, with a block of set-ups before
/// each TUNA run. The first pass also runs Traditional; later passes
/// rerun TUNA, which must reproduce the first pass bit for bit. Returns
/// the runs and the first pass's wall time.
fn untraced_passes(
    out: &mut Outcome,
    exp: &Experiment,
    seeds: &[u64],
    passes: usize,
    setups: &mut Vec<f64>,
) -> (Vec<SeedRun>, f64) {
    let mut runs = Vec::new();
    let t = now();
    for &seed in seeds {
        setups.push(setup_block(seeds));
        let tuna = timed_tuna(out, exp, seed);
        out.attempted += 1;
        let trad = catch_unwind(AssertUnwindSafe(|| exp.run(Method::Traditional, seed)));
        match (tuna, trad) {
            (Some((tuna, tuna_s)), Ok(trad)) => runs.push(SeedRun {
                seed,
                tuna,
                tuna_s,
                trad,
            }),
            (_, trad) => out.failed += u64::from(trad.is_err()),
        }
    }
    let first_pass_s = nanos_since(t) as f64 / 1e9;
    for _ in 1..passes {
        for run in &mut runs {
            setups.push(setup_block(seeds));
            if let Some((again, secs)) = timed_tuna(out, exp, run.seed) {
                out.check(
                    fingerprint(&again) == fingerprint(&run.tuna),
                    format!("seed {}: TUNA rerun differs", run.seed),
                );
                run.tuna_s = run.tuna_s.min(secs);
            }
        }
    }
    (runs, first_pass_s)
}

fn pooled<'a>(runs: impl Iterator<Item = &'a RunSummary>) -> Vec<f64> {
    runs.flat_map(|r| r.deployment.values.iter().copied())
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seeds = seed_set(args.seed);
    let exp = experiment();

    let mut setups = Vec::new();
    let (runs, untraced_s) =
        untraced_passes(&mut out, &exp, &seeds, passes(args, PASS_S), &mut setups);
    out.set(
        "setup_s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
    );
    for run in &runs {
        check_run(&mut out, &exp, &run.tuna, run.seed);
        check_run(&mut out, &exp, &run.trad, run.seed);
    }
    let tuna_times: Vec<f64> = runs.iter().map(|r| r.tuna_s).collect();
    out.set(
        "throughput_per_s",
        tuna_times.len() as f64 / tuna_times.iter().sum::<f64>(),
    );
    out.note("tune_s", summary::mean(&tuna_times), "s");

    // Deployed quality, pooled over the set: mssales reports runtime, so
    // traditional / TUNA above 1 means TUNA deployed the faster config.
    let tuna_values = pooled(runs.iter().map(|r| &r.tuna));
    let trad_values = pooled(runs.iter().map(|r| &r.trad));
    if !tuna_values.is_empty() {
        out.note(
            "speedup_vs_traditional",
            summary::mean(&trad_values) / summary::mean(&tuna_values),
            "ratio",
        );
        out.note(
            "std_ratio_vs_traditional",
            summary::std_dev(&trad_values) / summary::std_dev(&tuna_values),
            "ratio",
        );
    }
    out.note(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );

    if args.trace {
        traced(&mut out, &exp, &seeds, &runs, untraced_s);
    }
    Ok(out)
}

/// The traced pass: the same seed set through the reconstruction, which
/// must match the untraced runs bit for bit.
fn traced(out: &mut Outcome, exp: &Experiment, seeds: &[u64], runs: &[SeedRun], untraced_s: f64) {
    if runs.len() != seeds.len() {
        out.check(
            false,
            "untraced pass failed; no reference for the traced pass",
        );
        return;
    }
    let probes = Probes {
        capture_tuning: true,
        ..Probes::default()
    };
    trace::take_spans();
    let mut adjuster = AdjusterReplay::default();
    let mut replay_ns = 0;
    let t = now();
    for run in runs {
        let seed = run.seed;
        out.attempted += 2;
        {
            let _root = span("bench.tune_mssales");
            for (method, reference) in [(Method::Tuna, &run.tuna), (Method::Traditional, &run.trad)]
            {
                match catch_unwind(AssertUnwindSafe(|| run_traced(exp, method, seed, &probes))) {
                    Ok(traced) => out.check(
                        fingerprint(&traced) == fingerprint(reference),
                        format!(
                            "seed {seed} {}: traced run differs from Experiment::run",
                            method.name()
                        ),
                    ),
                    Err(_) => out.failed += 1,
                }
            }
        }
        // The noise adjuster, replayed over the samples this seed's TUNA
        // run fed it: right after the run, so both see the machine in the
        // same state, and outside the traced time.
        let r = now();
        let captures =
            std::mem::take(&mut *probes.tuning.lock().expect("tuning captures poisoned"));
        replay_adjuster(out, &captures, seed, &mut adjuster);
        replay_ns += nanos_since(r);
    }
    let traced_ns = nanos_since(t) - replay_ns;
    let traced_s = traced_ns as f64 / 1e9;
    let spans = trace::take_spans();
    let layers = trace::layers(&spans);
    let get = |name: &str| layers.get(name).cloned().unwrap_or_default();

    // One thread opens spans here.
    probes.report(out, &layers, traced_ns);
    let propose = get("optimizer.propose");
    out.set("optimizer.propose.calls", propose.calls as f64);
    out.set("optimizer.propose.busy_s", propose.busy_s());
    out.set("optimizer.propose.p99_ms", propose.quantile_s(0.99) * 1e3);
    let pipeline = get("core.pipeline");

    out.set("core.adjuster.trains", adjuster.trains as f64);
    out.set("core.adjuster.train.busy_s", adjuster.train_ns as f64 / 1e9);
    out.set(
        "core.adjuster.adjust.busy_s",
        adjuster.adjust_ns as f64 / 1e9,
    );

    // The tuning-run profile: random-forest work — SMAC's proposer plus
    // the noise adjuster's forest training and inference — is >= 90% of
    // TUNA tuning wall. The proposer's share alone is reported, not
    // asserted: it is well under the ~99.9% the smac-vs-random comparison
    // suggested (see README).
    let propose_in_tuna: u64 = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            s.name == "optimizer.propose" && trace::has_ancestor(&spans, *i, "core.pipeline")
        })
        .map(|(_, s)| s.dur())
        .sum();
    let tuning_s = pipeline.busy_s();
    let propose_share = propose_in_tuna as f64 / 1e9 / tuning_s;
    let adjuster_share = (adjuster.train_ns + adjuster.adjust_ns) as f64 / 1e9 / tuning_s;
    out.set("optimizer.propose.share_of_tuning", propose_share);
    out.set("core.adjuster.share_of_tuning", adjuster_share);
    out.check(
        propose_share + adjuster_share >= 0.90,
        format!(
            "proposer + noise adjuster are {:.1}% of TUNA tuning wall, expected >= 90%",
            (propose_share + adjuster_share) * 100.0
        ),
    );

    // Replay the captured histories through the surrogate layer.
    let histories = std::mem::take(
        &mut *probes
            .captured
            .histories
            .lock()
            .expect("capture list poisoned"),
    );
    let space = exp.make_sut().space().clone();
    let replay = replay(&histories, &space, &exp.smac, seeds[0]);
    out.set("ml.replay.histories", histories.len() as f64);
    out.set(
        "optimizer.surrogate_data.busy_s",
        replay.surrogate_ns as f64 / 1e9,
    );
    let fits: Vec<f64> = replay.fit_ns.iter().map(|&n| n as f64 / 1e9).collect();
    out.set("ml.forest_fit.busy_s", fits.iter().sum());
    out.set("ml.forest_fit.p50_ms", median(&fits) * 1e3);
    out.set("ml.predict.busy_s", replay.predict_ns as f64 / 1e9);

    out.set("trace.traced_s", traced_s);
    out.set("trace.untraced_s", untraced_s);
    out.set("trace.overhead_s", traced_s - untraced_s);
}

struct Replay {
    surrogate_ns: u64,
    fit_ns: Vec<u64>,
    predict_ns: u64,
}

/// Times `History::surrogate_data`, `RandomForest::fit` and
/// `predict_stats` over a SMAC-sized candidate pool for each captured
/// history, as `SmacProposer::propose` runs them.
fn replay(histories: &[History], space: &ConfigSpace, params: &SmacParams, seed: u64) -> Replay {
    let mut rng = Rng::seed_from(hash_combine(seed, 0x5E_91A7));
    let mut r = Replay {
        surrogate_ns: 0,
        fit_ns: Vec::with_capacity(histories.len()),
        predict_ns: 0,
    };
    for history in histories {
        let t = now();
        let (x, y) = history.surrogate_data(space);
        r.surrogate_ns += nanos_since(t);

        let mut forest = RandomForest::new(params.forest);
        let t = now();
        let fitted = forest.fit(&x, &y, &mut rng.fork(history.len() as u64));
        r.fit_ns.push(nanos_since(t));
        if fitted.is_err() {
            continue;
        }

        let mut candidates: Vec<_> = (0..params.n_random_candidates)
            .map(|_| space.sample(&mut rng))
            .collect();
        for rec in history.top_k(params.top_k_incumbents) {
            candidates.extend(space.neighbors(&rec.config, params.n_neighbors, &mut rng));
        }
        let encoded: Vec<Vec<f64>> = candidates.iter().map(|c| space.encode(c)).collect();
        let t = now();
        for row in &encoded {
            black_box(forest.predict_stats(row));
        }
        r.predict_ns += nanos_since(t);
    }
    r
}

/// Noise-adjuster time over the captured TUNA runs.
#[derive(Default)]
struct AdjusterReplay {
    train_ns: u64,
    adjust_ns: u64,
    trains: u64,
}

/// Adds to `r` the time of feeding each captured TUNA run's tuning
/// samples to a fresh `NoiseAdjuster` as `TunaPipeline::step` does,
/// round by round from the run's trace: `adjust` every sample of the
/// round's config, and the first time a stable config reaches the
/// ladder's top budget, `adjust` its clean samples again (the model-error
/// pass) and `train_on_config`. The forests draw other bootstrap samples
/// than the pipeline's, whose rng state is not visible, so the times
/// match in size, not bit for bit. Checks that the replay consumes every
/// captured run and trains exactly where the pipeline recorded a model
/// error.
fn replay_adjuster(
    out: &mut Outcome,
    captures: &[TuningCapture],
    seed: u64,
    r: &mut AdjusterReplay,
) {
    let mut rng = Rng::seed_from(hash_combine(seed, 0xAD_1057));
    for (i, cap) in captures.iter().enumerate() {
        let cfg = &cap.config;
        let mut adjuster = NoiseAdjuster::new(AdjusterConfig::paper_default(cfg.cluster_size));
        let mut pending: BTreeMap<ConfigId, VecDeque<&SutRun>> = BTreeMap::new();
        for run in &cap.runs {
            pending.entry(run.config).or_default().push_back(run);
        }
        let mut samples: BTreeMap<ConfigId, Vec<Sample>> = BTreeMap::new();
        let mut trained = BTreeSet::new();
        let mut model_errors = 0;
        for rec in &cap.trace {
            let queue = pending.entry(rec.config_id).or_default();
            let config_samples = samples.entry(rec.config_id).or_default();
            for run in queue.drain(..rec.new_samples.min(queue.len())) {
                let o = &run.outcome;
                let raw = if o.crashed {
                    cap.crash_penalty
                } else {
                    o.value
                };
                let machine = run.machine as usize % cfg.cluster_size;
                config_samples.push(Sample::new(machine, raw, o.metrics.clone(), o.crashed));
            }
            let t = now();
            for s in config_samples.iter() {
                black_box(adjuster.adjust(s, rec.unstable));
            }
            r.adjust_ns += nanos_since(t);

            let at_max = config_samples.len() >= cfg.ladder.max_budget();
            if at_max && !rec.unstable && trained.insert(rec.config_id) {
                let t = now();
                let mut clean_n = 0;
                for s in config_samples.iter().filter(|s| !s.crashed) {
                    black_box(adjuster.adjust(s, false));
                    clean_n += 1;
                }
                r.adjust_ns += nanos_since(t);
                model_errors += usize::from(clean_n >= 2);
                let t = now();
                adjuster.train_on_config(config_samples, &mut rng);
                r.train_ns += nanos_since(t);
                r.trains += 1;
            }
        }
        out.check(
            pending.values().all(VecDeque::is_empty),
            format!("adjuster replay {i}: captured runs left unused"),
        );
        let recorded = cap
            .trace
            .iter()
            .filter(|rec| rec.model_error.is_some())
            .count();
        out.check(
            model_errors == recorded,
            format!(
                "adjuster replay {i}: {model_errors} model-error passes, pipeline recorded {recorded}"
            ),
        );
    }
}
