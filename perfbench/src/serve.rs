//! `serve`: a live `Server` over a real runtime under an open loop.
//!
//! Poisson arrivals at two fixed rates, `low` (0.6x tier-0 capacity) and
//! `over` (1.3x), each for half the window, with the serving-bench class mix
//! (critical / standard / background with quality ladders) and 30 per mille
//! injected task panics. Requests are timed from their scheduled arrival.
//!
//! An operation and an item are one request. Latency figures come from the
//! server's own latency sketch, per 2-second window, and are reported as
//! medians over windows.
//!
//! The end-to-end figures are the `over` phase's, where admission control
//! holds latency to its queue watermark. The `low` phase's latencies are
//! printed by name but not used end to end: at 0.6x load the tail measures
//! host stalls more than the server, and on the 2-core host this benchmark
//! was built on, its per-run p99 moved between about 6 and 12 ms.

use std::time::{Duration, Instant};

use sig_core::{FaultPlan, PowerModel, Runtime, SignificanceLadderGovernor};
use sig_serving::{
    ArrivalPattern, QualityTier, RequestClass, RetryPolicy, Server, ServerConfig, ServingStats,
    SplitMix64,
};

use crate::plan::ThreadPlan;
use crate::report::{EndToEnd, Outcome};
use crate::stats;
use crate::trace::Tracer;
use crate::{micro, Config};

/// Tier-0 service time of one request.
const BASE_WORK: Duration = Duration::from_millis(1);
const LOW: f64 = 0.6;
const OVER: f64 = 1.3;
const PANIC_PER_MILLE: u16 = 30;
const LADDER_STEPS: usize = 4;
const LADDER_FLOOR: f64 = 0.4;
/// Requests offered at the low rate during setup, so lazy start-up is paid
/// before timing.
const WARMUP_REQUESTS: usize = 200;
/// Each phase runs as windows of this length, each on a fresh `Server`
/// that drains before the next; figures are medians over windows, so one
/// disturbed window does not move them.
const WINDOW_SECONDS: f64 = 2.0;

/// The serving-bench class mix: critical 1.0 (single tier), standard 0.7
/// and background 0.3 with three-rung quality ladders.
pub fn classes(service: Duration) -> Vec<RequestClass> {
    let deadline = service * 20;
    let retry = RetryPolicy {
        max_retries: 2,
        base_backoff: service / 4,
        jitter: 0.3,
    };
    let ladder = |significance: f64| {
        [(1.0, 1.0), (0.6, 0.5), (0.3, 0.25)]
            .iter()
            .map(|&(scale, work_factor)| QualityTier {
                significance: significance * scale,
                work_factor,
            })
            .collect()
    };
    vec![
        RequestClass::exact("critical", 1.0, deadline, retry),
        RequestClass {
            name: "standard".into(),
            tiers: ladder(0.7),
            deadline,
            retry,
        },
        RequestClass {
            name: "background".into(),
            tiers: ladder(0.3),
            deadline,
            retry,
        },
    ]
}

/// Poisson arrivals at `rate` with a ~20/50/30% class mix.
pub fn schedule(rate: f64, count: usize, seed: u64) -> Vec<(u64, usize)> {
    let offsets = ArrivalPattern::Poisson { rate_per_sec: rate }.schedule(seed, count);
    let mut rng = SplitMix64::new(seed ^ 0xc1a5_5e5e_ed00_0003);
    offsets
        .into_iter()
        .map(|at| {
            let class = match rng.next_u64() % 10 {
                0 | 1 => 0,
                2..=6 => 1,
                _ => 2,
            };
            (at, class)
        })
        .collect()
}

fn runtime(seed: u64, workers: usize) -> Runtime {
    Runtime::builder()
        .workers(workers)
        .energy_model(PowerModel::for_host())
        .governor(SignificanceLadderGovernor::with_ladder(
            LADDER_STEPS,
            LADDER_FLOOR,
        ))
        .fault_plan(FaultPlan::new(seed).panics(PANIC_PER_MILLE))
        .build()
}

fn server_config(seed: u64) -> ServerConfig {
    ServerConfig {
        base_work: BASE_WORK,
        seed,
        ..ServerConfig::default()
    }
}

struct Prepared {
    runtime: Runtime,
    classes: Vec<RequestClass>,
    /// Arrival schedules of the `low` and `over` windows.
    low: Vec<Vec<(u64, usize)>>,
    over: Vec<Vec<(u64, usize)>>,
}

/// `count` one-window schedules at `rate`, each seeded apart.
fn windows(rate: f64, count: usize, seed: u64) -> Vec<Vec<(u64, usize)>> {
    let requests = (rate * WINDOW_SECONDS) as usize;
    (0..count as u64)
        .map(|w| {
            schedule(
                rate,
                requests,
                seed ^ (w + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            )
        })
        .collect()
}

fn prepare(config: &Config, workers: usize) -> Prepared {
    let capacity = workers as f64 / BASE_WORK.as_secs_f64();
    let per_phase = ((config.seconds / 2.0 / WINDOW_SECONDS).round() as usize).max(1);
    let prepared = Prepared {
        runtime: runtime(config.seed, workers),
        classes: classes(BASE_WORK),
        low: windows(capacity * LOW, per_phase, config.seed),
        over: windows(capacity * OVER, per_phase, config.seed ^ 0x0f3e),
    };
    let warmup = schedule(capacity * LOW, WARMUP_REQUESTS, config.seed ^ 0x3a3a);
    Server::new(
        &prepared.runtime,
        prepared.classes.clone(),
        server_config(config.seed),
    )
    .run(&warmup);
    prepared
}

/// One phase's results.
struct Phase {
    stats: ServingStats,
    wall: f64,
    joules: [f64; 4],
    transitions: u64,
    scaled: u64,
}

/// What the traced offer/poll loop saw.
#[derive(Default)]
struct Driven {
    lags_us: Vec<f64>,
    in_flight: Vec<f64>,
}

/// Offer `schedule` through `Server::offer`/`poll` from this thread, the
/// way `Server::run` does, recording spans and the generator's lag.
fn drive(
    server: &mut Server<'_>,
    schedule: &[(u64, usize)],
    tracer: &mut Tracer,
    driven: &mut Driven,
) {
    let poll_interval = ServerConfig::default().poll_interval;
    let mut next = 0;
    while next < schedule.len() {
        let now = server.now_nanos();
        while next < schedule.len() && schedule[next].0 <= now {
            let (due, class) = schedule[next];
            let lag = server.now_nanos().saturating_sub(due);
            tracer.span("server.offer", || server.offer(class));
            driven.lags_us.push(lag as f64 / 1e3);
            next += 1;
        }
        tracer.span("server.poll", || server.poll());
        driven.in_flight.push(server.in_flight() as f64);
        if next < schedule.len() {
            let wait = schedule[next].0.saturating_sub(server.now_nanos());
            let wait = Duration::from_nanos(wait).min(poll_interval);
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
    }
    while server.in_flight() > 0 {
        tracer.span("server.poll", || server.poll());
        driven.in_flight.push(server.in_flight() as f64);
        std::thread::sleep(poll_interval);
    }
}

fn phase(
    prepared: &Prepared,
    seed: u64,
    schedule: &[(u64, usize)],
    driven: Option<(&mut Tracer, &mut Driven)>,
    outcome: &mut Outcome,
) -> Phase {
    let rt = &prepared.runtime;
    let before = crate::joules(rt);
    let report = rt.energy_report();
    let (transitions, scaled) = (report.frequency_transitions(), report.scaled_tasks());
    let start = Instant::now();
    let mut server = Server::new(rt, prepared.classes.clone(), server_config(seed));
    let stats = match driven {
        None => server.run(schedule).clone(),
        Some((tracer, driven)) => {
            drive(&mut server, schedule, tracer, driven);
            server.stats().clone()
        }
    };
    let wall = start.elapsed().as_secs_f64();
    let after = crate::joules(rt);
    let report = rt.energy_report();
    // Every offered request ends completed, violated or shed: none is lost.
    let lost = stats.offered as i64 - (stats.completed + stats.violations() + stats.shed) as i64;
    let outcomes = rt.outcomes();
    let tasks_balanced = outcomes.spawned
        == outcomes.completed + outcomes.cancelled + outcomes.panicked + outcomes.shed;
    outcome.attempted += stats.offered;
    if lost != 0 || !tasks_balanced || stats.offered != schedule.len() as u64 {
        outcome.failed += lost.unsigned_abs().max(1);
        outcome.failures.push(format!(
            "{} offered of {}, {lost} lost; runtime outcomes {outcomes:?}",
            stats.offered,
            schedule.len()
        ));
    }
    Phase {
        joules: std::array::from_fn(|i| after[i] - before[i]),
        transitions: report.frequency_transitions() - transitions,
        scaled: report.scaled_tasks() - scaled,
        stats,
        wall,
    }
}

/// Median over windows of `figure`.
fn median_of(phases: &[Phase], figure: impl Fn(&Phase) -> f64) -> f64 {
    let values: Vec<f64> = phases.iter().map(figure).collect();
    stats::median(&values).map_or(0.0, |p| p.value)
}

/// The tail percentile every window of `phases` can report: the one the
/// window with the fewest samples allows.
fn tail_pct(phases: &[Phase]) -> f64 {
    let fewest = phases.iter().map(|p| p.stats.latency.count()).min();
    stats::tail_pct(fewest.unwrap_or(0) as usize)
}

fn ms_at(phase: &Phase, pct: f64) -> f64 {
    phase.stats.latency.quantile(pct / 100.0) as f64 / 1e6
}

fn joules_per_completed(phase: &Phase) -> f64 {
    phase.joules[0] / phase.stats.completed.max(1) as f64
}

pub fn run(config: &Config, plan: ThreadPlan, tracer: &mut Tracer) -> Outcome {
    let (setup_s, prepared) = crate::timed_setup(|| prepare(config, plan.workers));
    let mut outcome = Outcome::default();
    let seed = config.seed;
    let untraced = |schedules: &[Vec<(u64, usize)>], outcome: &mut Outcome| -> Vec<Phase> {
        schedules
            .iter()
            .map(|schedule| phase(&prepared, seed, schedule, None, outcome))
            .collect()
    };

    if !config.trace {
        let low = untraced(&prepared.low, &mut outcome);
        let over = untraced(&prepared.over, &mut outcome);
        let (low_pct, over_pct) = (tail_pct(&low), tail_pct(&over));
        let goodput = median_of(&over, |p| p.stats.goodput());
        let joules = median_of(&over, joules_per_completed);
        let over_p50 = median_of(&over, |p| ms_at(p, 50.0));
        let over_tail = median_of(&over, |p| ms_at(p, over_pct));
        outcome.end_to_end = EndToEnd {
            setup_s,
            op_p50_ms: over_p50,
            op_tail_ms: over_tail,
            items_per_s: median_of(&over, |p| p.stats.completed as f64 / p.wall),
            joules_per_item: joules,
            goodput,
        };
        outcome.named("windows", (low.len() + over.len()) as f64, "count");
        let low_p50 = median_of(&low, |p| ms_at(p, 50.0));
        outcome.named("p50_ms.low", low_p50, "ms");
        let low_tail = median_of(&low, |p| ms_at(p, low_pct));
        outcome.named(&format!("p{low_pct}_ms.low"), low_tail, "ms");
        outcome.named("p50_ms.over", over_p50, "ms");
        outcome.named(&format!("p{over_pct}_ms.over"), over_tail, "ms");
        outcome.named("goodput.over", goodput, "share");
        outcome.named("joules_per_completed.over", joules, "J");
        outcome.named(
            "downgraded.over",
            median_of(&over, |p| p.stats.downgraded as f64),
            "count",
        );
        outcome.named(
            "shed.over",
            median_of(&over, |p| p.stats.shed as f64),
            "count",
        );
        return outcome;
    }

    // Traced run: the first half of each phase's windows through
    // `Server::run` untraced, the second half driven through `offer`/`poll`
    // with spans.
    let (low_plain, low_traced) = prepared.low.split_at(prepared.low.len().div_ceil(2));
    let (over_plain, over_traced) = prepared.over.split_at(prepared.over.len().div_ceil(2));
    let plain = untraced(low_plain, &mut outcome);
    untraced(over_plain, &mut outcome);
    tracer.set_on(true);
    let mut driven = Driven::default();
    let mut traced_phases =
        |schedules: &[Vec<(u64, usize)>], outcome: &mut Outcome| -> Vec<Phase> {
            schedules
                .iter()
                .map(|schedule| {
                    phase(
                        &prepared,
                        seed,
                        schedule,
                        Some((tracer, &mut driven)),
                        outcome,
                    )
                })
                .collect()
        };
    let traced = traced_phases(low_traced, &mut outcome);
    let over = traced_phases(over_traced, &mut outcome);
    let admission_ns = micro::admission(tracer, server_config(seed).admission, &prepared.classes);
    let (record_ns, merge_ns) = micro::sketch(tracer);
    tracer.set_on(false);

    outcome.layer(
        "trace.overhead_pct",
        crate::overhead_pct(
            median_of(&plain, |p| ms_at(p, 50.0)),
            median_of(&traced, |p| ms_at(p, 50.0)),
        ),
    );
    let sum = |phases: &[Phase], figure: fn(&Phase) -> f64| phases.iter().map(figure).sum::<f64>();
    outcome.layer("server.offer_us", tracer.mean_nanos("server.offer") / 1e3);
    outcome.layer("server.poll_us", tracer.mean_nanos("server.poll") / 1e3);
    outcome.layer(
        "server.polls",
        tracer
            .by_name()
            .get("server.poll")
            .map_or(0.0, |&(n, _)| n as f64),
    );
    outcome.layer("server.in_flight_mean", stats::mean(&driven.in_flight));
    outcome.layer(
        "server.retries",
        sum(&traced, |p| p.stats.retries as f64) + sum(&over, |p| p.stats.retries as f64),
    );
    outcome.layer(
        "server.offer_lag_p99_us",
        stats::percentile(&driven.lags_us, 99.0).map_or(0.0, |p| p.value),
    );
    outcome.layer("admission.decide_ns", admission_ns);
    outcome.layer(
        "admission.downgraded",
        sum(&over, |p| p.stats.downgraded as f64),
    );
    outcome.layer("admission.shed", sum(&over, |p| p.stats.shed as f64));
    outcome.layer("sketch.record_ns", record_ns);
    outcome.layer("sketch.merge_ns", merge_ns);
    let completed = sum(&over, |p| p.stats.completed as f64).max(1.0);
    outcome.layer(
        "env.frequency_transitions",
        sum(&over, |p| p.transitions as f64) / completed,
    );
    outcome.layer(
        "env.scaled_tasks",
        sum(&over, |p| p.scaled as f64) / completed,
    );
    outcome.layer("energy.dynamic_j", sum(&over, |p| p.joules[1]) / completed);
    outcome.layer("energy.static_j", sum(&over, |p| p.joules[2]) / completed);
    outcome.layer("energy.idle_j", sum(&over, |p| p.joules[3]) / completed);
    outcome
}
