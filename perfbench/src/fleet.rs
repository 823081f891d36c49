//! `fleet`: a large simulated fleet on one thread.
//!
//! A `ClusterSim` of [`NODES`] nodes under a tight watt cap (0.8x full
//! draw), significance-aware dispatch, transient faults, a seeded crash
//! storm, and a fleet joule budget set below what the same replay spends
//! unbudgeted, so the budget controller binds. The simulation is
//! deterministic: every replay of the seed must produce the same
//! fingerprint, which makes the simulated outputs a correctness oracle.
//!
//! The cap guarantee (no draw above the cap) is stated for a fixed,
//! feasible cap. After the window, a replay of the same schedule under the
//! fixed tight cap without the storm checks it; the workload itself moves
//! the cap (budget actuation, restarts), and its over-cap joules are
//! reported, not checked.
//!
//! An operation and an item are one simulated request; the end-to-end
//! figures are read from the simulation (latency and throughput in
//! simulated time). The loop replays the seeded schedule on a fresh
//! simulator until the window closes, and times each replay. Setup
//! generates the inputs (the schedule, the storm and the budget) and builds
//! the first replay's simulator.

use std::time::Instant;

use sig_cluster::{
    crash_storm, ClusterConfig, ClusterDispatcher, ClusterPhaseReport, ClusterSim, DispatchPolicy,
    NodeFault, PowerCapController, RouteCandidate,
};
use sig_energy::{BudgetConfig, BudgetController, BudgetTarget, EnergyReading};
use sig_serving::{AdmissionConfig, RequestClass};

use crate::report::{EndToEnd, Outcome};
use crate::stats;
use crate::trace::Tracer;
use crate::{micro, Config};

/// Fleet size; `dispatch.route_ns.n384` is timed at this size.
const NODES: usize = 384;
const WORKERS: usize = 2;
const SERVICE_NANOS: u64 = 1_000_000;
/// Full draw of one default node: 2 W static + 2 x 6.6 W active.
const NODE_FULL_WATTS: f64 = 15.2;
const CAP_FRACTION: f64 = 0.8;
/// Offered load relative to the uncapped fleet's tier-0 capacity.
const LOAD: f64 = 1.0;
const REQUESTS: usize = 24_000;
const PANIC_PER_MILLE: u16 = 30;
/// Share of the fleet the storm takes down, and when (as shares of the
/// schedule's span).
const STORM_FRACTION: f64 = 0.1;
const STORM_DOWN: f64 = 0.3;
const STORM_UP: f64 = 0.6;
/// The budget, as a share of the tight cap's draw over the schedule's span.
/// An unbudgeted replay spends 1.04-1.06 times that (seeds 1-6), so the
/// budget sits near 0.86 of the unbudgeted spend and binds.
const BUDGET_SHARE: f64 = 0.9;

fn classes() -> Vec<RequestClass> {
    crate::serve::classes(std::time::Duration::from_nanos(SERVICE_NANOS))
}

fn base_config(seed: u64) -> ClusterConfig {
    let mut config = ClusterConfig {
        nodes: NODES,
        workers_per_node: WORKERS,
        base_service_nanos: SERVICE_NANOS,
        panic_per_mille: PANIC_PER_MILLE,
        seed,
        policy: DispatchPolicy::SignificanceAware,
        ..ClusterConfig::default()
    };
    config.cap.cap_watts = NODES as f64 * NODE_FULL_WATTS * CAP_FRACTION;
    config
}

struct Prepared {
    config: ClusterConfig,
    budget: BudgetConfig,
    budget_joules: f64,
    schedule: Vec<(u64, usize)>,
    faults: Vec<NodeFault>,
}

fn prepare(seed: u64) -> Prepared {
    let capacity = (NODES * WORKERS) as f64 * 1e9 / SERVICE_NANOS as f64;
    let schedule = crate::serve::schedule(capacity * LOAD, REQUESTS, seed);
    let span = schedule.last().map_or(1, |&(at, _)| at.max(1));
    let faults = crash_storm(
        seed,
        NODES,
        STORM_FRACTION,
        (span as f64 * STORM_DOWN) as u64,
        (span as f64 * STORM_UP) as u64,
    );
    let horizon_seconds = span as f64 * 1e-9;
    let base = base_config(seed);
    let budget_joules = base.cap.cap_watts * horizon_seconds * BUDGET_SHARE;
    let budget = BudgetConfig::new(BudgetTarget::TotalJoules {
        joules: budget_joules,
        horizon_seconds,
    });
    Prepared {
        config: ClusterConfig {
            budget: Some(budget),
            ..base
        },
        budget,
        budget_joules,
        schedule,
        faults,
    }
}

/// Over-cap joules of the seeded schedule under the fixed tight cap, with
/// neither the storm nor the budget.
fn fixed_cap_violation(prepared: &Prepared) -> f64 {
    ClusterSim::new(base_config(prepared.config.seed), classes())
        .run(&prepared.schedule, &[])
        .violation_joules
}

impl Prepared {
    /// A fresh simulator for one replay.
    fn simulator(&self) -> ClusterSim {
        ClusterSim::new(self.config.clone(), classes())
    }
}

/// One replay: the fresh simulator `sim` runs the seeded schedule. Returns
/// the simulator, its report and the run's wall seconds.
fn replay(
    prepared: &Prepared,
    mut sim: ClusterSim,
    tracer: &mut Tracer,
) -> (ClusterSim, ClusterPhaseReport, f64) {
    tracer.enter("sim.run");
    let start = Instant::now();
    let report = sim.run(&prepared.schedule, &prepared.faults);
    let wall = start.elapsed().as_secs_f64();
    tracer.exit();
    (sim, report, wall)
}

/// Check one replay; `reference` is the first replay's fingerprint.
fn check(report: &ClusterPhaseReport, reference: &str, outcome: &mut Outcome) {
    let fingerprint = report.fingerprint();
    outcome.check(
        report.balanced()
            && report.max_shed_significance < 1.0
            && report.accurate_scaled == 0
            && fingerprint == reference,
        || {
            format!(
                "balanced {} max_shed_significance {} accurate_scaled {} \
                 fingerprint {fingerprint} (first replay: {reference})",
                report.balanced(),
                report.max_shed_significance,
                report.accurate_scaled,
            )
        },
    );
}

fn spend_error(prepared: &Prepared, sim: &ClusterSim) -> f64 {
    let spent = sim.budget_spent_joules().unwrap_or(0.0);
    (spent - prepared.budget_joules).abs() / prepared.budget_joules
}

/// Route candidates snapshotting the first `n` nodes of `sim`.
fn candidates(sim: &ClusterSim, n: usize) -> Vec<RouteCandidate> {
    sim.nodes()
        .iter()
        .take(n)
        .map(|node| RouteCandidate {
            index: node.index(),
            up: node.is_up(),
            depth: node.depth(),
            load_ewma: node.depth() as f64,
            allowed: node.allowed(),
            freq_cap: node.freq_cap(),
        })
        .collect()
}

/// Nanoseconds per `ClusterDispatcher::route` over `n` candidates.
fn route_ns(tracer: &mut Tracer, sim: &ClusterSim, n: usize) -> f64 {
    let nodes = candidates(sim, n);
    let mut dispatcher = ClusterDispatcher::new(DispatchPolicy::SignificanceAware);
    let calls = (micro::CALLS * 6 / n).max(1000);
    micro::per_call(tracer, "dispatch.route", calls, |i| {
        let significance = [1.0, 0.7, 0.42, 0.3, 0.09][i % 5];
        std::hint::black_box(dispatcher.route(&nodes, significance));
    })
}

/// Nanoseconds per `BudgetController::observe`, fed the fleet's own ledger
/// sampled at every control tick of the replay.
fn budget_observe_ns(
    tracer: &mut Tracer,
    prepared: &Prepared,
    sim: &ClusterSim,
    ticks: u64,
) -> f64 {
    let tick = prepared.config.cap.tick_nanos;
    let readings: Vec<(f64, EnergyReading)> = (1..=ticks.max(1))
        .map(|t| (t as f64 * tick as f64 * 1e-9, sim.fleet_reading(t * tick)))
        .collect();
    let rounds = (micro::CALLS / 20 / readings.len()).max(1);
    let mut controller = BudgetController::new(prepared.budget);
    tracer.enter("budget.observe");
    let start = Instant::now();
    for _ in 0..rounds {
        controller = BudgetController::new(prepared.budget);
        for (elapsed, reading) in &readings {
            std::hint::black_box(controller.observe(*elapsed, reading));
        }
    }
    let nanos = start.elapsed().as_nanos() as f64;
    tracer.exit();
    std::hint::black_box(controller.spent_joules());
    nanos / (rounds * readings.len()) as f64
}

pub fn run(config: &Config, tracer: &mut Tracer) -> Outcome {
    let (setup_s, (prepared, first)) = crate::timed_setup(|| {
        let prepared = prepare(config.seed);
        let first = prepared.simulator();
        (prepared, first)
    });
    let mut first = Some(first);
    let mut outcome = Outcome::default();
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut walls_traced = Vec::new();
    let mut reference = None;
    let mut last = None;
    let half = config.window() / 2;
    // At least two untraced replays, so the fingerprint is compared.
    while start.elapsed() < config.window() || walls.len() < 2 {
        if config.trace && !tracer.is_on() && start.elapsed() >= half && walls.len() >= 2 {
            tracer.set_on(true);
        }
        let sim = first.take().unwrap_or_else(|| prepared.simulator());
        let (sim, report, wall) = replay(&prepared, sim, tracer);
        let reference = reference.get_or_insert_with(|| report.fingerprint());
        check(&report, reference, &mut outcome);
        if tracer.is_on() {
            walls_traced.push(wall);
        } else {
            walls.push(wall);
        }
        last = Some((sim, report));
    }
    let (sim, report) = last.expect("one replay at least");
    let violation = fixed_cap_violation(&prepared);
    outcome.check(violation == 0.0, || {
        format!("fixed tight cap exceeded by {violation} J")
    });
    let requests = report.stats.offered as f64;
    let spend_error = spend_error(&prepared, &sim);

    if !config.trace {
        let p50 = stats::median(&walls).expect("one replay at least");
        let tail = stats::tail(&walls).expect("one replay at least");
        let total: f64 = walls.iter().sum();
        let us_per_request = total / (walls.len() as f64 * requests) * 1e6;
        // The end-to-end figures are the simulated fleet's own: request
        // latency and delivered throughput in simulated time. They repeat
        // exactly for a seed. The simulator's wall-clock cost is printed
        // below and traced per layer (`sim.run_s`).
        let latency = &report.stats.latency;
        let sim_tail_pct = stats::tail_pct(latency.count() as usize);
        outcome.end_to_end = EndToEnd {
            setup_s,
            op_p50_ms: latency.quantile(0.5) as f64 / 1e6,
            op_tail_ms: latency.quantile(sim_tail_pct / 100.0) as f64 / 1e6,
            items_per_s: report.stats.completed as f64 / (report.wall_nanos as f64 * 1e-9),
            joules_per_item: report.joules_per_completed(),
            goodput: report.goodput(),
        };
        outcome.named(
            &format!("sim_latency_ms.p{sim_tail_pct}"),
            outcome.end_to_end.op_tail_ms,
            "ms",
        );
        outcome.named("sim_us_per_request", us_per_request, "us");
        outcome.named("replay_ms.p50", p50.value * 1e3, "ms");
        if tail.pct > 50.0 {
            outcome.named(&format!("replay_ms.p{}", tail.pct), tail.value * 1e3, "ms");
        }
        outcome.named("replay_ms.samples", tail.samples as f64, "count");
        outcome.named("goodput", report.goodput(), "share");
        outcome.named("joules_per_completed", report.joules_per_completed(), "J");
        outcome.named("spend_error", spend_error, "share");
        outcome.named("budget_joules", prepared.budget_joules, "J");
        outcome.named("lost_to_crash", report.lost_to_crash as f64, "count");
        outcome.named("violation_joules", report.violation_joules, "J");
        return outcome;
    }

    tracer.set_on(true);
    let route_n6 = route_ns(tracer, &sim, 6);
    let route_full = route_ns(tracer, &sim, NODES);
    let cap_ns = {
        let mut cap = PowerCapController::new(prepared.config.cap);
        micro::per_call(tracer, "cap.observe", micro::CALLS / 100, |_| {
            cap.observe(sim.nodes())
        })
    };
    let ticks = report.wall_nanos / prepared.config.cap.tick_nanos;
    let budget_ns = budget_observe_ns(tracer, &prepared, &sim, ticks);
    let admission_ns = micro::admission(tracer, node_admission(), &classes());
    let (record_ns, merge_ns) = micro::sketch(tracer);
    tracer.set_on(false);

    let run_s = stats::mean(&walls_traced);
    let routes = (report.stats.offered + report.stats.retries) as f64;
    outcome.layer(
        "trace.overhead_pct",
        crate::overhead_pct(
            stats::median(&walls).map_or(0.0, |p| p.value),
            stats::median(&walls_traced).map_or(0.0, |p| p.value),
        ),
    );
    outcome.layer("dispatch.route_ns.n6", route_n6);
    outcome.layer("dispatch.route_ns.n384", route_full);
    outcome.layer("cap.observe_ns", cap_ns);
    outcome.layer("budget.observe_ns", budget_ns);
    outcome.layer(
        "budget.final_austerity",
        sim.budget_setpoint().map_or(0.0, |s| s.austerity),
    );
    outcome.layer("admission.decide_ns", admission_ns);
    outcome.layer("admission.downgraded", report.stats.downgraded as f64);
    outcome.layer("admission.shed", report.stats.shed as f64);
    outcome.layer("sketch.record_ns", record_ns);
    outcome.layer("sketch.merge_ns", merge_ns);
    outcome.layer("sim.run_s", run_s);
    outcome.layer("sim.routes", routes);
    outcome.layer("sim.retries", report.stats.retries as f64);
    outcome.layer("sim.lost_to_crash", report.lost_to_crash as f64);
    // Self time: the replay minus the routing and control-tick cost the
    // direct-call timings attribute to it.
    let attributed = (routes * route_full + ticks as f64 * (cap_ns + budget_ns)) * 1e-9;
    outcome.layer("sim.self_s", run_s - attributed);
    outcome
}

/// The node-level admission tuning `ClusterConfig::default` installs.
fn node_admission() -> AdmissionConfig {
    ClusterConfig {
        workers_per_node: WORKERS,
        ..ClusterConfig::default()
    }
    .admission
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_metrics_repeat_bit_for_bit_for_a_fixed_seed() {
        let a = prepare(11);
        let b = prepare(11);
        assert_eq!(a.budget_joules.to_bits(), b.budget_joules.to_bits());
        assert_eq!(a.schedule, b.schedule);
        let mut tracer = Tracer::new(false);
        let (sim_a, report_a, _) = replay(&a, a.simulator(), &mut tracer);
        let (sim_b, report_b, _) = replay(&b, b.simulator(), &mut tracer);
        assert_eq!(report_a.fingerprint(), report_b.fingerprint());
        for (x, y) in [
            (report_a.goodput(), report_b.goodput()),
            (
                report_a.joules_per_completed(),
                report_b.joules_per_completed(),
            ),
            (spend_error(&a, &sim_a), spend_error(&b, &sim_b)),
            (
                report_a.stats.latency.quantile(0.99) as f64,
                report_b.stats.latency.quantile(0.99) as f64,
            ),
        ] {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let mut outcome = Outcome::default();
        check(&report_b, &report_a.fingerprint(), &mut outcome);
        assert_eq!(
            (outcome.attempted, outcome.failed),
            (1, 0),
            "{:?}",
            outcome.failures
        );
        let c = prepare(12);
        let (_, report_c, _) = replay(&c, c.simulator(), &mut tracer);
        assert_ne!(report_c.fingerprint(), report_a.fingerprint());
        assert_eq!(fixed_cap_violation(&a), 0.0);
    }

    #[test]
    fn the_budget_binds() {
        let prepared = prepare(5);
        let unbudgeted = ClusterSim::new(base_config(5), classes())
            .run(&prepared.schedule, &prepared.faults)
            .joules;
        assert!(
            prepared.budget_joules < unbudgeted,
            "budget {} J is not below the unbudgeted spend {unbudgeted} J",
            prepared.budget_joules
        );
        let mut tracer = Tracer::new(false);
        let (sim, _, _) = replay(&prepared, prepared.simulator(), &mut tracer);
        let austerity = sim.budget_setpoint().expect("budget configured").austerity;
        assert!(
            austerity > 0.0,
            "the fleet budget never constrained the replay"
        );
    }
}
