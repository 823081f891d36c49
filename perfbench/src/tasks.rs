//! `tasks`: seeded synthetic task graphs with bodies of about a microsecond,
//! so the scheduler's own stages carry most of the cost.
//!
//! Rounds alternate between two runtimes, one under a bounded GTB policy and
//! one under LQH, both with a significance-ladder DVFS governor. A round
//! runs eight groups whose sizes, significance distributions and ratios are
//! drawn from the seed (even groups spawned task by task, odd groups through
//! `BatchBuilder`), then a dependence wavefront over `DepKey`s.
//!
//! An operation is one group, from its creation to the return of its
//! barrier. An item is a task. Figures are medians over 4-second windows.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sig_core::{
    BatchTask, DepKey, DispatchContext, ExecutionEnv, ExecutionMode, OutcomeSummary, Policy,
    PowerModel, Runtime, SignificanceLadderGovernor, TaskGroup, TransitionCost,
};
use sig_serving::SplitMix64;

use crate::plan::ThreadPlan;
use crate::report::{EndToEnd, Outcome};
use crate::stats;
use crate::trace::Tracer;
use crate::{micro, Config};

/// Rounds of drawn groups; the measured loop cycles through them.
const POOL_ROUNDS: usize = 64;
const GROUPS_PER_ROUND: usize = 8;
const MIN_GROUP: usize = 32;
const MAX_GROUP: usize = 1024;
const GTB: Policy = Policy::Gtb { buffer_size: 32 };
/// Wavefront grid: cell (i, j) reads (i-1, j) and (i, j-1).
const WAVE_ROWS: usize = 24;
const WAVE_COLS: usize = 24;
/// Arithmetic steps of an accurate body (about 1 µs) and an approximate one.
const ACCURATE_STEPS: u32 = 300;
const APPROX_STEPS: u32 = 100;
const LADDER_STEPS: usize = 4;
const LADDER_FLOOR: f64 = 0.4;
/// Accurate tasks each runtime runs in setup, outside the body counters.
const WARMUP_TASKS: usize = 2048;
/// The untraced run measures in consecutive windows of this length.
const WINDOW_SECONDS: f64 = 4.0;

static ACCURATE_RUNS: AtomicU64 = AtomicU64::new(0);
static APPROX_RUNS: AtomicU64 = AtomicU64::new(0);

/// Fixed arithmetic: `steps` rounds of xorshift.
fn spin(seed: u64, steps: u32) -> u64 {
    let mut x = seed | 1;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x)
}

fn accurate_body(seed: u64) {
    spin(seed, ACCURATE_STEPS);
    ACCURATE_RUNS.fetch_add(1, Ordering::Relaxed);
}

fn approx_body(seed: u64) {
    spin(seed, APPROX_STEPS);
    APPROX_RUNS.fetch_add(1, Ordering::Relaxed);
}

/// One drawn group.
struct GroupSpec {
    ratio: f64,
    significances: Vec<f64>,
}

/// Draw every group of the pool. Sizes (log-uniform over
/// `MIN_GROUP..MAX_GROUP`) and ratios (uniform over 0.1-0.9) are stratified
/// over the pool, and the four significance shapes take equal shares, so
/// seeds change which groups meet in a round but not the pool's mix.
fn draw_pool(rng: &mut SplitMix64) -> Vec<Vec<GroupSpec>> {
    let groups = POOL_ROUNDS * GROUPS_PER_ROUND;
    let strata = |rng: &mut SplitMix64| {
        let mut order: Vec<usize> = (0..groups).collect();
        for i in (1..groups).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        order
            .into_iter()
            .map(|stratum| (stratum as f64 + rng.next_f64()) / groups as f64)
            .collect::<Vec<f64>>()
    };
    let sizes = strata(rng);
    let ratios = strata(rng);
    let shapes = strata(rng);
    let span = (MAX_GROUP as f64 / MIN_GROUP as f64).ln();
    let mut pool: Vec<GroupSpec> = (0..groups)
        .map(|g| {
            let size = (MIN_GROUP as f64 * (sizes[g] * span).exp()) as usize;
            let shape = (shapes[g] * 4.0) as usize;
            let significances = (0..size)
                .map(|i| {
                    let u = rng.next_f64();
                    match shape {
                        0 => u,
                        1 => {
                            if u < 0.5 {
                                0.05 + 0.1 * rng.next_f64()
                            } else {
                                0.85 + 0.1 * rng.next_f64()
                            }
                        }
                        2 => u * u,
                        _ => ((i % 9) + 1) as f64 / 10.0,
                    }
                })
                .collect();
            GroupSpec {
                ratio: 0.1 + 0.8 * ratios[g],
                significances,
            }
        })
        .collect();
    let mut rounds = Vec::with_capacity(POOL_ROUNDS);
    while !pool.is_empty() {
        rounds.push(pool.split_off(pool.len() - GROUPS_PER_ROUND));
    }
    rounds
}

/// The wavefront cell function; exact integer arithmetic.
fn cell(seed: u64, up: u64, left: u64, index: usize) -> u64 {
    let mixed = up.rotate_left(17) ^ left.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index as u64;
    spin(seed ^ mixed, 64) ^ mixed
}

fn wavefront_serial(seed: u64) -> Vec<u64> {
    let mut grid = vec![0u64; WAVE_ROWS * WAVE_COLS];
    for i in 0..WAVE_ROWS {
        for j in 0..WAVE_COLS {
            let up = if i > 0 {
                grid[(i - 1) * WAVE_COLS + j]
            } else {
                0
            };
            let left = if j > 0 {
                grid[i * WAVE_COLS + j - 1]
            } else {
                0
            };
            grid[i * WAVE_COLS + j] = cell(seed, up, left, i * WAVE_COLS + j);
        }
    }
    grid
}

fn runtime(policy: Policy, workers: usize) -> Runtime {
    Runtime::builder()
        .workers(workers)
        .policy(policy)
        .energy_model(PowerModel::for_host())
        .transition_cost(TransitionCost::typical())
        .governor(SignificanceLadderGovernor::with_ladder(
            LADDER_STEPS,
            LADDER_FLOOR,
        ))
        .build()
}

struct Prepared {
    pool: Vec<Vec<GroupSpec>>,
    wave_seed: u64,
    wave_expected: Vec<u64>,
    runtimes: [Runtime; 2],
    grids: [Arc<Vec<AtomicU64>>; 2],
}

fn prepare(seed: u64, workers: usize) -> Prepared {
    let mut rng = SplitMix64::new(seed ^ 0x7461_736b_7367_7261);
    let pool = draw_pool(&mut rng);
    let wave_seed = rng.next_u64();
    let grid = || {
        Arc::new(
            (0..WAVE_ROWS * WAVE_COLS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        )
    };
    let runtimes = [runtime(GTB, workers), runtime(Policy::Lqh, workers)];
    // Warm-up: start every worker and fault in the queues before timing.
    for rt in &runtimes {
        rt.batch().spawn_all((0..WARMUP_TASKS as u64).map(|i| {
            move || {
                spin(i, ACCURATE_STEPS);
            }
        }));
        rt.wait_all();
    }
    Prepared {
        pool,
        wave_seed,
        wave_expected: wavefront_serial(wave_seed),
        runtimes,
        grids: [grid(), grid()],
    }
}

fn balanced(outcomes: &OutcomeSummary) -> bool {
    outcomes.spawned == outcomes.completed + outcomes.cancelled + outcomes.panicked + outcomes.shed
}

#[derive(Default)]
struct Pass {
    group_seconds: Vec<f64>,
    tasks: u64,
    wall: f64,
    single_spawned: u64,
    batch_spawned: u64,
    wave_tasks: u64,
    wave_seconds: f64,
}

/// Run one drawn group on `rt` and return it.
fn run_group(
    rt: &Runtime,
    label: &str,
    spec: &GroupSpec,
    batch: bool,
    pass: &mut Pass,
    outcome: &mut Outcome,
    tracer: &mut Tracer,
) -> TaskGroup {
    let start = Instant::now();
    let group = rt.create_group(label, spec.ratio);
    let tasks = spec.significances.len();
    if batch {
        tracer.enter("runtime.spawn_batch");
        rt.batch()
            .group(&group)
            .spawn_tasks(spec.significances.iter().enumerate().map(|(i, &s)| {
                let seed = i as u64;
                BatchTask::new(move || accurate_body(seed))
                    .approx(move || approx_body(seed))
                    .significance(s)
            }));
        tracer.exit();
        pass.batch_spawned += tasks as u64;
    } else {
        tracer.enter("runtime.spawn_single");
        for (i, &s) in spec.significances.iter().enumerate() {
            let seed = i as u64;
            rt.task(move || accurate_body(seed))
                .approx(move || approx_body(seed))
                .significance(s)
                .group(&group)
                .spawn();
        }
        tracer.exit();
        pass.single_spawned += tasks as u64;
    }
    let outcomes = tracer.span("runtime.wait", || {
        rt.wait_group_with_ratio(&group, spec.ratio)
    });
    pass.group_seconds.push(start.elapsed().as_secs_f64());
    pass.tasks += tasks as u64;
    outcome.check(balanced(&outcomes), || {
        format!("group {label}: unbalanced outcomes {outcomes:?}")
    });
    group
}

/// The dependence wavefront: every cell accurate, checked against the
/// serial grid.
fn run_wavefront(
    rt: &Runtime,
    grid: &Arc<Vec<AtomicU64>>,
    prepared: &Prepared,
    pass: &mut Pass,
    outcome: &mut Outcome,
    tracer: &mut Tracer,
) {
    let start = Instant::now();
    let group = rt.create_group("wavefront", 1.0);
    let key = |i: usize, j: usize| DepKey::from_raw((i * WAVE_COLS + j) as u64);
    tracer.enter("deps.wavefront_spawn");
    for i in 0..WAVE_ROWS {
        for j in 0..WAVE_COLS {
            let mut reads = Vec::with_capacity(2);
            if i > 0 {
                reads.push(key(i - 1, j));
            }
            if j > 0 {
                reads.push(key(i, j - 1));
            }
            let grid = grid.clone();
            let seed = prepared.wave_seed;
            rt.task(move || {
                // The runtime orders this task after the writers of its
                // read keys, so those cells are final.
                let up = if i > 0 {
                    grid[(i - 1) * WAVE_COLS + j].load(Ordering::Relaxed)
                } else {
                    0
                };
                let left = if j > 0 {
                    grid[i * WAVE_COLS + j - 1].load(Ordering::Relaxed)
                } else {
                    0
                };
                let index = i * WAVE_COLS + j;
                grid[index].store(cell(seed, up, left, index), Ordering::Relaxed);
            })
            .significance(1.0)
            .group(&group)
            .reads(reads)
            .writes([key(i, j)])
            .spawn();
        }
    }
    tracer.exit();
    let outcomes = tracer.span("deps.wavefront_wait", || rt.wait_group(&group));
    let seconds = start.elapsed().as_secs_f64();
    pass.group_seconds.push(seconds);
    pass.wave_seconds += seconds;
    let tasks = (WAVE_ROWS * WAVE_COLS) as u64;
    pass.wave_tasks += tasks;
    pass.tasks += tasks;
    let matches = grid
        .iter()
        .zip(&prepared.wave_expected)
        .all(|(cell, &want)| cell.load(Ordering::Relaxed) == want);
    outcome.check(balanced(&outcomes) && matches, || {
        format!("wavefront: grid matches serial {matches}, outcomes {outcomes:?}")
    });
    for cell in grid.iter() {
        cell.store(0, Ordering::Relaxed);
    }
}

fn measure(
    prepared: &Prepared,
    deadline: Instant,
    first_round: usize,
    outcome: &mut Outcome,
    tracer: &mut Tracer,
) -> (Pass, usize) {
    let mut pass = Pass::default();
    let start = Instant::now();
    let mut round = first_round;
    while Instant::now() < deadline || pass.tasks == 0 {
        let side = round % 2;
        let rt = &prepared.runtimes[side];
        let specs = &prepared.pool[(round / 2) % POOL_ROUNDS];
        for (index, spec) in specs.iter().enumerate() {
            // Slot labels are reused, so the group registry stays bounded.
            let label = format!("slot{index}");
            run_group(rt, &label, spec, index % 2 == 1, &mut pass, outcome, tracer);
        }
        run_wavefront(
            rt,
            &prepared.grids[side],
            prepared,
            &mut pass,
            outcome,
            tracer,
        );
        round += 1;
    }
    pass.wall = start.elapsed().as_secs_f64();
    (pass, round)
}

/// Modelled joules of both runtimes so far: `[total, dynamic, static, idle]`.
fn joules(prepared: &Prepared) -> [f64; 4] {
    let mut sum = [0.0; 4];
    for rt in &prepared.runtimes {
        for (total, joules) in sum.iter_mut().zip(crate::joules(rt)) {
            *total += joules;
        }
    }
    sum
}

/// Counters summed over both runtimes:
/// `(steals, buffer flushes, fast-path reads, transitions, scaled tasks)`.
fn counters(prepared: &Prepared) -> [f64; 5] {
    let mut sum = [0.0; 5];
    for rt in &prepared.runtimes {
        let report = rt.energy_report();
        sum[0] += rt.stats().steals() as f64;
        sum[1] += rt.stats().buffer_flushes() as f64;
        sum[2] += rt.tracker_fast_path_reads() as f64;
        sum[3] += report.frequency_transitions() as f64;
        sum[4] += report.scaled_tasks() as f64;
    }
    sum
}

/// Busy core-seconds of both runtimes so far.
fn busy_seconds(prepared: &Prepared) -> f64 {
    prepared
        .runtimes
        .iter()
        .map(|rt| rt.stats().busy_core_seconds())
        .sum()
}

/// Body-execution counters must agree with the runtimes' own books.
/// Wavefront cells and warm-up tasks run accurately without bumping the
/// body counters.
fn check_books(prepared: &Prepared, wave_tasks: u64, outcome: &mut Outcome) {
    let (mut accurate, mut approximate) = (0u64, 0u64);
    for rt in &prepared.runtimes {
        accurate += rt.stats().accurate() as u64;
        approximate += rt.stats().approximate() as u64;
    }
    let ran = ACCURATE_RUNS.load(Ordering::Relaxed);
    let ran_approx = APPROX_RUNS.load(Ordering::Relaxed);
    let warmup = (prepared.runtimes.len() * WARMUP_TASKS) as u64;
    outcome.check(
        ran_approx == approximate && ran + wave_tasks + warmup == accurate,
        || {
            format!(
                "bodies ran {ran} accurate / {ran_approx} approximate, runtimes count \
             {accurate} / {approximate}"
            )
        },
    );
}

/// Table 2's guards on fresh groups: every pool group runs once on each
/// runtime under a label of its own. Returns the mean ratio deviation and
/// inversion percentage over those groups.
fn policy_probe(prepared: &Prepared, outcome: &mut Outcome, tracer: &mut Tracer) -> (f64, f64) {
    let mut pass = Pass::default();
    let (mut ratio_dev, mut inversions) = (Vec::new(), Vec::new());
    for (side, rt) in prepared.runtimes.iter().enumerate() {
        for (round, specs) in prepared.pool.iter().enumerate() {
            for (index, spec) in specs.iter().enumerate() {
                let label = format!("probe{side}.{round}.{index}");
                let batch = index % 2 == 1;
                let group = run_group(rt, &label, spec, batch, &mut pass, outcome, tracer);
                let stats = rt.group_stats(&group);
                ratio_dev.push(stats.ratio_diff());
                inversions.push(stats.inversion_percentage());
            }
        }
    }
    (stats::mean(&ratio_dev), stats::mean(&inversions))
}

/// Mean nanoseconds per `ExecutionEnv::dispatch` and `record` call on an
/// environment built like the workload's runtimes.
fn env_microbench(workers: usize, tracer: &mut Tracer) -> (f64, f64) {
    let env = ExecutionEnv::new(
        PowerModel::for_host(),
        Arc::new(SignificanceLadderGovernor::with_ladder(
            LADDER_STEPS,
            LADDER_FLOOR,
        )),
        None,
        TransitionCost::typical(),
        workers,
    );
    let mut rng = SplitMix64::new(0x656e_765f_6d62);
    let contexts: Vec<DispatchContext> = (0..1024)
        .map(|_| {
            let significance = rng.next_f64();
            DispatchContext {
                worker: 0,
                significance: significance.into(),
                accurate: significance > 0.5,
                policy: GTB,
                group_ratio: 0.5,
                deadline_pressure: false,
            }
        })
        .collect();
    let context = |i: usize| &contexts[i % contexts.len()];
    let mut decisions = Vec::with_capacity(micro::CALLS);
    let dispatch_ns = micro::per_call(tracer, "env.dispatch", micro::CALLS, |i| {
        decisions.push(env.dispatch(0, context(i)));
    });
    let record_ns = micro::per_call(tracer, "env.record", micro::CALLS, |i| {
        let mode = if context(i).accurate {
            ExecutionMode::Accurate
        } else {
            ExecutionMode::Approximate
        };
        env.record(0, mode, Duration::from_nanos(1000), decisions[i]);
    });
    std::hint::black_box(env.totals());
    (dispatch_ns, record_ns)
}

pub fn run(config: &Config, plan: ThreadPlan, tracer: &mut Tracer) -> Outcome {
    let (setup_s, prepared) = crate::timed_setup(|| prepare(config.seed, plan.workers));
    let mut outcome = Outcome::default();
    let start = Instant::now();

    if !config.trace {
        // Consecutive windows; each figure is the median over windows, so a
        // disturbance covering less than half the run does not move it.
        let count = ((config.seconds / WINDOW_SECONDS).round() as usize).max(1);
        let before = joules(&prepared);
        let mut windows = Vec::with_capacity(count);
        let mut round = 0;
        for k in 1..=count {
            let deadline = start + config.window().mul_f64(k as f64 / count as f64);
            let (pass, next) = measure(&prepared, deadline, round, &mut outcome, tracer);
            round = next;
            windows.push(pass);
        }
        let after = joules(&prepared);
        let wave_tasks = windows.iter().map(|w| w.wave_tasks).sum();
        check_books(&prepared, wave_tasks, &mut outcome);
        let fewest = windows.iter().map(|w| w.group_seconds.len()).min();
        let tail_pct = stats::tail_pct(fewest.unwrap_or(0));
        let median_of = |figure: &dyn Fn(&Pass) -> f64| {
            let values: Vec<f64> = windows.iter().map(figure).collect();
            stats::median(&values).map_or(0.0, |p| p.value)
        };
        let p50_ms = median_of(&|w| stats::median(&w.group_seconds).map_or(0.0, |p| p.value) * 1e3);
        let tail_ms = median_of(&|w| {
            stats::percentile(&w.group_seconds, tail_pct).map_or(0.0, |p| p.value) * 1e3
        });
        let tasks_per_s = median_of(&|w| w.tasks as f64 / w.wall);
        let tasks: u64 = windows.iter().map(|w| w.tasks).sum();
        outcome.end_to_end = EndToEnd {
            setup_s,
            op_p50_ms: p50_ms,
            op_tail_ms: tail_ms,
            items_per_s: tasks_per_s,
            joules_per_item: (after[0] - before[0]) / tasks as f64,
            goodput: 1.0 - outcome.failed as f64 / outcome.attempted as f64,
        };
        outcome.named("windows", count as f64, "count");
        outcome.named("tasks_per_s", tasks_per_s, "1/s");
        outcome.named("group_ms.p50", p50_ms, "ms");
        outcome.named(&format!("group_ms.p{tail_pct}"), tail_ms, "ms");
        outcome.named("groups_per_window.min", fewest.unwrap_or(0) as f64, "count");
        return outcome;
    }

    let half = config.window() / 2;
    let busy_before = busy_seconds(&prepared);
    let (plain, round) = measure(&prepared, start + half, 0, &mut outcome, tracer);
    tracer.set_on(true);
    let counters_before = counters(&prepared);
    let joules_before = joules(&prepared);
    let (traced, _) = measure(
        &prepared,
        Instant::now() + half,
        round,
        &mut outcome,
        tracer,
    );
    let joules_after = joules(&prepared);
    let counters_after = counters(&prepared);
    let busy = busy_seconds(&prepared) - busy_before;
    let (dispatch_ns, record_ns) = env_microbench(plan.workers, tracer);
    tracer.set_on(false);
    let (ratio_dev, inversion_pct) = policy_probe(&prepared, &mut outcome, tracer);
    check_books(
        &prepared,
        plain.wave_tasks + traced.wave_tasks,
        &mut outcome,
    );

    let plain_rate = plain.tasks as f64 / plain.wall;
    let traced_rate = traced.tasks as f64 / traced.wall;
    // Lower is better for the overhead arithmetic: compare seconds per task.
    outcome.layer(
        "trace.overhead_pct",
        crate::overhead_pct(1.0 / plain_rate, 1.0 / traced_rate),
    );
    let by_name = tracer.by_name();
    let total = |name: &str| by_name.get(name).map_or(0.0, |&(_, nanos)| nanos as f64);
    let calls = |name: &str| by_name.get(name).map_or(0.0, |&(count, _)| count as f64);
    outcome.layer(
        "runtime.spawn_ns.single",
        total("runtime.spawn_single") / traced.single_spawned.max(1) as f64,
    );
    outcome.layer(
        "runtime.spawn_ns.batch",
        total("runtime.spawn_batch") / traced.batch_spawned.max(1) as f64,
    );
    outcome.layer(
        "runtime.wait_us",
        total("runtime.wait") / calls("runtime.wait").max(1.0) / 1e3,
    );
    // Counts per task, so a faster scheduler that runs more tasks in the
    // window does not read as more steals or flushes.
    let per_task = |i: usize| (counters_after[i] - counters_before[i]) / traced.tasks as f64;
    outcome.layer("runtime.steals", per_task(0));
    outcome.layer("policy.buffer_flushes", per_task(1));
    outcome.layer("deps.fast_path_reads", per_task(2));
    outcome.layer("env.frequency_transitions", per_task(3));
    outcome.layer("env.scaled_tasks", per_task(4));
    let wall = plain.wall + traced.wall;
    outcome.layer("runtime.busy_share", busy / (plan.workers as f64 * wall));
    outcome.layer("policy.ratio_dev", ratio_dev);
    outcome.layer("policy.inversion_pct", inversion_pct);
    outcome.layer(
        "deps.wavefront_tasks_per_s",
        traced.wave_tasks as f64 / traced.wave_seconds,
    );
    outcome.layer("env.dispatch_ns", dispatch_ns);
    outcome.layer("env.record_ns", record_ns);
    let joules_per_task = |i: usize| (joules_after[i] - joules_before[i]) / traced.tasks as f64;
    outcome.layer("energy.dynamic_j", joules_per_task(1));
    outcome.layer("energy.static_j", joules_per_task(2));
    outcome.layer("energy.idle_j", joules_per_task(3));
    outcome
}
