//! `kernels`: the paper's six kernels at the Medium degree under
//! GTB(MaxBuffer), round after round.
//!
//! An operation is one round: each kernel solved once, in Table 1 order.
//! An item is a round. A round's time is the sum of the kernels' own timed
//! regions (`RunOutput::elapsed`). Those leave out the input generation each
//! `Benchmark::run` call repeats, but include building the kernel's
//! runtime, which `sig-kernels` does inside its timer.
//!
//! Setup generates the inputs and computes each kernel's fully accurate
//! reference output plus one reference significance run; every measured
//! run must reproduce that run's quality score and task counts bit for bit.

use std::time::Instant;

use sig_core::Policy;
use sig_kernels::{dct, fluidanimate, jacobi, kmeans, mc, sobel};
use sig_kernels::{Benchmark, Degree, ExecutionConfig, RunOutput, TaskCounts};
use sig_serving::SplitMix64;

use crate::plan::ThreadPlan;
use crate::report::{Outcome, KERNELS};
use crate::stats;
use crate::trace::Tracer;
use crate::Config;

const POLICY: Policy = Policy::GtbMaxBuffer;
const DEGREE: Degree = Degree::Medium;

/// The six kernels, scaled up from the library defaults (which run 1-20 ms
/// each) so that kernel bodies dominate runtime start-up. Sobel and DCT
/// read a fixed synthetic image; the other four draw inputs from `seed`.
fn suite(seed: u64) -> Vec<Box<dyn Benchmark>> {
    let mut rng = SplitMix64::new(seed ^ 0x6b65_726e_656c_7331);
    let mut next = || rng.next_u64();
    vec![
        Box::new(sobel::Sobel {
            width: 1024,
            height: 1024,
        }),
        Box::new(dct::Dct {
            width: 384,
            height: 384,
        }),
        Box::new(mc::MonteCarlo {
            points: 384,
            walks_per_point: 192,
            seed: next(),
        }),
        Box::new(kmeans::KMeans {
            points: 65_536,
            seed: next(),
            ..Default::default()
        }),
        Box::new(jacobi::Jacobi {
            n: 2048,
            seed: next(),
            ..Default::default()
        }),
        Box::new(fluidanimate::Fluidanimate {
            particles: 2048,
            seed: next(),
            ..Default::default()
        }),
    ]
}

/// What setup fixes for one kernel.
struct Prepared {
    bench: Box<dyn Benchmark>,
    reference: RunOutput,
    quality: f64,
    tasks: TaskCounts,
}

fn prepare(seed: u64, workers: usize) -> Vec<Prepared> {
    suite(seed)
        .into_iter()
        .map(|bench| {
            let reference = bench.run_full_accuracy(workers, Policy::SignificanceAgnostic);
            let probe = bench.run(&ExecutionConfig::significance(workers, POLICY, DEGREE));
            let quality = bench.quality(&reference, &probe).value;
            Prepared {
                tasks: probe.tasks,
                bench,
                reference,
                quality,
            }
        })
        .collect()
}

/// Per-kernel sums over the traced rounds.
#[derive(Default, Clone)]
struct KernelSums {
    runs: f64,
    makespan: f64,
    busy: f64,
    quality: f64,
    tasks: TaskCounts,
}

#[derive(Default)]
struct Pass {
    round_seconds: Vec<f64>,
    round_joules: Vec<f64>,
    kernels: Vec<KernelSums>,
    energy: [f64; 3],
    ratio_dev: Vec<f64>,
    inversions: Vec<f64>,
    transitions: u64,
}

/// Run rounds until `deadline`.
fn measure(
    kernels: &[Prepared],
    workers: usize,
    deadline: Instant,
    outcome: &mut Outcome,
    tracer: &mut Tracer,
) -> Pass {
    let config = ExecutionConfig::significance(workers, POLICY, DEGREE);
    let mut pass = Pass {
        kernels: vec![KernelSums::default(); kernels.len()],
        ..Pass::default()
    };
    while Instant::now() < deadline || pass.round_seconds.is_empty() {
        let mut round = 0.0;
        let mut joules = 0.0;
        tracer.enter("bench.round");
        for (index, (kernel, name)) in kernels.iter().zip(KERNEL_SPANS).enumerate() {
            let out = tracer.span(name, || kernel.bench.run(&config));
            round += out.elapsed.as_secs_f64();

            let quality = kernel.bench.quality(&kernel.reference, &out).value;
            outcome.check(
                quality.to_bits() == kernel.quality.to_bits()
                    && out.tasks == kernel.tasks
                    && out.energy.is_some(),
                || {
                    format!(
                        "{}: quality {quality} tasks {:?}, reference {} tasks {:?}",
                        KERNELS[index], out.tasks, kernel.quality, kernel.tasks
                    )
                },
            );
            if let Some(energy) = out.energy {
                joules += energy.joules;
                pass.energy[0] += energy.breakdown.dynamic_joules;
                pass.energy[1] += energy.breakdown.static_joules;
                pass.energy[2] += energy.breakdown.idle_joules;
            }
            pass.transitions += out.frequency_transitions;
            for (_, group) in &out.groups {
                pass.ratio_dev.push(group.ratio_diff());
                pass.inversions.push(group.inversion_percentage());
            }
            let sums = &mut pass.kernels[index];
            sums.runs += 1.0;
            sums.makespan += out.elapsed.as_secs_f64();
            sums.busy += out.busy_core_seconds;
            sums.quality = quality;
            sums.tasks = out.tasks;
        }
        tracer.exit();
        pass.round_seconds.push(round);
        pass.round_joules.push(joules);
    }
    pass
}

/// Span names of the kernel calls, in [`KERNELS`] order.
const KERNEL_SPANS: [&str; 6] = [
    "kernel.sobel",
    "kernel.dct",
    "kernel.mc",
    "kernel.kmeans",
    "kernel.jacobi",
    "kernel.fluidanimate",
];

pub fn run(config: &Config, plan: ThreadPlan, tracer: &mut Tracer) -> Outcome {
    let workers = plan.workers;
    let (setup_s, kernels) = crate::timed_setup(|| prepare(config.seed, workers));
    let mut outcome = Outcome::default();
    for (name, kernel) in KERNELS.iter().zip(&kernels) {
        outcome.check(kernel.quality.is_finite(), || {
            format!("{name}: reference quality {} is not finite", kernel.quality)
        });
    }

    let start = Instant::now();
    if !config.trace {
        let pass = measure(
            &kernels,
            workers,
            start + config.window(),
            &mut outcome,
            tracer,
        );
        let wall: f64 = pass.round_seconds.iter().sum();
        let p50 = stats::median(&pass.round_seconds).expect("one round at least");
        let tail = stats::tail(&pass.round_seconds).expect("one round at least");
        let joules = stats::median(&pass.round_joules)
            .expect("one round at least")
            .value;
        outcome.end_to_end = crate::report::EndToEnd {
            setup_s,
            op_p50_ms: p50.value * 1e3,
            op_tail_ms: tail.value * 1e3,
            items_per_s: pass.round_seconds.len() as f64 / wall,
            joules_per_item: joules,
            goodput: 1.0 - outcome.failed as f64 / outcome.attempted as f64,
        };
        outcome.named("makespan_s", p50.value, "s");
        if tail.pct > 50.0 {
            outcome.named(&format!("makespan_s.p{}", tail.pct), tail.value, "s");
        }
        outcome.named("makespan_s.samples", tail.samples as f64, "count");
        outcome.named("joules", joules, "J");
        for (name, kernel) in KERNELS.iter().zip(&kernels) {
            outcome.named(
                &format!("kernel.{name}.reference_quality"),
                kernel.quality,
                "score",
            );
        }
        return outcome;
    }

    // Traced run: half untraced, half traced; the difference in median
    // round time is the tracing overhead.
    let half = config.window() / 2;
    let plain = measure(&kernels, workers, start + half, &mut outcome, tracer);
    tracer.set_on(true);
    let traced = measure(
        &kernels,
        workers,
        Instant::now() + half,
        &mut outcome,
        tracer,
    );
    tracer.set_on(false);

    let median = |v: &[f64]| stats::median(v).map_or(0.0, |p| p.value);
    outcome.layer(
        "trace.overhead_pct",
        crate::overhead_pct(median(&plain.round_seconds), median(&traced.round_seconds)),
    );
    let rounds = traced.round_seconds.len() as f64;
    let mut busy = 0.0;
    let mut makespan = 0.0;
    for (name, sums) in KERNELS.iter().zip(&traced.kernels) {
        let runs = sums.runs.max(1.0);
        busy += sums.busy;
        makespan += sums.makespan;
        outcome.layer(&format!("kernel.{name}.makespan_s"), sums.makespan / runs);
        outcome.layer(&format!("kernel.{name}.busy_core_s"), sums.busy / runs);
        outcome.layer(
            &format!("kernel.{name}.accurate"),
            sums.tasks.accurate as f64,
        );
        outcome.layer(
            &format!("kernel.{name}.approximate"),
            sums.tasks.approximate as f64,
        );
        outcome.layer(&format!("kernel.{name}.dropped"), sums.tasks.dropped as f64);
        outcome.layer(&format!("kernel.{name}.quality"), sums.quality);
    }
    outcome.layer("runtime.busy_share", busy / (workers as f64 * makespan));
    outcome.layer("policy.ratio_dev", stats::mean(&traced.ratio_dev));
    outcome.layer("policy.inversion_pct", stats::mean(&traced.inversions));
    outcome.layer("energy.dynamic_j", traced.energy[0] / rounds);
    outcome.layer("energy.static_j", traced.energy[1] / rounds);
    outcome.layer("energy.idle_j", traced.energy[2] / rounds);
    outcome.layer(
        "env.frequency_transitions",
        traced.transitions as f64 / rounds,
    );
    outcome
}
