//! Cross-crate integration tests: runtime policies driving real kernels,
//! with energy accounting and quality evaluation end to end.

use significance_repro::energy::{
    EnergyMeter, PowerModel, WorkClass, WorkUnitMeter, WorkUnitModel,
};
use significance_repro::kernels::sobel::Sobel;
use significance_repro::kernels::{all_benchmarks, Approach, Benchmark, Degree, ExecutionConfig};
use significance_repro::prelude::*;

fn workers() -> usize {
    ExecutionConfig::default_workers().min(4)
}

#[test]
fn every_benchmark_runs_under_every_policy() {
    for benchmark in all_benchmarks() {
        // Use the bench-scale inputs via default configs but only the
        // Aggressive degree (cheapest) to keep the test fast.
        for policy in [
            Policy::Gtb { buffer_size: 16 },
            Policy::GtbMaxBuffer,
            Policy::Lqh,
        ] {
            let run = benchmark.run(&ExecutionConfig::significance(
                workers(),
                policy,
                Degree::Aggressive,
            ));
            assert!(
                !run.values.is_empty(),
                "{} produced no output under {:?}",
                benchmark.name(),
                policy
            );
            assert!(
                run.tasks.total > 0,
                "{} executed no tasks under {:?}",
                benchmark.name(),
                policy
            );
        }
    }
}

#[test]
fn quality_degrades_monotonically_with_degree_for_sobel() {
    let sobel = Sobel {
        width: 128,
        height: 128,
    };
    let reference = sobel.run(&ExecutionConfig::accurate(workers()));
    let mut previous = 0.0;
    for degree in [Degree::Mild, Degree::Medium, Degree::Aggressive] {
        let run = sobel.run(&ExecutionConfig::significance(
            workers(),
            Policy::GtbMaxBuffer,
            degree,
        ));
        let quality = sobel.quality(&reference, &run).value;
        assert!(
            quality + 1e-12 >= previous,
            "quality should not improve as approximation grows: {quality} < {previous}"
        );
        previous = quality;
    }
}

#[test]
fn approximate_execution_reduces_modelled_energy() {
    // Compare on a deterministic work basis: every row a run executed is
    // charged to a work-unit meter, one unit per pixel, at the accurate or
    // the approximate rate. Wall-clock busy time cannot carry this
    // comparison: the two runs differ by about a fifth of their busy time,
    // and the other tests of this binary, running alongside, swing a single
    // sample (and even the minimum of several) by more than that.
    let sobel = Sobel {
        width: 256,
        height: 256,
    };
    let modelled = |degree| {
        let run = sobel.run(&ExecutionConfig::significance(
            workers(),
            Policy::GtbMaxBuffer,
            degree,
        ));
        assert_eq!(run.tasks.total, sobel.height - 2, "one task per inner row");
        let pixels_per_row = (sobel.width - 2) as u64;
        let meter = WorkUnitMeter::new(WorkUnitModel::default());
        meter.charge(
            WorkClass::Accurate,
            run.tasks.accurate as u64 * pixels_per_row,
        );
        meter.charge(
            WorkClass::Approximate,
            run.tasks.approximate as u64 * pixels_per_row,
        );
        (run.tasks, meter.joules())
    };
    let (mild_tasks, mild_joules) = modelled(Degree::Mild);
    let (aggressive_tasks, aggressive_joules) = modelled(Degree::Aggressive);
    assert!(
        aggressive_tasks.accurate < mild_tasks.accurate,
        "aggressive approximation should run fewer accurate bodies: {aggressive_tasks:?} vs {mild_tasks:?}"
    );
    assert!(
        aggressive_joules < mild_joules,
        "aggressive approximation should use less energy: {aggressive_joules} vs {mild_joules}"
    );
}

#[test]
fn energy_meter_integrates_runtime_busy_time() {
    let meter = EnergyMeter::new(PowerModel::for_host());
    let sobel = Sobel {
        width: 128,
        height: 128,
    };
    let run = sobel.run(&ExecutionConfig::significance(
        workers(),
        Policy::Lqh,
        Degree::Medium,
    ));
    meter.record_busy_secs(run.busy_core_seconds);
    let reading = meter.read_at(run.elapsed.as_secs_f64());
    assert!(reading.joules > 0.0);
    assert!(reading.busy_core_seconds > 0.0);
}

#[test]
fn perforation_baseline_is_available_where_the_paper_applies_it() {
    for benchmark in all_benchmarks() {
        let info = benchmark.info();
        if info.perforation_supported {
            let run = benchmark.run(&ExecutionConfig {
                workers: workers(),
                approach: Approach::Perforation {
                    degree: Degree::Aggressive,
                },
            });
            assert!(
                !run.values.is_empty(),
                "{} perforation run empty",
                info.name
            );
        } else {
            assert_eq!(
                info.name, "Fluidanimate",
                "only Fluidanimate lacks a perforation comparator"
            );
        }
    }
}
