//! End-to-end and per-layer benchmark of the significance-aware runtime
//! stack. See README.md for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <kernels|tasks|serve|fleet> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The program measures for `--seconds`, checks every operation's output,
//! prints each metric by name and unit, and ends with one JSON result line.
//! It exits non-zero when a check fails.

mod fleet;
mod kernels;
mod micro;
mod plan;
mod report;
mod serve;
mod stats;
mod tasks;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use plan::ThreadPlan;
use report::{EndToEnd, Outcome};
use sig_core::Runtime;
use trace::Tracer;

/// Settings of one run, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Config {
    /// The measuring window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

const WORKLOADS: [&str; 4] = ["kernels", "tasks", "serve", "fleet"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((
        workload,
        Config {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        },
    ))
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Times every workload runs its setup; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Median wall time of [`SETUP_REPS`] calls of `setup`, keeping the last
/// result.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        let value = setup();
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    let median = stats::median(&times).expect("at least one setup").value;
    (median, last.expect("at least one setup"))
}

/// Modelled joules of `rt` so far: `[total, dynamic, static, idle]`.
pub fn joules(rt: &Runtime) -> [f64; 4] {
    let reading = rt.energy_report().reading();
    [
        reading.joules,
        reading.breakdown.dynamic_joules,
        reading.breakdown.static_joules,
        reading.breakdown.idle_joules,
    ]
}

/// Trace overhead: how much worse `traced` is than `untraced`, in percent,
/// for a figure where lower is better.
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        (traced - untraced) / untraced * 100.0
    } else {
        0.0
    }
}

fn run(workload: &str, config: &Config) -> Result<(ThreadPlan, Outcome, Tracer), String> {
    let nproc = plan::nproc();
    let plan = match workload {
        "kernels" => plan::parked_main(nproc),
        "tasks" | "serve" => plan::busy_main(nproc),
        _ => plan::single_thread(nproc),
    }?;
    println!("plan workload={workload} {plan}");
    let mut tracer = Tracer::new(false);
    let outcome = match workload {
        "kernels" => kernels::run(config, plan, &mut tracer),
        "tasks" => tasks::run(config, plan, &mut tracer),
        "serve" => serve::run(config, plan, &mut tracer),
        _ => fleet::run(config, &mut tracer),
    };
    Ok((plan, outcome, tracer))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, config) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let (plan, mut outcome, tracer) = match run(&workload, &config) {
        Ok(done) => done,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let rss = match peak_rss_mb() {
        Ok(mb) => mb,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    println!("metric nproc {} count", plan.nproc);
    println!("metric workers {} count", plan.workers);
    for (name, value, unit) in &outcome.named {
        println!("metric {name} {value:?} {unit}");
    }
    let metrics: Vec<(String, f64, &str)> = if config.trace {
        let spans = tracer.spans().len() as f64;
        outcome.layer("trace.spans", spans);
        for (layer, seconds) in tracer.self_seconds_by_layer() {
            outcome.layer(&format!("self_s.{layer}"), seconds);
        }
        let path = PathBuf::from(format!(
            "perfbench/target/traces/{workload}-{}.tsv",
            config.seed
        ));
        match tracer.write_tsv(&path) {
            Ok(()) => println!("trace {} spans written to {}", spans, path.display()),
            Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
        }
        let layers = report::per_layer();
        for name in outcome.layers.keys() {
            assert!(
                layers.iter().any(|(known, _)| known == name),
                "per-layer metric {name} is not declared"
            );
        }
        layers
            .into_iter()
            .map(|(name, unit)| {
                let value = outcome.layers.get(&name).copied().unwrap_or(0.0);
                (name, value, unit)
            })
            .collect()
    } else {
        let EndToEnd {
            setup_s,
            op_p50_ms,
            op_tail_ms,
            items_per_s,
            joules_per_item,
            goodput,
        } = outcome.end_to_end;
        let values = [
            setup_s,
            rss,
            op_p50_ms,
            op_tail_ms,
            items_per_s,
            joules_per_item,
            goodput,
        ];
        report::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name.to_string(), value, unit))
            .collect()
    };
    for (name, value, unit) in &metrics {
        println!("metric {name} {value:?} {unit}");
    }
    for failure in &outcome.failures {
        eprintln!("check failed: {failure}");
    }
    let (correct, line) = report::result_line(
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        &metrics,
    );
    println!("{line}");
    if correct && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let (workload, config) = parse_args(&args(&[
            "--workload",
            "fleet",
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(workload, "fleet");
        assert_eq!((config.seed, config.seconds, config.trace), (7, 2.0, true));
        assert!(parse_args(&args(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&args(&[
            "--workload",
            "tasks",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&args(&["--workload", "tasks"])).is_err());
    }
}
