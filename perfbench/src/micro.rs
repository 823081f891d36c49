//! Direct-call timings of the serving and cluster layers, for the traced
//! runs: each loop calls one public function many times over seeded inputs
//! inside a span named after its layer.

use std::time::Instant;

use sig_serving::{AdmissionConfig, AdmissionController, LatencySketch, RequestClass, SplitMix64};

use crate::trace::Tracer;

/// Calls per timed loop.
pub const CALLS: usize = 200_000;

/// Mean nanoseconds per call of `f(i)` for `i in 0..calls`, in a span.
pub fn per_call(
    tracer: &mut Tracer,
    span: &'static str,
    calls: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    tracer.enter(span);
    let start = Instant::now();
    for i in 0..calls {
        f(std::hint::black_box(i));
    }
    let nanos = start.elapsed().as_nanos() as f64;
    tracer.exit();
    nanos / calls as f64
}

/// `(record_ns, merge_ns)` of `LatencySketch`.
pub fn sketch(tracer: &mut Tracer) -> (f64, f64) {
    let mut rng = SplitMix64::new(0x736b_6574_6368);
    let samples: Vec<u64> = (0..4096)
        .map(|_| (rng.next_exp(1.0 / 300_000.0) as u64).max(1))
        .collect();
    let mut sketch = LatencySketch::new();
    let record = per_call(tracer, "sketch.record", CALLS, |i| {
        sketch.record(samples[i % samples.len()]);
    });
    let mut merged = LatencySketch::new();
    let merge = per_call(tracer, "sketch.merge", CALLS / 100, |_| {
        merged.merge(&sketch)
    });
    std::hint::black_box(merged.count());
    (record, merge)
}

/// Nanoseconds per `AdmissionController::decide` over a seeded sweep of
/// queue depths and the given classes.
pub fn admission(tracer: &mut Tracer, config: AdmissionConfig, classes: &[RequestClass]) -> f64 {
    let mut controller = AdmissionController::new(config);
    let mut rng = SplitMix64::new(0x6164_6d69_7474);
    let depths: Vec<usize> = (0..4096)
        .map(|_| (rng.next_u64() % (4 * config.queue_watermark.max(1) as u64)) as usize)
        .collect();
    per_call(tracer, "admission.decide", CALLS, |i| {
        let class = &classes[i % classes.len()];
        std::hint::black_box(controller.decide(class, depths[i % depths.len()]));
    })
}
