//! Fluidanimate: smoothed-particle-hydrodynamics (SPH) fluid simulation
//! (modelled on the PARSEC workload the paper uses).
//!
//! The fluid is a set of particles in a unit box. Each time step either runs
//! **fully accurately** (densities and forces are evaluated from the particle
//! neighbourhood and integrated) or **fully approximately** ("the new
//! position of each particle is estimated assuming it will move linearly, in
//! the same direction and with the same velocity as it did in the previous
//! time steps"). The choice is made per time step by setting the `ratio`
//! clause of the step's `taskwait` to `1.0` or `0.0` — exactly the trick the
//! paper highlights as trivially expressible in the programming model, and
//! accurate and approximate steps must alternate to keep the physics stable.
//!
//! Like PARSEC's, the accurate step finds neighbours on a uniform cell
//! grid rather than by scanning every particle. Each step cuts the box into
//! `g × g` cells with `g = ceil(1 / radius) - 1`, so the cell side is
//! strictly larger than the interaction radius and every neighbour of a
//! particle lies in the 3×3 block of cells around it. Per cell, a bitset
//! over particle indices marks the particles of that block. The accurate
//! body walks its particle's bitset in ascending index order and sums the
//! forces in exactly the order a scan over all particles would; the
//! particles it skips are the ones that scan rejects as out of range, so
//! the output is bit-identical to the all-pairs computation.
//!
//! Degrees (Table 1): fraction of accurate time steps 50% / 25% / 12.5%;
//! quality metric relative error of the final particle positions.
//! Loop perforation is **not applicable**: dropping part of the particles in
//! a step violates the physics (Section 4.2).

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sig_core::{Policy, Runtime, SharedGrid};
use sig_quality::QualityMetric;

use crate::common::{
    Approach, ApproxTechnique, Benchmark, BenchmarkInfo, Degree, ExecutionConfig, RunOutput,
};

/// Number of scalar values stored per particle: position (x, y), velocity
/// (x, y).
const STRIDE: usize = 4;

/// Fluidanimate benchmark configuration.
#[derive(Debug, Clone)]
pub struct Fluidanimate {
    /// Number of particles.
    pub particles: usize,
    /// Number of simulated time steps.
    pub steps: usize,
    /// Number of task chunks per time step.
    pub chunks: usize,
    /// Integration time step.
    pub dt: f64,
    /// SPH interaction radius.
    pub radius: f64,
    /// RNG seed for the initial particle distribution.
    pub seed: u64,
}

impl Default for Fluidanimate {
    fn default() -> Self {
        Fluidanimate {
            particles: 1024,
            steps: 24,
            chunks: 16,
            dt: 0.002,
            radius: 0.06,
            seed: 0x5eed_0004,
        }
    }
}

/// Cells per side of the neighbour grid: the largest `g` whose cell side
/// `1 / g` is strictly larger than `radius`, i.e. `ceil(1 / radius) - 1`.
/// A relative margin of 1e-9 keeps rounding in the cell index from ever
/// placing two particles closer than `radius` in non-adjacent cells. The
/// grid never has more cells than particles: coarser cells only add
/// candidates, so the cap bounds the index's memory without changing a bit.
fn cells_per_side(radius: f64, particles: usize) -> usize {
    let side = ((1.0 - 1e-9) / radius).ceil() as usize;
    let max_side = (particles as f64).sqrt() as usize;
    side.saturating_sub(1).clamp(1, max_side.max(1))
}

/// Uniform-grid neighbour index over one time step's particle positions.
///
/// The unit box is cut into `side × side` cells whose side exceeds the
/// interaction radius, so every particle within `radius` of a particle lies
/// in the 3×3 block of cells around it. For each cell the index stores a
/// bitset over particle indices marking every particle in that block; an
/// accurate step walks the bitset of its particle's cell instead of all `n`
/// particles.
struct NeighbourGrid {
    /// `u64` words per bitset: one bit per particle.
    words: usize,
    /// Cell index (`y * side + x`) of every particle.
    cell_of: Vec<usize>,
    /// `side * side` bitsets of `words` words each.
    blocks: Vec<u64>,
}

impl NeighbourGrid {
    fn build(state: &[f64], radius: f64) -> Self {
        let n = state.len() / STRIDE;
        let side = cells_per_side(radius, n);
        let words = n.div_ceil(64);
        // `as usize` saturates, so a coordinate on (or, from rounding, just
        // past) a wall still lands in an edge cell.
        let cell = |coord: f64| ((coord * side as f64) as usize).min(side - 1);
        let mut cell_of = Vec::with_capacity(n);
        let mut blocks = vec![0u64; side * side * words];
        for (j, p) in state.chunks_exact(STRIDE).enumerate() {
            let (cx, cy) = (cell(p[0]), cell(p[1]));
            cell_of.push(cy * side + cx);
            let (word, bit) = (j / 64, 1u64 << (j % 64));
            for ny in cy.saturating_sub(1)..=(cy + 1).min(side - 1) {
                for nx in cx.saturating_sub(1)..=(cx + 1).min(side - 1) {
                    blocks[(ny * side + nx) * words + word] |= bit;
                }
            }
        }
        NeighbourGrid {
            words,
            cell_of,
            blocks,
        }
    }

    /// Bitset of the particles in the 3×3 cell block around particle `i`
    /// (including `i` itself).
    fn candidates(&self, i: usize) -> &[u64] {
        let start = self.cell_of[i] * self.words;
        &self.blocks[start..start + self.words]
    }
}

/// Accurate update of one chunk of particles: SPH-style density/pressure
/// forces from all neighbours within the interaction radius, plus gravity and
/// box collisions, then symplectic Euler integration.
///
/// Neighbours come from `grid`, walked in ascending particle index. Every
/// particle the grid skips lies farther than `radius` away, where the force
/// term is zero and no addition happens, so the sums see the same terms in
/// the same order as a scan over all `n` particles and the result is
/// bit-identical to it.
fn step_accurate(
    state: &[f64],
    grid: &NeighbourGrid,
    range: std::ops::Range<usize>,
    dt: f64,
    radius: f64,
    out: &mut [f64],
) {
    let r2 = radius * radius;
    for (local, i) in range.enumerate() {
        let xi = state[i * STRIDE];
        let yi = state[i * STRIDE + 1];

        // Pairwise repulsion within the smoothing radius (a simplified SPH
        // pressure force), over the candidates of the particle's cell block.
        let mut fx = 0.0;
        let mut fy = 0.0;
        for (word, mut bits) in grid.candidates(i).iter().copied().enumerate() {
            while bits != 0 {
                let j = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if j == i {
                    continue;
                }
                let dx = xi - state[j * STRIDE];
                let dy = yi - state[j * STRIDE + 1];
                let d2 = dx * dx + dy * dy;
                if d2 < r2 && d2 > 1e-12 {
                    let d = d2.sqrt();
                    let overlap = (radius - d) / radius;
                    fx += overlap * overlap * dx / d * 40.0;
                    fy += overlap * overlap * dy / d * 40.0;
                }
            }
        }
        // Gravity.
        fy -= 9.8;
        let vx = state[i * STRIDE + 2] + fx * dt;
        let vy = state[i * STRIDE + 3] + fy * dt;
        integrate(xi, yi, vx, vy, dt, &mut out[local * STRIDE..]);
    }
}

/// Approximate update: pure linear extrapolation with the previous velocity
/// (no force evaluation), with the same box clamping.
fn step_approximate(state: &[f64], range: std::ops::Range<usize>, dt: f64, out: &mut [f64]) {
    for (local, i) in range.enumerate() {
        let p = &state[i * STRIDE..(i + 1) * STRIDE];
        integrate(p[0], p[1], p[2], p[3], dt, &mut out[local * STRIDE..]);
    }
}

/// Move a particle from `(x, y)` with velocity `(vx, vy)` for one step,
/// bounce it off the box walls with damping, and write its new state to the
/// first `STRIDE` values of `out`.
fn integrate(x: f64, y: f64, mut vx: f64, mut vy: f64, dt: f64, out: &mut [f64]) {
    let mut x = x + vx * dt;
    let mut y = y + vy * dt;
    if x < 0.0 {
        x = 0.0;
        vx = -vx * 0.5;
    }
    if x > 1.0 {
        x = 1.0;
        vx = -vx * 0.5;
    }
    if y < 0.0 {
        y = 0.0;
        vy = -vy * 0.5;
    }
    if y > 1.0 {
        y = 1.0;
        vy = -vy * 0.5;
    }
    out[..STRIDE].copy_from_slice(&[x, y, vx, vy]);
}

impl Fluidanimate {
    /// Period of accurate time steps for an approximation degree: every 2nd,
    /// 4th or 8th step is accurate (= 50% / 25% / 12.5% accurate steps,
    /// Table 1).
    pub fn accurate_period_for(degree: Degree) -> usize {
        match degree {
            Degree::Mild => 2,
            Degree::Medium => 4,
            Degree::Aggressive => 8,
        }
    }

    /// Deterministic initial particle state: a block of fluid in the upper
    /// half of the box with a small random jitter and zero velocity.
    pub fn initial_state(&self) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut state = Vec::with_capacity(self.particles * STRIDE);
        let cols = (self.particles as f64).sqrt().ceil() as usize;
        for p in 0..self.particles {
            let gx = (p % cols) as f64 / cols as f64;
            let gy = (p / cols) as f64 / cols as f64;
            state.push(0.25 + 0.5 * gx + rng.gen_range(-0.005..0.005));
            state.push(0.5 + 0.45 * gy + rng.gen_range(-0.005..0.005));
            state.push(0.0);
            state.push(0.0);
        }
        state
    }

    fn chunk_range(&self, chunk: usize) -> std::ops::Range<usize> {
        let per_chunk = self.particles.div_ceil(self.chunks);
        let start = chunk * per_chunk;
        let end = ((chunk + 1) * per_chunk).min(self.particles);
        start..end
    }

    /// Serial fully accurate simulation; returns the final particle
    /// positions (x, y interleaved).
    pub fn run_accurate_serial(&self) -> Vec<f64> {
        let mut state = self.initial_state();
        for _ in 0..self.steps {
            let grid = NeighbourGrid::build(&state, self.radius);
            let mut next = vec![0.0f64; state.len()];
            for chunk in 0..self.chunks {
                let range = self.chunk_range(chunk);
                let out_range = range.start * STRIDE..range.end * STRIDE;
                step_accurate(
                    &state,
                    &grid,
                    range,
                    self.dt,
                    self.radius,
                    &mut next[out_range],
                );
            }
            state = next;
        }
        positions_of(&state)
    }

    /// Significance-annotated task execution: each time step's barrier
    /// carries `ratio(1.0)` or `ratio(0.0)` depending on whether the step is
    /// an accurate or an extrapolation step.
    pub fn run_tasks(&self, workers: usize, policy: Policy, accurate_period: usize) -> RunOutput {
        let dt = self.dt;
        let radius = self.radius;
        let per_chunk = self.particles.div_ceil(self.chunks);
        let mut state = Arc::new(self.initial_state());

        let start = Instant::now();
        let rt = Runtime::builder().workers(workers).policy(policy).build();
        let group = rt.create_group("fluidanimate", 1.0);
        for step in 0..self.steps {
            // Accurate steps occur once every `accurate_period` steps; the
            // remaining steps are linear extrapolation.
            let accurate_step = step % accurate_period == 0;
            let next = SharedGrid::new(self.chunks, per_chunk * STRIDE, 0.0f64);
            // The neighbour index is built here for an accurate step. On an
            // extrapolation step it is built only if a policy still runs
            // some accurate body, by the first such body.
            let grid = Arc::new(OnceLock::new());
            if accurate_step {
                grid.get_or_init(|| NeighbourGrid::build(&state, radius));
            }
            for chunk in 0..self.chunks {
                let range = self.chunk_range(chunk);
                let writer = Arc::new(std::sync::Mutex::new(next.row_writer(chunk)));
                let writer_apx = writer.clone();
                let state_acc = state.clone();
                let grid = grid.clone();
                let state_apx = state.clone();
                let range_apx = range.clone();
                let len = range.len();
                rt.task(move || {
                    let grid = grid.get_or_init(|| NeighbourGrid::build(&state_acc, radius));
                    let mut out = writer.lock().expect("chunk writer");
                    step_accurate(
                        &state_acc,
                        grid,
                        range.clone(),
                        dt,
                        radius,
                        &mut out.as_mut_slice()[..len * STRIDE],
                    );
                })
                .approx(move || {
                    let mut out = writer_apx.lock().expect("chunk writer");
                    step_approximate(
                        &state_apx,
                        range_apx.clone(),
                        dt,
                        &mut out.as_mut_slice()[..len * STRIDE],
                    );
                })
                .significance(0.5)
                .group(&group)
                .spawn();
            }
            rt.wait_group_with_ratio(&group, if accurate_step { 1.0 } else { 0.0 });

            let rows = next.snapshot();
            let mut merged = vec![0.0f64; self.particles * STRIDE];
            for chunk in 0..self.chunks {
                let range = self.chunk_range(chunk);
                let len = range.len();
                merged[range.start * STRIDE..range.end * STRIDE].copy_from_slice(
                    &rows[chunk * per_chunk * STRIDE..chunk * per_chunk * STRIDE + len * STRIDE],
                );
            }
            state = Arc::new(merged);
        }
        let elapsed = start.elapsed();
        RunOutput::from_runtime(&rt, positions_of(&state), elapsed)
    }
}

/// Extract the interleaved (x, y) positions from the particle state.
fn positions_of(state: &[f64]) -> Vec<f64> {
    state
        .chunks_exact(STRIDE)
        .flat_map(|p| [p[0], p[1]])
        .collect()
}

impl Benchmark for Fluidanimate {
    fn info(&self) -> BenchmarkInfo {
        BenchmarkInfo {
            name: "Fluidanimate",
            technique: ApproxTechnique::Approximate,
            degree_parameter: "fraction of accurate time steps",
            degrees: [0.50, 0.25, 0.125],
            metric: QualityMetric::RelativeError,
            perforation_supported: false,
        }
    }

    fn run(&self, config: &ExecutionConfig) -> RunOutput {
        match config.approach {
            Approach::Accurate => {
                let start = Instant::now();
                let out = self.run_accurate_serial();
                RunOutput::serial(out, start.elapsed())
            }
            Approach::Significance { policy, degree } => self.run_tasks(
                config.workers,
                policy,
                Fluidanimate::accurate_period_for(degree),
            ),
            Approach::Perforation { .. } => {
                panic!("loop perforation is not applicable to Fluidanimate (paper, Section 4.2)")
            }
        }
    }

    fn run_full_accuracy(&self, workers: usize, policy: Policy) -> RunOutput {
        // Accurate period 1: every time step runs its accurate body.
        self.run_tasks(workers, policy, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Fluidanimate {
        Fluidanimate {
            particles: 256,
            steps: 12,
            chunks: 8,
            dt: 0.002,
            radius: 0.08,
            seed: 9,
        }
    }

    /// The all-pairs accurate step the neighbour grid replaced: every
    /// particle scans all `n` particles. Kept as the bit-identity oracle.
    fn step_all_pairs(
        state: &[f64],
        range: std::ops::Range<usize>,
        dt: f64,
        radius: f64,
        out: &mut [f64],
    ) {
        let n = state.len() / STRIDE;
        let r2 = radius * radius;
        for (local, i) in range.enumerate() {
            let xi = state[i * STRIDE];
            let yi = state[i * STRIDE + 1];
            let mut fx = 0.0;
            let mut fy = 0.0;
            for j in 0..n {
                if j == i {
                    continue;
                }
                let dx = xi - state[j * STRIDE];
                let dy = yi - state[j * STRIDE + 1];
                let d2 = dx * dx + dy * dy;
                if d2 < r2 && d2 > 1e-12 {
                    let d = d2.sqrt();
                    let overlap = (radius - d) / radius;
                    fx += overlap * overlap * dx / d * 40.0;
                    fy += overlap * overlap * dy / d * 40.0;
                }
            }
            fy -= 9.8;
            let vx = state[i * STRIDE + 2] + fx * dt;
            let vy = state[i * STRIDE + 3] + fy * dt;
            integrate(xi, yi, vx, vy, dt, &mut out[local * STRIDE..]);
        }
    }

    /// Final particle state of a fully accurate all-pairs simulation.
    fn all_pairs_final_state(f: &Fluidanimate) -> Vec<f64> {
        let mut state = f.initial_state();
        for _ in 0..f.steps {
            let mut next = vec![0.0f64; state.len()];
            step_all_pairs(&state, 0..f.particles, f.dt, f.radius, &mut next);
            state = next;
        }
        state
    }

    /// Index of the first value whose bits differ, if any.
    fn first_bit_mismatch(a: &[f64], b: &[f64]) -> Option<usize> {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .position(|(x, y)| x.to_bits() != y.to_bits())
    }

    /// Both accurate paths reproduce the all-pairs oracle bit for bit.
    fn assert_matches_all_pairs(f: &Fluidanimate) -> Vec<f64> {
        let oracle = all_pairs_final_state(f);
        let positions = positions_of(&oracle);
        let serial = f.run_accurate_serial();
        assert_eq!(first_bit_mismatch(&serial, &positions), None, "serial");
        let tasks = f.run_tasks(2, Policy::GtbMaxBuffer, 1);
        assert_eq!(first_bit_mismatch(&tasks.values, &positions), None, "tasks");
        oracle
    }

    #[test]
    fn grid_matches_all_pairs_at_library_default() {
        assert_matches_all_pairs(&Fluidanimate::default());
    }

    #[test]
    fn grid_matches_all_pairs_at_benchmark_size() {
        assert_matches_all_pairs(&Fluidanimate {
            particles: 2048,
            steps: 24,
            radius: 0.06,
            ..Fluidanimate::default()
        });
    }

    #[test]
    fn grid_matches_all_pairs_with_a_single_cell() {
        let f = Fluidanimate {
            particles: 300,
            steps: 12,
            radius: 0.6,
            ..Fluidanimate::default()
        };
        assert_eq!(cells_per_side(f.radius, f.particles), 1);
        assert_matches_all_pairs(&f);
    }

    #[test]
    fn grid_matches_all_pairs_when_radius_divides_the_box() {
        let f = Fluidanimate {
            particles: 700,
            steps: 16,
            radius: 1.0 / 16.0,
            ..Fluidanimate::default()
        };
        // 1/16 gives 15 cells of side 1/15, not 16 cells of side exactly
        // the radius.
        assert_eq!(cells_per_side(f.radius, f.particles), 15);
        assert_matches_all_pairs(&f);
    }

    #[test]
    fn grid_matches_all_pairs_once_particles_pile_on_the_walls() {
        let f = Fluidanimate {
            particles: 512,
            steps: 90,
            dt: 0.01,
            ..Fluidanimate::default()
        };
        let state = assert_matches_all_pairs(&f);
        let on = |axis: usize, wall: f64| {
            state
                .chunks_exact(STRIDE)
                .filter(|p| p[axis] == wall)
                .count()
        };
        assert!(on(1, 0.0) > 0, "no particle on the floor");
        assert!(on(0, 0.0) + on(0, 1.0) > 0, "no particle on a side wall");
    }

    #[test]
    fn cells_are_wider_than_the_radius_and_never_outnumber_particles() {
        for radius in [0.03, 0.06, 0.0625, 0.08, 0.25, 0.5, 0.9, 2.0] {
            let side = cells_per_side(radius, 1 << 20);
            assert!(1.0 / side as f64 > radius || side == 1, "{radius}");
            assert_eq!(
                side,
                ((1.0 / radius).ceil() as usize).saturating_sub(1).max(1)
            );
        }
        assert_eq!(cells_per_side(0.001, 100), 10);
        assert_eq!(cells_per_side(0.0, 1), 1);
    }

    #[test]
    fn periods_match_table1() {
        assert_eq!(Fluidanimate::accurate_period_for(Degree::Mild), 2);
        assert_eq!(Fluidanimate::accurate_period_for(Degree::Medium), 4);
        assert_eq!(Fluidanimate::accurate_period_for(Degree::Aggressive), 8);
    }

    #[test]
    fn initial_state_is_deterministic_and_inside_the_box() {
        let f = small();
        let a = f.initial_state();
        assert_eq!(a, f.initial_state());
        assert_eq!(a.len(), f.particles * STRIDE);
        for p in a.chunks_exact(STRIDE) {
            assert!((0.0..=1.0).contains(&p[0]));
            assert!((0.0..=1.0).contains(&p[1]));
        }
    }

    #[test]
    fn particles_stay_inside_the_box() {
        let f = small();
        let positions = f.run_accurate_serial();
        for xy in positions.chunks_exact(2) {
            assert!((0.0..=1.0).contains(&xy[0]), "x = {}", xy[0]);
            assert!((0.0..=1.0).contains(&xy[1]), "y = {}", xy[1]);
        }
    }

    #[test]
    fn gravity_pulls_the_fluid_down() {
        let f = small();
        let initial = positions_of(&f.initial_state());
        let after = f.run_accurate_serial();
        let mean_y_initial: f64 =
            initial.chunks_exact(2).map(|p| p[1]).sum::<f64>() / f.particles as f64;
        let mean_y_after: f64 =
            after.chunks_exact(2).map(|p| p[1]).sum::<f64>() / f.particles as f64;
        assert!(
            mean_y_after < mean_y_initial,
            "fluid should fall: {mean_y_initial} -> {mean_y_after}"
        );
    }

    #[test]
    fn task_version_with_every_step_accurate_matches_serial() {
        let f = small();
        let serial = f.run_accurate_serial();
        let tasks = f.run_tasks(2, Policy::GtbMaxBuffer, 1);
        let max_err = serial
            .iter()
            .zip(&tasks.values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-12, "max error {max_err}");
        assert_eq!(tasks.tasks.approximate, 0);
    }

    #[test]
    fn mild_approximation_is_stable_and_close() {
        let f = small();
        let reference = f.run(&ExecutionConfig::accurate(2));
        let mild = f.run(&ExecutionConfig::significance(
            2,
            Policy::GtbMaxBuffer,
            Degree::Mild,
        ));
        let q = f.quality(&reference, &mild).value;
        // Paper: only the mild degree gives acceptable results; it should be
        // within a few percent relative error here.
        assert!(q < 20.0, "mild relative error {q}% too large");
        // Both accurate and extrapolation steps must have run.
        assert!(mild.tasks.accurate > 0);
        assert!(mild.tasks.approximate > 0);
    }

    #[test]
    fn aggressive_approximation_degrades_more_than_mild() {
        let f = small();
        let reference = f.run(&ExecutionConfig::accurate(2));
        let mild = f.run(&ExecutionConfig::significance(
            2,
            Policy::GtbMaxBuffer,
            Degree::Mild,
        ));
        let aggr = f.run(&ExecutionConfig::significance(
            2,
            Policy::GtbMaxBuffer,
            Degree::Aggressive,
        ));
        let q_mild = f.quality(&reference, &mild).value;
        let q_aggr = f.quality(&reference, &aggr).value;
        assert!(
            q_mild <= q_aggr + 1e-9,
            "mild {q_mild} vs aggressive {q_aggr}"
        );
    }

    #[test]
    #[should_panic(expected = "not applicable")]
    fn perforation_is_rejected() {
        let f = small();
        f.run(&ExecutionConfig::perforation(2, Degree::Mild));
    }

    #[test]
    fn accurate_step_fraction_matches_degree() {
        let f = small();
        let out = f.run_tasks(2, Policy::GtbMaxBuffer, 4);
        // steps = 12, period 4 => 3 accurate steps of 8 chunks each.
        assert_eq!(out.tasks.accurate, 3 * f.chunks);
        assert_eq!(out.tasks.approximate, 9 * f.chunks);
    }
}
