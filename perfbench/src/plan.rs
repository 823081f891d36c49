//! The thread plan: how many threads each workload runs at once.
//!
//! Oversubscribing the host's cores makes timings bimodal, so a plan whose
//! concurrently running threads exceed `nproc` is refused. A thread that
//! spawns or polls while the workers run counts as one of them.

use std::fmt;

/// The threads one workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPlan {
    /// Cores available to the process.
    pub nproc: usize,
    /// Runtime worker threads.
    pub workers: usize,
    /// Whether the main thread keeps running alongside the workers
    /// (spawning or polling) instead of parking at a barrier.
    pub main_runs: bool,
}

impl ThreadPlan {
    /// Threads that may be runnable at the same instant.
    pub fn concurrent(&self) -> usize {
        self.workers + usize::from(self.main_runs)
    }

    /// Refuse a plan that runs more threads at once than `nproc`.
    pub fn check(self) -> Result<ThreadPlan, String> {
        if self.nproc == 0 {
            return Err("nproc must be at least 1".into());
        }
        if self.concurrent() > self.nproc {
            return Err(format!(
                "thread plan refused: {} workers{} run {} threads at once on {} cores",
                self.workers,
                if self.main_runs {
                    " plus the main thread"
                } else {
                    ""
                },
                self.concurrent(),
                self.nproc
            ));
        }
        Ok(self)
    }
}

impl fmt::Display for ThreadPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nproc={} workers={} main_runs={} concurrent={}",
            self.nproc,
            self.workers,
            self.main_runs,
            self.concurrent()
        )
    }
}

/// `nproc` workers with the main thread parked at the barrier.
pub fn parked_main(nproc: usize) -> Result<ThreadPlan, String> {
    ThreadPlan {
        nproc,
        workers: nproc,
        main_runs: false,
    }
    .check()
}

/// `nproc - 1` workers beside a main thread that spawns or polls.
pub fn busy_main(nproc: usize) -> Result<ThreadPlan, String> {
    if nproc < 2 {
        return Err(format!(
            "thread plan refused: a busy main thread needs at least one worker beside it, \
             and {nproc} core leaves none"
        ));
    }
    ThreadPlan {
        nproc,
        workers: nproc - 1,
        main_runs: true,
    }
    .check()
}

/// The main thread alone.
pub fn single_thread(nproc: usize) -> Result<ThreadPlan, String> {
    ThreadPlan {
        nproc,
        workers: 0,
        main_runs: true,
    }
    .check()
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_never_exceed_nproc() {
        for nproc in 1..=8 {
            for plan in [parked_main(nproc), busy_main(nproc), single_thread(nproc)]
                .into_iter()
                .flatten()
            {
                assert!(plan.concurrent() <= nproc, "{plan}");
            }
        }
        assert_eq!(busy_main(2).unwrap().workers, 1);
        assert_eq!(parked_main(2).unwrap().workers, 2);
    }

    #[test]
    fn oversubscribed_plans_are_refused() {
        let plan = ThreadPlan {
            nproc: 2,
            workers: 2,
            main_runs: true,
        };
        assert!(plan.check().is_err());
        assert!(busy_main(1).is_err());
        assert!(parked_main(0).is_err());
        let fits = ThreadPlan {
            nproc: 2,
            workers: 2,
            main_runs: false,
        };
        assert_eq!(fits.check(), Ok(fits));
    }
}
