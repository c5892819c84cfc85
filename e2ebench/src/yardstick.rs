//! The reference jobs end-to-end times are expressed in.
//!
//! On the shared 2-vCPU VM the benchmark was built on, the same
//! compute-bound code runs up to 1.8× slower for seconds to minutes at a
//! time while other tenants load the host, with almost no steal time to
//! show for it. A median over a run cannot remove that: ten runs of one
//! build spread by a third. So a run times a fixed reference job between
//! its operations, in the same moments, and reports each window of
//! operations as a multiple of it. A host slowdown stretches both alike and
//! cancels; a change to the program moves only the operations.
//!
//! Slow periods stretch different code by different amounts, so each
//! workload is measured against a job shaped like its own inner loop (see
//! [`Job`]; README: "Why a reference job"). The jobs' inputs are fixed
//! rather than drawn from the run's seed, so every run of every build times
//! the same job, and nothing in them calls the program.

use std::time::Instant;

use crate::stats::median;

/// Entries of the table both jobs index: one per closed-loop tenant.
const TABLE: usize = 50_000;
/// Ids the sort job orders: about the spot share of one finite market.
const IDS: usize = 6_000;
/// Read-modify-writes per update job.
const UPDATES: u64 = 400_000;
/// Timings per measurement; the median drops one that a preemption or the
/// cache misses left by the preceding operations stretched.
const REPEATS: usize = 3;

/// A reference job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// Sorts 6000 ids by an `f64` key looked up in the table, ties by id:
    /// the shape of the market's capacity-pass victim sort. Slow periods
    /// stretch it and a `market_squeeze` slot alike, about 1.6×.
    Sort,
    /// 400k read-modify-writes at pseudo-random positions of the table: the
    /// shape of the closed loop's per-tenant state updates. Slow periods
    /// stretch it and a `closedloop` session alike, about 1.3×, where the
    /// sort stretches 1.6×.
    Update,
}

/// Operation times, grouped in windows, each followed by a timing of the
/// reference job.
pub struct Yardstick {
    job: Job,
    table: Vec<f64>,
    ids: Vec<u32>,
    buf: Vec<u32>,
    every: usize,
    window: Vec<f64>,
    ratios: Vec<f64>,
    job_us: Vec<f64>,
}

impl Yardstick {
    /// A yardstick that times `job` after every `every` operations.
    pub fn new(job: Job, every: usize) -> Yardstick {
        // xorshift64 from a fixed state: the same job in every run.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        Yardstick {
            job,
            table: (0..TABLE).map(|_| (next() >> 11) as f64).collect(),
            ids: (0..IDS).map(|_| (next() % TABLE as u64) as u32).collect(),
            buf: Vec::with_capacity(IDS),
            every: every.max(1),
            window: Vec::with_capacity(every),
            ratios: Vec::new(),
            job_us: Vec::new(),
        }
    }

    /// One run of the job, in µs.
    fn run_job(&mut self) -> f64 {
        let t0;
        match self.job {
            Job::Sort => {
                let keys = &self.table;
                self.buf.clear();
                self.buf.extend_from_slice(&self.ids);
                t0 = Instant::now();
                self.buf.sort_unstable_by(|&a, &b| {
                    keys[a as usize]
                        .total_cmp(&keys[b as usize])
                        .then(a.cmp(&b))
                });
                std::hint::black_box(&self.buf);
            }
            Job::Update => {
                t0 = Instant::now();
                let mut x = 7u64;
                for i in 0..UPDATES {
                    x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i);
                    self.table[(x >> 40) as usize % TABLE] += (i & 7) as f64;
                }
                std::hint::black_box(&self.table);
            }
        }
        t0.elapsed().as_secs_f64() * 1e6
    }

    /// The job's time in µs: the median of [`REPEATS`] runs.
    fn time_job(&mut self) -> f64 {
        let us: Vec<f64> = (0..REPEATS).map(|_| self.run_job()).collect();
        median(&us).expect("REPEATS > 0")
    }

    /// Records one operation's time; after every `every`-th, times the job
    /// and records the window's median operation time as a multiple of it.
    pub fn push(&mut self, op_us: f64) {
        self.window.push(op_us);
        if self.window.len() == self.every {
            let job = self.time_job();
            let op = median(&self.window).expect("a full window");
            self.ratios.push(op / job);
            self.job_us.push(job);
            self.window.clear();
        }
    }

    /// Window ratios so far, in the order measured.
    pub fn ratios(&self) -> &[f64] {
        &self.ratios
    }

    /// The job's median time so far, in µs.
    pub fn job_us(&self) -> Option<f64> {
        median(&self.job_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_is_closed_by_one_job_timing() {
        for job in [Job::Sort, Job::Update] {
            let mut y = Yardstick::new(job, 3);
            for us in [10.0, 30.0, 20.0, 5.0] {
                y.push(us);
            }
            assert_eq!(y.ratios().len(), 1);
            let t = y.job_us().expect("one timing");
            assert!(t > 0.0);
            assert_eq!(y.ratios()[0], 20.0 / t);
            y.push(5.0);
            y.push(5.0);
            assert_eq!(y.ratios().len(), 2);
        }
    }

    #[test]
    fn every_run_times_the_same_job() {
        let (a, b) = (Yardstick::new(Job::Sort, 1), Yardstick::new(Job::Sort, 1));
        assert_eq!(a.ids, b.ids);
        assert!(a.table.iter().zip(&b.table).all(|(x, y)| x == y));
        // Enough distinct ids that the sort does real work.
        let mut ids = a.ids.clone();
        ids.sort_unstable();
        ids.dedup();
        assert!(ids.len() > IDS / 2);
    }
}
