//! Randomized tests of the trace-replay runtime's accounting invariants,
//! driven by the workspace's seeded PRNG so every run is exactly
//! reproducible.

use spotbid_core::{BidDecision, JobSpec};
use spotbid_engine::job_monitor::{JobMonitor, JobState};
use spotbid_engine::{run_job, RunStatus};
use spotbid_market::units::{Hours, Price};
use spotbid_numerics::rng::Rng;
use spotbid_trace::history::default_slot_len;
use spotbid_trace::SpotPriceHistory;

fn random_job(rng: &mut Rng) -> JobSpec {
    let ts = rng.range_f64(0.1, 3.0);
    let tr = rng.range_f64(0.0, 200.0);
    JobSpec::builder(ts).recovery_secs(tr).build().unwrap()
}

fn random_prices(rng: &mut Rng, min_len: usize, max_len: usize) -> Vec<f64> {
    let n = min_len + rng.range_usize(max_len - min_len);
    (0..n).map(|_| rng.range_f64(0.01, 0.5)).collect()
}

#[test]
fn job_monitor_work_conservation() {
    let mut rng = Rng::seed_from_u64(0xC11E_0001);
    for _ in 0..96 {
        let job = random_job(&mut rng);
        let n = 1 + rng.range_usize(399);
        let accepts: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        let mut m = JobMonitor::new(job);
        let mut interruption_events = 0u32;
        for &a in &accepts {
            let e = m.advance(a);
            if e.interrupted {
                interruption_events += 1;
            }
        }
        assert_eq!(interruption_events, m.interruptions());
        // Work consumed never exceeds execution + interruptions × recovery.
        let max_running = job.execution.as_f64() + m.interruptions() as f64 * job.recovery.as_f64();
        assert!(m.running_time().as_f64() <= max_running + 1e-9);
        if m.state() == JobState::Finished {
            // On completion the identity is exact (recovery replays in
            // progress count only once finished).
            assert!((m.running_time().as_f64() - max_running).abs() < 1e-9);
            assert_eq!(m.remaining_work(), Hours::ZERO);
        }
        // Elapsed decomposes into its three ledgers.
        let total = m.waiting_time() + m.idle_time() + m.running_time();
        assert!((m.elapsed().as_f64() - total.as_f64()).abs() < 1e-9);
    }
}

#[test]
fn replay_bill_matches_price_trace() {
    let mut rng = Rng::seed_from_u64(0xC11E_0002);
    for _ in 0..96 {
        let prices = random_prices(&mut rng, 12, 200);
        let bid = rng.range_f64(0.01, 0.5);
        let job = random_job(&mut rng);
        let h = SpotPriceHistory::new(
            default_slot_len(),
            prices.iter().map(|&p| Price::new(p)).collect(),
        )
        .unwrap();
        let out = run_job(
            &h,
            BidDecision::Spot {
                price: Price::new(bid),
                persistent: true,
            },
            &job,
            7,
        )
        .unwrap();
        // Every line item is priced at the trace's slot price and tagged.
        for item in out.bill.items() {
            let slot_price = h.price_at_slot(item.slot as usize).unwrap();
            assert_eq!(item.price, slot_price);
            assert!(Price::new(bid) >= slot_price, "charged while outbid");
            // Up to one ulp over the slot from rec + (slot − rec) rounding.
            assert!(item.duration.as_f64() <= job.slot.as_f64() + 1e-12);
            assert_eq!(item.tag, 7);
        }
        // Total = sum of items; durations bill only running time.
        let total: f64 = out.bill.items().iter().map(|i| i.amount().as_f64()).sum();
        assert!((out.cost.as_f64() - total).abs() < 1e-12);
        assert!((out.bill.total_duration().as_f64() - out.running_time.as_f64()).abs() < 1e-9);
        // Completed persistent runs did all their work.
        if out.status == RunStatus::Completed {
            let expect = job.execution.as_f64() + out.interruptions as f64 * job.recovery.as_f64();
            assert!((out.running_time.as_f64() - expect).abs() < 1e-9);
        }
    }
}

#[test]
fn onetime_replay_never_outlives_first_rejection() {
    let mut rng = Rng::seed_from_u64(0xC11E_0003);
    for _ in 0..96 {
        let prices = random_prices(&mut rng, 5, 100);
        let bid = rng.range_f64(0.01, 0.5);
        let h = SpotPriceHistory::new(
            default_slot_len(),
            prices.iter().map(|&p| Price::new(p)).collect(),
        )
        .unwrap();
        let job = JobSpec::builder(10.0).build().unwrap(); // longer than trace
        let out = run_job(
            &h,
            BidDecision::Spot {
                price: Price::new(bid),
                persistent: false,
            },
            &job,
            0,
        )
        .unwrap();
        let bid = Price::new(bid);
        match prices.iter().position(|&p| bid < Price::new(p)) {
            Some(first_reject) => {
                assert_eq!(out.status, RunStatus::TerminatedEarly);
                // It ran exactly the accepted prefix.
                let expect_slots = first_reject as f64;
                assert!((out.running_time.as_f64() - expect_slots / 12.0).abs() < 1e-9);
            }
            None => {
                // Never rejected: it runs off the end of the trace.
                assert_eq!(out.status, RunStatus::HistoryExhausted);
                assert_eq!(out.interruptions, 0);
            }
        }
    }
}
