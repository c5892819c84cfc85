//! Market reconciliation: a finite market's provider counters agree with
//! the bids its slot reports name and with what its caller asked of the
//! on-demand pool.
//!
//! The walls hold the bid-book market to the naive oracle, but both hold
//! the same provider pool, so a fault in the pool's bookkeeping shows in
//! both and passes every wall. This test counts from outside instead:
//! - each slot's evictions are its ledger entry's reclaims plus fresh
//!   evictions, and the evicted bids that were running (by a recount of
//!   the reports' started, interrupted, finished and terminated lists)
//!   are its reclaims;
//! - the ledger sums to the cumulative report, whose on-demand admissions
//!   and rejections are what `request_on_demand` admitted and refused.
//!
//! The run has standing and churning spot bids, on-demand churn that
//! squeezes the spot share, and two reclamation outages.

use spotbid::market::provider::ProviderPolicy;
use spotbid::market::sim::{
    BidId, BidKind, BidRequest, ProviderSlot, SlotReport, SpotMarket, Supply, WorkModel,
};
use spotbid::market::units::{Hours, Price};
use spotbid::market::MarketParams;
use spotbid::numerics::rng::Rng;

const CAPACITY: u32 = 400;
const STANDING: usize = 4_000;
const SLOTS: u64 = 240;
/// Slots the provider reclaims every instance in.
const OUTAGES: [u64; 2] = [60, 150];

/// Bid `i` of a golden-ratio ladder over `[π_min, π̄)`.
fn laddered(p: &MarketParams, i: usize) -> Price {
    let frac = (0.5 + i as f64 * 0.618_033_988_749_895) % 1.0;
    Price::new(p.pi_min.as_f64() + frac * p.spread().as_f64())
}

/// Marks the bids `ids` running or not.
fn mark(running: &mut [bool], ids: &[BidId], on: bool) {
    for id in ids {
        running[id.0 as usize] = on;
    }
}

#[test]
fn provider_counters_reconcile_with_the_reports_and_the_requests() {
    let p = MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.02).unwrap();
    let supply = Supply::Finite {
        capacity: CAPACITY,
        policy: ProviderPolicy::UtilizationTracking {
            od_cap: CAPACITY / 2,
        },
    };
    let mut m = SpotMarket::with_supply(p, Hours::from_minutes(5.0), supply);
    let mut inputs = Rng::seed_from_u64(0x2EC0);
    let mut rng = Rng::seed_from_u64(0x2EC1);
    let submit = |m: &mut SpotMarket, kind, work| {
        let price = laddered(&p, m.submitted());
        m.submit(BidRequest { price, kind, work });
    };
    for i in 0..STANDING {
        let work = WorkModel::FixedSlots(20 + (i % 200) as u32);
        submit(&mut m, BidKind::Persistent, work);
    }

    // Whether each bid runs, recounted from the reports alone.
    let mut running = vec![false; STANDING];
    let (mut admitted, mut refused) = (0u64, 0u64);
    let (mut reclaims, mut fresh) = (0u64, 0u64);
    let mut report = SlotReport::empty();
    for t in 0..SLOTS {
        let depart = (0..m.od_active()).filter(|_| inputs.chance(0.1)).count();
        m.release_on_demand(depart as u32);
        let asked = inputs.poisson(24.0) as u32;
        let got = m.request_on_demand(asked);
        admitted += u64::from(got);
        refused += u64::from(asked - got);
        for _ in 0..3 {
            submit(&mut m, BidKind::OneTime, WorkModel::Geometric);
        }
        submit(&mut m, BidKind::Persistent, WorkModel::FixedSlots(8));
        running.resize(m.submitted(), false);
        let outage = OUTAGES.contains(&t);
        if outage {
            m.reclaim_next_slot();
        }
        m.step_into(&mut rng, &mut report);

        let ps = *m
            .provider_slots()
            .last()
            .expect("finite supply logs every slot");
        assert_eq!(ps.t, t);
        let was_running = |id: &&BidId| running[id.0 as usize];
        let evicted_running = report.evicted.iter().filter(was_running).count();
        assert_eq!(
            report.evicted.len(),
            (ps.reclaims + ps.fresh_evictions) as usize,
            "slot {t}: evictions"
        );
        assert_eq!(evicted_running, ps.reclaims as usize, "slot {t}: reclaims");
        if outage {
            assert!(report.started.is_empty() && report.evicted.is_empty());
        }
        reclaims += u64::from(ps.reclaims);
        fresh += u64::from(ps.fresh_evictions);

        mark(&mut running, &report.interrupted, false);
        mark(&mut running, &report.terminated, false);
        mark(&mut running, &report.started, true);
        // The slot's runners, those finishing in it included.
        let spot = running.iter().filter(|&&r| r).count();
        assert_eq!(spot, ps.spot_running as usize, "slot {t}: spot runners");
        assert!(!outage || spot == 0, "slot {t}: the outage left a runner");
        mark(&mut running, &report.finished, false);
    }

    let log = m.provider_slots();
    let sum = |f: fn(&ProviderSlot) -> u32| log.iter().map(|s| u64::from(f(s))).sum::<u64>();
    let total = m.provider_report().expect("finite supply reports");
    assert_eq!(total.slots, SLOTS);
    assert_eq!(sum(|s| s.reclaims), total.reclaims);
    assert_eq!(sum(|s| s.fresh_evictions), total.fresh_evictions);
    assert_eq!(sum(|s| s.od_admitted), total.od_admissions);
    assert_eq!(sum(|s| s.od_rejected), total.od_rejections);
    assert_eq!(
        reclaims, total.reclaims,
        "reclaims recounted from the reports"
    );
    assert_eq!(fresh, total.fresh_evictions);
    assert_eq!(admitted, total.od_admissions, "admissions the caller saw");
    assert_eq!(refused, total.od_rejections, "refusals the caller saw");
    // The regime reaches every counter.
    assert!(
        reclaims > 0 && fresh > 0,
        "{reclaims} reclaims, {fresh} fresh"
    );
    assert!(
        admitted > 0 && refused > 0,
        "{admitted} admitted, {refused} refused"
    );
}
