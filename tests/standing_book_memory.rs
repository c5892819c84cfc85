//! Memory regression for a standing book: a bid that never launches must
//! carry no run state, so a squeezed market whose book mostly pends stays
//! within a per-bid byte budget.
//!
//! Once finite capacity binds (§3.2, Figure 2) most bids of a standing
//! book sit below the posted price and pend for good. Each bid holds four
//! columns, 15 bytes, its slots of work among them until it launches;
//! only a bid that has launched adds a 32-byte run entry (its accrual,
//! running-list position, due word and work), in a table that grows by
//! pages of 1,024 entries. Here about three bids in four
//! never run, so a layout that gave every bid its run state would need
//! more than the budget asserted below.
//!
//! The counting allocator sees every allocation in the process, so this
//! file holds a single test.

use spotbid::market::provider::ProviderPolicy;
use spotbid::market::sim::{BidId, BidKind, BidRequest, SlotReport, SpotMarket, WorkModel};
use spotbid::market::units::{Hours, Price};
use spotbid::market::{MarketParams, Supply};
use spotbid::numerics::rng::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const CAPACITY: u32 = 8192;
const OD_CAP: u32 = 4096;
/// Standing persistent bids that never finish.
const STANDING: usize = 50_000;
const SLOTS: usize = 1_100;
/// One-time geometric churn bids per slot.
const CHURN: usize = 4;
/// Mean on-demand arrivals per slot.
const OD_ARRIVALS: f64 = 200.0;
/// Per-slot departure probability of each active on-demand instance.
const OD_DEPARTURE: f64 = 0.1;

/// Peak live heap per bid: 32 bytes measured (1,741,049 for the 54,400
/// bids below), plus 10% headroom. It read 37 bytes (2,045,877) while
/// every bid kept its work in a column of its own and the per-slot logs
/// grew by doubling, 44 bytes (2,434,632) while every bid kept a
/// running-list position and the columns grew by doubling too, 48 bytes
/// (2,663,624) while the run table grew by doubling as well, and giving
/// every bid its run state at submission reads 73 bytes per bid
/// (3,977,288).
const BUDGET_PER_BID: usize = 36;

/// Bid `i` of a golden-ratio ladder over `[π_min, π̄)`.
fn laddered(p: &MarketParams, i: usize) -> Price {
    let frac = (i as f64 * 0.618_033_988_749_895).fract();
    Price::new(p.pi_min.as_f64() + frac * p.spread().as_f64())
}

#[test]
fn a_pending_book_carries_no_run_state() {
    let params = MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.02).unwrap();
    let mut inputs = Rng::seed_from_u64(0x5B00);
    let mut rng = Rng::seed_from_u64(0x5B01);

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let mut m = SpotMarket::with_supply(
        params,
        Hours::from_minutes(5.0),
        Supply::Finite {
            capacity: CAPACITY,
            policy: ProviderPolicy::UtilizationTracking { od_cap: OD_CAP },
        },
    );
    for i in 0..STANDING {
        m.submit(BidRequest {
            price: laddered(&params, i),
            kind: BidKind::Persistent,
            work: WorkModel::FixedSlots(u32::MAX),
        });
    }
    let mut report = SlotReport::empty();
    for _ in 0..SLOTS {
        let depart = (0..m.od_active())
            .filter(|_| inputs.chance(OD_DEPARTURE))
            .count() as u32;
        m.release_on_demand(depart);
        m.request_on_demand(inputs.poisson(OD_ARRIVALS) as u32);
        for _ in 0..CHURN {
            m.submit(BidRequest {
                price: laddered(&params, m.submitted()),
                kind: BidKind::OneTime,
                work: WorkModel::Geometric,
            });
        }
        m.step_into(&mut rng, &mut report);
    }
    let peak = PEAK.load(Ordering::Relaxed) - before;

    let never_ran = (0..STANDING as u64)
        .filter(|&i| m.record(BidId(i)).unwrap().slots_run == 0)
        .count();
    let bids = m.submitted();
    assert_eq!(bids, STANDING + SLOTS * CHURN);
    assert!(
        never_ran * 2 > STANDING,
        "not a standing book: only {never_ran} of {STANDING} bids never ran"
    );
    let per_bid = peak / bids;
    assert!(
        per_bid <= BUDGET_PER_BID,
        "peak live heap {per_bid} bytes per bid over a {BUDGET_PER_BID}-byte \
         budget ({peak} bytes for {bids} bids, {never_ran} standing bids never launched)"
    );
}
