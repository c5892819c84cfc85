//! Memory regression for the closed loop: a running-heavy session must
//! not hold a line item per charged tenant-slot, and must stay within a
//! per-tenant byte budget.
//!
//! Every running tenant pays the posted price every slot it runs (§3.2),
//! one `Charged` event per running tenant-slot. The sessions fold those
//! charges into one running total per tenant, so peak live heap stays
//! O(tenants) however long the tenants run. A line-item ledger of the
//! same session would need more than the bound asserted here on its own.
//!
//! The budget holds the session to the bytes it needs at its peak: the
//! tenant columns and the fleet's one tenant list, one bid per tenant
//! (15 bytes in the market's four columns plus a 32-byte run entry, since
//! every tenant's bid runs, in a table that grows by pages), a bounded
//! submission queue, and per-slot lists that give back the submission
//! wave's room once it has passed. The report rows are built after the
//! market and the fleet's loop-only columns are dropped, beside only the
//! columns a row reads.
//!
//! The counting allocator sees every allocation in the process, so this
//! file holds a single test.

use spotbid::core::{BiddingStrategy, JobSpec};
use spotbid::engine::{run_closed_loop, ClosedLoopConfig, LineItem};
use spotbid::market::units::{Hours, Price};
use spotbid::market::{MarketParams, Supply};
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

const TENANTS: usize = 20_000;

/// Peak live heap a session may add over what was live before it.
const BOUND_BYTES: usize = 16 << 20;

/// Peak live heap per tenant: 135 bytes measured (2,702,469 for the
/// session below), plus 10% headroom, rounded down. It read 149 bytes
/// (2,999,365) while the per-slot lists kept the wave's room to the end
/// and the report rows were built beside the fleet's loop columns, 154
/// bytes (3,083,737) while every bid kept its work in a column of its own
/// and the charge table grew by doubling, 179 bytes (3,584,568) while
/// every bid kept a running-list position and the columns grew by
/// doubling, and 219 bytes (4,399,160) while the run table grew by
/// doubling too, the fleet kept a tenant's slot counters in 64 bits and
/// its wave and wake lists apart.
const BUDGET_PER_TENANT: usize = 148;

#[test]
fn running_heavy_session_holds_no_per_charge_ledger() {
    let cfg = ClosedLoopConfig {
        params: MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap(),
        slot_len: Hours::from_minutes(5.0),
        on_demand: Price::new(0.35),
        job: JobSpec::builder(4.0).recovery_secs(60.0).build().unwrap(),
        warmup_slots: 20,
        horizon_slots: 60,
        background_arrivals: 3.0,
        max_resubmissions: 4,
        supply: Supply::Unbounded,
        od_arrivals: 0.0,
        od_departure: 0.0,
    };
    let strategies = vec![BiddingStrategy::FixedBid(Price::new(0.30)); TENANTS];

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = run_closed_loop(&strategies, &cfg, 0x4E4D).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;

    let charged: u64 = report.tenants.iter().map(|t| t.spot_slots).sum();
    let ledger = charged as usize * std::mem::size_of::<LineItem>();
    assert!(
        ledger > BOUND_BYTES,
        "not running-heavy enough: {charged} charged tenant-slots ({ledger} bytes of items)"
    );
    assert!(
        peak < BOUND_BYTES,
        "peak live heap {peak} bytes over a {BOUND_BYTES}-byte bound \
         ({charged} charged tenant-slots)"
    );
    let per_tenant = peak / TENANTS;
    assert!(
        per_tenant <= BUDGET_PER_TENANT,
        "peak live heap {per_tenant} bytes per tenant over a \
         {BUDGET_PER_TENANT}-byte budget ({peak} bytes for {TENANTS} tenants)"
    );
}
