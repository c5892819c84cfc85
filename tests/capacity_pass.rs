//! The finite-supply capacity pass at a workload-like scale: a deep book of
//! standing bids squeezed onto a box a tenth its size, stepped through the
//! bid-book market and the frozen naive oracle in lockstep. Every slot's
//! report and provider telemetry, and the final records, must be
//! bit-identical — the victim set the bid-book selects from its buckets is
//! the one the oracle finds by sorting every candidate.

use spotbid::market::provider::ProviderPolicy;
use spotbid::market::sim::{naive, BidKind, BidRequest, SpotMarket, Supply, WorkModel};
use spotbid::market::units::{Hours, Price};
use spotbid::market::MarketParams;
use spotbid::numerics::rng::Rng;

const STANDING: usize = 5_000;
const CAPACITY: u32 = 512;
const SLOTS: usize = 200;

/// Bid `i` of a golden-ratio ladder over `[π_min, π̄)`.
fn laddered(p: &MarketParams, i: usize) -> Price {
    let frac = (0.5 + i as f64 * 0.618_033_988_749_895) % 1.0;
    Price::new(p.pi_min.as_f64() + frac * p.spread().as_f64())
}

#[test]
fn squeezed_book_matches_the_naive_oracle() {
    let p = MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.02).unwrap();
    let supply = Supply::Finite {
        capacity: CAPACITY,
        policy: ProviderPolicy::UtilizationTracking {
            od_cap: CAPACITY / 2,
        },
    };
    let slot = Hours::from_minutes(5.0);
    let mut book = SpotMarket::with_supply(p, slot, supply);
    let mut base = naive::SpotMarket::with_supply(p, slot, supply);
    for i in 0..STANDING {
        let req = BidRequest {
            price: laddered(&p, i),
            kind: BidKind::Persistent,
            work: WorkModel::FixedSlots(u32::MAX),
        };
        assert_eq!(book.submit(req), base.submit(req));
    }

    let mut inputs = Rng::seed_from_u64(0xC0DE);
    let mut rng_book = Rng::seed_from_u64(0x5EED);
    let mut rng_base = Rng::seed_from_u64(0x5EED);
    let (mut next, mut evicted, mut reclaims) = (STANDING, 0usize, 0u32);
    for s in 0..SLOTS {
        let depart = (0..book.od_active()).filter(|_| inputs.chance(0.1)).count() as u32;
        book.release_on_demand(depart);
        base.release_on_demand(depart);
        let arrive = inputs.poisson(12.0) as u32;
        assert_eq!(
            book.request_on_demand(arrive),
            base.request_on_demand(arrive)
        );
        for _ in 0..4 {
            let req = BidRequest {
                price: laddered(&p, next),
                kind: BidKind::OneTime,
                work: WorkModel::Geometric,
            };
            next += 1;
            assert_eq!(book.submit(req), base.submit(req));
        }

        let rb = book.step(&mut rng_book);
        let rn = base.step(&mut rng_base);
        assert_eq!(rb, rn, "slot {s} diverged");
        let (pb, pn) = (book.provider_slots().last(), base.provider_slots().last());
        assert_eq!(pb, pn, "slot {s} provider telemetry diverged");
        let ps = pb.expect("finite supply logs every slot");
        assert!(
            ps.spot_running + ps.od_active <= CAPACITY,
            "slot {s} overcommitted"
        );
        evicted += rb.evicted.len();
        reclaims += ps.reclaims;
    }
    assert!(evicted > SLOTS, "the squeeze must evict: {evicted}");
    assert!(reclaims > 0, "running instances must be reclaimed");
    assert_eq!(book.records(), base.records(), "final records");
    assert_eq!(book.provider_report(), base.provider_report());
}
