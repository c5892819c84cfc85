//! M correlated spot markets stepped in lockstep (§3 across Table 2).
//!
//! The paper prices four instance types but the simulator historically ran
//! one [`SpotMarket`] at a time. A [`MarketSet`] holds M independent
//! bid-books — one per (instance type × zone) — that advance through the
//! same slot clock. Each market draws its departures from its *own* RNG
//! substream, so a set is bit-identical to M separately-stepped markets
//! given the same streams; correlation between markets enters only through
//! the arrival side, via [`CorrelatedArrivals`].
//!
//! ## Correlated demand: common-shock Poisson decomposition
//!
//! Per slot, market `m` receives `N_m = S + I_m` background arrivals where
//! `S ~ Poisson(shared_rate)` is drawn **once** from a shared substream and
//! `I_m ~ Poisson(idio_rate[m])` from market `m`'s idiosyncratic substream.
//! Sums of independent Poissons are Poisson, so `N_m ~
//! Poisson(shared_rate + idio_rate[m])` marginally while
//! `corr(N_a, N_b) = shared / √((shared+idio_a)(shared+idio_b))` — the rate
//! split dials correlation from 0 (pure idiosyncratic) to 1 (pure shock).
//! With `shared_rate == 0` no draw touches the shared stream at all
//! ([`Rng::poisson`] returns early for a zero mean), which is what makes
//! the M=1 configuration bit-identical to the historical single-market
//! arrival sequence.
//!
//! Determinism contract: every market consumes only its own substreams and
//! markets are stepped in index order, so the whole set is a pure function
//! of (specs, submissions, streams) at any thread count — the same §5e/§5f
//! contract the single-market path pins.

use crate::params::MarketParams;
use crate::sim::{
    BidId, BidRecord, BidRequest, ProviderReport, ProviderSlot, SlotReport, SpotMarket, Supply,
};
use crate::units::Hours;
use crate::MarketError;
use spotbid_numerics::rng::Rng;
use std::ops::Range;

/// Configuration of one member market in a [`MarketSet`].
#[derive(Debug, Clone)]
pub struct MarketSpec {
    /// Display name, e.g. `"m1.small/us-east-1a"`.
    pub name: String,
    /// Pricing parameters (Eq. 3) for this market.
    pub params: MarketParams,
    /// Supply model (unbounded Eq. 3 pricing or a finite provider); each
    /// member market owns its own capacity.
    pub supply: Supply,
}

impl MarketSpec {
    /// Convenience constructor (unbounded supply).
    pub fn new(name: impl Into<String>, params: MarketParams) -> Self {
        Self::with_supply(name, params, Supply::Unbounded)
    }

    /// Constructor with an explicit supply model.
    pub fn with_supply(name: impl Into<String>, params: MarketParams, supply: Supply) -> Self {
        MarketSpec {
            name: name.into(),
            params,
            supply,
        }
    }
}

/// M spot markets sharing one slot clock.
///
/// All member markets advance together via [`MarketSet::step_into`]; each
/// draws from its own RNG. Bid ids are per-market (market `m`'s ids are
/// assigned in its own submission order), matching the single-market
/// contract.
#[derive(Debug, Clone)]
pub struct MarketSet {
    names: Vec<String>,
    markets: Vec<SpotMarket>,
}

impl MarketSet {
    /// Builds a set from per-market specs; all markets share `slot_len`.
    ///
    /// Errors if `specs` is empty.
    pub fn new(specs: Vec<MarketSpec>, slot_len: Hours) -> Result<Self, MarketError> {
        if specs.is_empty() {
            return Err(MarketError::InvalidParams {
                what: "a MarketSet needs at least one market".into(),
            });
        }
        let mut names = Vec::with_capacity(specs.len());
        let mut markets = Vec::with_capacity(specs.len());
        for spec in specs {
            markets.push(SpotMarket::with_supply(spec.params, slot_len, spec.supply));
            names.push(spec.name);
        }
        Ok(MarketSet { names, markets })
    }

    /// Number of member markets, M.
    pub fn len(&self) -> usize {
        self.markets.len()
    }

    /// Always false: construction rejects empty sets.
    pub fn is_empty(&self) -> bool {
        self.markets.is_empty()
    }

    /// Display name of market `m`.
    pub fn name(&self, m: usize) -> &str {
        &self.names[m]
    }

    /// Shared-read access to market `m`.
    pub fn market(&self, m: usize) -> &SpotMarket {
        &self.markets[m]
    }

    /// Mutable access to market `m` (settling accessors like
    /// [`SpotMarket::records`] need `&mut`).
    pub fn market_mut(&mut self, m: usize) -> &mut SpotMarket {
        &mut self.markets[m]
    }

    /// The current slot (markets advance in lockstep, so they agree).
    pub fn now(&self) -> u64 {
        self.markets[0].now()
    }

    /// Submits a bid to market `m`; ids are per-market submission order.
    pub fn submit(&mut self, m: usize, request: BidRequest) -> BidId {
        self.markets[m].submit(request)
    }

    /// Submits a wave of bids to market `m` (see
    /// [`SpotMarket::submit_batch`]); returns its raw ids `first..first + n`.
    pub fn submit_batch(&mut self, m: usize, requests: &[BidRequest]) -> Range<u64> {
        self.markets[m].submit_batch(requests)
    }

    /// Schedules a capacity reclamation in market `m`'s next slot.
    pub fn reclaim_next_slot(&mut self, m: usize) {
        self.markets[m].reclaim_next_slot();
    }

    /// Settled records of market `m`, built from its columns.
    pub fn records(&mut self, m: usize) -> Vec<BidRecord> {
        self.markets[m].records()
    }

    /// Requests `n` on-demand instances in market `m`; returns how many
    /// were admitted (all of them under unbounded supply).
    pub fn request_on_demand(&mut self, m: usize, n: u32) -> u32 {
        self.markets[m].request_on_demand(n)
    }

    /// Releases `n` on-demand instances in market `m`.
    pub fn release_on_demand(&mut self, m: usize, n: u32) {
        self.markets[m].release_on_demand(n)
    }

    /// Per-slot provider telemetry for market `m` (empty when unbounded).
    pub fn provider_slots(&self, m: usize) -> &[ProviderSlot] {
        self.markets[m].provider_slots()
    }

    /// Aggregated provider report for market `m` (`None` when unbounded).
    pub fn provider_report(&self, m: usize) -> Option<ProviderReport> {
        self.markets[m].provider_report()
    }

    /// Steps every market one slot, in index order, each drawing from its
    /// own RNG. `reports[m]` is overwritten with market `m`'s outcome
    /// through [`SpotMarket::step_into`]: recycle the buffers across slots
    /// to stay allocation-free in steady state; a step after a burst
    /// shrinks them once.
    ///
    /// Panics unless `rngs` and `reports` both have length M.
    pub fn step_into(&mut self, rngs: &mut [Rng], reports: &mut [SlotReport]) {
        assert_eq!(rngs.len(), self.markets.len(), "one RNG per market");
        assert_eq!(reports.len(), self.markets.len(), "one report per market");
        for ((market, rng), report) in self.markets.iter_mut().zip(rngs).zip(reports) {
            market.step_into(rng, report);
        }
    }

    /// Allocating convenience wrapper around [`MarketSet::step_into`].
    pub fn step(&mut self, rngs: &mut [Rng]) -> Vec<SlotReport> {
        let mut reports = vec![SlotReport::empty(); self.markets.len()];
        self.step_into(rngs, &mut reports);
        reports
    }
}

/// Common-shock Poisson arrival process over M markets (module docs).
#[derive(Debug, Clone)]
pub struct CorrelatedArrivals {
    shared_rate: f64,
    idio_rates: Vec<f64>,
}

impl CorrelatedArrivals {
    /// Builds the process; every rate must be finite and non-negative and
    /// at least one market must exist.
    pub fn new(shared_rate: f64, idio_rates: Vec<f64>) -> Result<Self, MarketError> {
        if idio_rates.is_empty() {
            return Err(MarketError::InvalidParams {
                what: "correlated arrivals need at least one market".into(),
            });
        }
        let bad = |r: f64| !r.is_finite() || r < 0.0;
        if bad(shared_rate) || idio_rates.iter().any(|&r| bad(r)) {
            return Err(MarketError::InvalidParams {
                what: "arrival rates must be finite and non-negative".into(),
            });
        }
        Ok(CorrelatedArrivals {
            shared_rate,
            idio_rates,
        })
    }

    /// Number of markets, M.
    pub fn markets(&self) -> usize {
        self.idio_rates.len()
    }

    /// Marginal arrival rate of market `m`: `shared + idio[m]`.
    pub fn rate(&self, m: usize) -> f64 {
        self.shared_rate + self.idio_rates[m]
    }

    /// Pearson correlation between markets `a` and `b` implied by the
    /// common-shock split (1.0 on the diagonal; 0.0 if either marginal
    /// rate is zero).
    pub fn correlation(&self, a: usize, b: usize) -> f64 {
        if a == b {
            return 1.0;
        }
        let denom = (self.rate(a) * self.rate(b)).sqrt();
        if denom == 0.0 {
            0.0
        } else {
            self.shared_rate / denom
        }
    }

    /// Draws one slot of arrival counts into `out` (cleared first): the
    /// shared shock `S` once from `shared_rng`, then each market's
    /// idiosyncratic count from its own stream, in index order.
    ///
    /// A zero `shared_rate` consumes nothing from `shared_rng`, and a zero
    /// `idio_rate[m]` consumes nothing from `idio_rngs[m]`.
    pub fn draw_into(&self, shared_rng: &mut Rng, idio_rngs: &mut [Rng], out: &mut Vec<u64>) {
        assert_eq!(
            idio_rngs.len(),
            self.idio_rates.len(),
            "one idiosyncratic RNG per market"
        );
        out.clear();
        let shock = shared_rng.poisson(self.shared_rate);
        for (rate, rng) in self.idio_rates.iter().zip(idio_rngs) {
            out.push(shock + rng.poisson(*rate));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{BidKind, WorkModel};
    use crate::units::Price;
    use spotbid_numerics::rng::RngStreams;

    fn params() -> MarketParams {
        MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap()
    }

    fn request(price: f64) -> BidRequest {
        BidRequest {
            price: Price::new(price),
            kind: BidKind::Persistent,
            work: WorkModel::FixedSlots(3),
        }
    }

    #[test]
    fn empty_set_rejected() {
        assert!(MarketSet::new(Vec::new(), Hours::from_minutes(5.0)).is_err());
    }

    #[test]
    fn set_matches_independent_markets() {
        let slot_len = Hours::from_minutes(5.0);
        let streams = RngStreams::new(0xC0FFEE);
        let mut set = MarketSet::new(
            vec![
                MarketSpec::new("a", params()),
                MarketSpec::new("b", params()),
            ],
            slot_len,
        )
        .unwrap();
        let mut lone_a = SpotMarket::new(params(), slot_len);
        let mut lone_b = SpotMarket::new(params(), slot_len);

        let mut set_rngs = streams.streams(2);
        let mut lone_rngs = streams.streams(2);
        for i in 0..40u64 {
            if i % 3 == 0 {
                let p = 0.02 + (i as f64) * 0.007;
                assert_eq!(set.submit(0, request(p)), lone_a.submit(request(p)));
                assert_eq!(
                    set.submit(1, request(p * 0.9)),
                    lone_b.submit(request(p * 0.9))
                );
            }
            if i == 20 {
                set.reclaim_next_slot(1);
                lone_b.reclaim_next_slot();
            }
            let reports = set.step(&mut set_rngs);
            let ra = lone_a.step(&mut lone_rngs[0]);
            let rb = lone_b.step(&mut lone_rngs[1]);
            assert_eq!(reports[0], ra);
            assert_eq!(reports[1], rb);
        }
        assert_eq!(set.records(0), lone_a.records());
        assert_eq!(set.records(1), lone_b.records());
        assert_eq!(set.now(), lone_a.now());
    }

    #[test]
    fn correlated_arrivals_zero_shared_is_independent() {
        let arr = CorrelatedArrivals::new(0.0, vec![3.0, 5.0]).unwrap();
        let streams = RngStreams::new(7);
        let mut shared = streams.stream(0);
        let shared_before = shared.clone();
        let mut idio = vec![streams.stream(1), streams.stream(2)];
        let mut lone = [streams.stream(1), streams.stream(2)];
        let mut out = Vec::new();
        for _ in 0..50 {
            arr.draw_into(&mut shared, &mut idio, &mut out);
            assert_eq!(out[0], lone[0].poisson(3.0));
            assert_eq!(out[1], lone[1].poisson(5.0));
        }
        // The shared stream was never consumed.
        assert_eq!(shared.next_f64(), shared_before.clone().next_f64());
        assert_eq!(arr.correlation(0, 1), 0.0);
    }

    #[test]
    fn correlated_arrivals_shock_is_common() {
        let arr = CorrelatedArrivals::new(4.0, vec![0.0, 0.0]).unwrap();
        let streams = RngStreams::new(11);
        let mut shared = streams.stream(0);
        let mut idio = vec![streams.stream(1), streams.stream(2)];
        let mut out = Vec::new();
        for _ in 0..50 {
            arr.draw_into(&mut shared, &mut idio, &mut out);
            // Pure shock: both markets see the identical count every slot.
            assert_eq!(out[0], out[1]);
        }
        assert!((arr.correlation(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_formula() {
        let arr = CorrelatedArrivals::new(2.0, vec![2.0, 6.0]).unwrap();
        let expect = 2.0 / ((4.0f64) * 8.0).sqrt();
        assert!((arr.correlation(0, 1) - expect).abs() < 1e-12);
        assert_eq!(arr.correlation(1, 1), 1.0);
        assert_eq!(arr.rate(1), 8.0);
    }

    #[test]
    fn invalid_rates_rejected() {
        assert!(CorrelatedArrivals::new(-1.0, vec![1.0]).is_err());
        assert!(CorrelatedArrivals::new(1.0, vec![f64::NAN]).is_err());
        assert!(CorrelatedArrivals::new(1.0, Vec::new()).is_err());
    }
}
