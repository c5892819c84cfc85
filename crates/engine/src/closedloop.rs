//! Multi-tenant closed-loop bidding: the capability none of the old loops
//! had.
//!
//! The paper's two halves never meet: Sections 5–7 bidders are price-takers
//! replaying recorded traces, and the Section-4 equilibrium market is only
//! exercised with synthetic uniform bids. Here they are joined — N
//! strategy-driven tenants observe the prices an endogenous [`SpotMarket`]
//! has posted *so far*, resolve their `BiddingStrategy` online, and submit
//! real bids whose demand moves the very price process they are bidding
//! against (the regime studied by feedback-control bidding, arXiv:1708.01391,
//! and strategic multi-bidder interaction, arXiv:2305.19578).
//!
//! Background load keeps the market alive: each slot, `Poisson(λ)` one-time
//! bidders with geometric work arrive, bidding uniformly over
//! `[π_min, π̄]` — the paper's §4 uniform-bid assumption. Everything is
//! deterministic from one `u64` seed via [`RngStreams`] substreams: stream
//! 0 drives market departures, stream 1 the background arrivals, and
//! streams 2+ are reserved one per 64-tenant decision shard of the
//! [`dense`] oracle; tenants themselves draw no randomness.
//!
//! Two tenant fleets share this contract, mirroring the market's own
//! naive/bid-book split:
//!
//! - [`dense`] — the frozen per-slot fleet: every slot it scans every
//!   tenant and binary-searches every live bid against the report. O(N)
//!   per slot, obviously correct, retained verbatim as the behavioral
//!   oracle.
//! - the **wakeup fleet** (default, behind [`run_closed_loop`]) — a
//!   struct-of-arrays fleet that touches a tenant only on its fresh
//!   decision or when the market's slot report names its bid, decides
//!   once per distinct strategy per slot, and settles running charges
//!   lazily from a per-slot table. A slot where nothing fires and
//!   nothing runs is skipped. Bit-identical to
//!   [`dense`] — same `BidId`s, events, bills, and RNG stream
//!   reservations at any thread count — per the DESIGN.md §5f contract,
//!   held by `tests/wakeup_equiv.rs`.

use crate::billing::{LineItem, UsageKind};
use crate::event::Event;
use crate::observer::{CostTotals, EventLog};
use crate::source::PriceSource;
use crate::EngineError;
use spotbid_core::{BiddingStrategy, JobSpec};
use spotbid_market::params::MarketParams;
use spotbid_market::sim::{
    BidKind, BidRequest, ProviderReport, SlotReport, SpotMarket, Supply, WorkModel,
};
use spotbid_market::units::{Cost, Hours, Price};
use spotbid_numerics::rng::{Rng, RngStreams};
use spotbid_trace::SpotPriceHistory;

pub mod dense;
pub mod portfolio;
mod wakeup;

pub use wakeup::FleetStats;

/// Configuration of one closed-loop session.
#[derive(Debug, Clone, Copy)]
pub struct ClosedLoopConfig {
    /// The provider's market parameters (Eq. 3 pricing).
    pub params: MarketParams,
    /// Pricing-slot length (5 minutes on EC2).
    pub slot_len: Hours,
    /// The on-demand price — every tenant's outside option.
    pub on_demand: Price,
    /// The job each tenant needs to run.
    pub job: JobSpec,
    /// Background-only slots simulated before tenants may bid, so their
    /// strategies have an observed history to fit. Must be ≥ 1.
    pub warmup_slots: usize,
    /// Slots simulated with tenants in the market.
    pub horizon_slots: usize,
    /// Mean background arrivals per slot (`Poisson(λ)` one-time bidders
    /// with geometric work, bidding uniformly over `[π_min, π̄]`).
    pub background_arrivals: f64,
    /// Times a tenant whose bid was rejected/terminated may re-bid before
    /// giving up on spot.
    pub max_resubmissions: u32,
    /// The market's supply model: unbounded Eq. 3 pricing (the default
    /// regime, bit-identical to the pre-supply loop) or a finite provider
    /// whose on-demand pool competes with the spot book for servers.
    pub supply: Supply,
    /// Mean on-demand instance requests per slot (`Poisson`); drawn from
    /// a reserved substream, only under finite supply.
    pub od_arrivals: f64,
    /// Per-slot departure probability of each active on-demand instance
    /// (geometric holding times); only under finite supply.
    pub od_departure: f64,
}

/// What happened to one tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantOutcome {
    /// The tenant's billing tag (its index in the strategy slice).
    pub tenant: u32,
    /// The strategy it bid with.
    pub strategy: BiddingStrategy,
    /// Whether its job's work was completed (on spot or on demand).
    pub completed: bool,
    /// Slots it ran on spot instances.
    pub spot_slots: u64,
    /// Interruptions suffered.
    pub interruptions: u32,
    /// Times it re-bid after a rejection/termination.
    pub resubmissions: u32,
    /// Total cost, including the on-demand completion of any work left
    /// unfinished when the horizon closed.
    pub cost: Cost,
    /// Savings vs. running the whole job on demand: `1 − cost/(π̄·T_s)`.
    pub savings: f64,
}

/// Aggregate result of one closed-loop session.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopReport {
    /// Per-tenant accounting, in tag order.
    pub tenants: Vec<TenantOutcome>,
    /// Tenants whose work completed.
    pub completed: usize,
    /// Mean savings across tenants.
    pub mean_savings: f64,
    /// Mean posted price over the tenant-visible horizon.
    pub mean_price: Price,
    /// Peak posted price over the tenant-visible horizon.
    pub peak_price: Price,
    /// Slots simulated after warmup.
    pub slots: u64,
    /// The provider's side of the session — revenue, utilization,
    /// reclamations, on-demand rejections over the **whole** run (warmup
    /// included). `None` under unbounded supply.
    pub provider: Option<ProviderReport>,
}

/// A fault plan for one closed-loop session, indexed by **absolute** slot
/// (warmup slots included). Both fleets consume faults through the shared
/// `ClosedLoopSource`, so a faulted wakeup run stays bit-identical to
/// the faulted dense run. Slots beyond a vector's length are fault-free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopFaults {
    /// Feed gaps: the slot's posted price never reaches the tenants'
    /// observed history (the market itself is unaffected).
    pub gap: Vec<bool>,
    /// Capacity reclamations: the provider takes every instance back this
    /// slot regardless of bids (see `SpotMarket::reclaim_next_slot`).
    pub reclaim: Vec<bool>,
}

impl LoopFaults {
    fn gap_at(&self, slot: usize) -> bool {
        self.gap.get(slot).copied().unwrap_or(false)
    }

    fn reclaim_at(&self, slot: usize) -> bool {
        self.reclaim.get(slot).copied().unwrap_or(false)
    }
}

/// An endogenous market as a kernel price source: each slot, background
/// bidders arrive, then the market clears, and the posted price is
/// appended to the history tenants observe (unless a feed gap swallows
/// it).
#[derive(Debug)]
struct ClosedLoopSource {
    market: SpotMarket,
    /// Geometric departures inside `SpotMarket::step`.
    market_rng: Rng,
    /// Background arrival process — a separate substream so tenant demand
    /// never shifts the background draws.
    bg_rng: Rng,
    arrivals: f64,
    slot_len: Hours,
    /// On-demand churn process — its own reserved substream (placed after
    /// the decision shards), present only under finite supply so the
    /// unbounded stream layout is untouched.
    od_rng: Option<Rng>,
    od_arrivals: f64,
    od_departure: f64,
    /// Every price the market posted, in slot order (ground truth).
    posted: Vec<Price>,
    /// The prices that reached the tenants' feed (gap slots omitted).
    observed: Vec<Price>,
    faults: Option<LoopFaults>,
}

impl ClosedLoopSource {
    fn new(
        cfg: &ClosedLoopConfig,
        streams: &RngStreams,
        faults: Option<&LoopFaults>,
        n_tenants: usize,
    ) -> Self {
        // Streams 0/1 belong to the market and the background process and
        // 2.. to the decision shards; the on-demand process reserves the
        // next index after the shards, so it exists at any tenant count
        // without shifting any pre-existing stream.
        let od_rng = match cfg.supply {
            Supply::Unbounded => None,
            Supply::Finite { .. } => {
                Some(streams.stream(2 + n_tenants.div_ceil(dense::SHARD_SIZE) as u64))
            }
        };
        ClosedLoopSource {
            market: SpotMarket::with_supply(cfg.params, cfg.slot_len, cfg.supply),
            market_rng: streams.stream(0),
            bg_rng: streams.stream(1),
            arrivals: cfg.background_arrivals,
            slot_len: cfg.slot_len,
            od_rng,
            od_arrivals: cfg.od_arrivals,
            od_departure: cfg.od_departure,
            posted: Vec::new(),
            observed: Vec::new(),
            faults: faults.cloned(),
        }
    }

    fn advance(&mut self) -> SlotReport {
        let slot = self.posted.len();
        let (gap, reclaim) = match &self.faults {
            Some(f) => (f.gap_at(slot), f.reclaim_at(slot)),
            None => (false, false),
        };
        if reclaim {
            self.market.reclaim_next_slot();
        }
        if let Some(od_rng) = self.od_rng.as_mut() {
            // On-demand churn: each active instance departs with
            // probability `od_departure`, then `Poisson(od_arrivals)` new
            // requests contend for the pool — admissions shrink the spot
            // share the market clears this slot, and may force it to
            // reclaim running spot instances.
            let mut departed = 0u32;
            for _ in 0..self.market.od_active() {
                if od_rng.chance(self.od_departure) {
                    departed += 1;
                }
            }
            self.market.release_on_demand(departed);
            let requested = od_rng.poisson(self.od_arrivals).min(u64::from(u32::MAX)) as u32;
            if requested > 0 {
                self.market.request_on_demand(requested);
            }
        }
        let n = self.bg_rng.poisson(self.arrivals);
        let (lo, hi) = (
            self.market.params().pi_min.as_f64(),
            self.market.params().pi_bar.as_f64(),
        );
        for _ in 0..n {
            let price = Price::new(self.bg_rng.range_f64(lo, hi));
            self.market.submit(BidRequest {
                price,
                kind: BidKind::OneTime,
                work: WorkModel::Geometric,
            });
        }
        let report = self.market.step(&mut self.market_rng);
        self.posted.push(report.price);
        if !gap {
            self.observed.push(report.price);
        }
        report
    }

    fn warmup(&mut self, slots: usize) {
        for _ in 0..slots {
            let report = self.advance();
            self.market.recycle(report);
        }
    }

    /// The history a tenant may observe (every price that reached the
    /// feed so far).
    fn observed(&self) -> Result<SpotPriceHistory, EngineError> {
        SpotPriceHistory::new(self.slot_len, self.observed.clone()).map_err(|e| {
            EngineError::InvalidConfig {
                what: format!("observed history: {e}"),
            }
        })
    }
}

impl PriceSource for ClosedLoopSource {
    type Quote = SlotReport;

    fn post(&mut self, _slot: u64, _demand: usize) -> Option<SlotReport> {
        Some(self.advance())
    }

    fn quote_events(&self, slot: u64, quote: &SlotReport, emit: &mut dyn FnMut(Event)) {
        emit(Event::PricePosted {
            slot,
            price: quote.price,
        });
    }

    fn reclaim(&mut self, quote: SlotReport) {
        // Return the spent report's buffers to the market's arena, so the
        // closed loop steps without per-slot event allocation.
        self.market.recycle(quote);
    }
}

/// Per-tenant final state, as both fleets hand it to the shared report
/// assembly. Field-for-field what [`TenantOutcome`] needs before costs.
struct TenantFinal {
    tag: u32,
    strategy: BiddingStrategy,
    completed: bool,
    slots_run: u64,
    interruptions: u32,
    resubmissions: u32,
}

/// The spot charge `price × slot_len` of every slot a wakeup fleet has
/// advanced, slot-major across the session's markets: the replay table its
/// lazy settlement adds from, as `SpotMarket::settle` replays the market's
/// own per-slot table for bid records.
#[derive(Debug)]
pub(crate) struct SlotCharges {
    markets: usize,
    amounts: Vec<Cost>,
}

impl SlotCharges {
    /// An empty table over `markets` markets.
    pub(crate) fn new(markets: usize) -> Self {
        SlotCharges {
            markets,
            amounts: Vec::new(),
        }
    }

    /// Records the next market's charge for the current slot (call once
    /// per market, in market order, every slot).
    pub(crate) fn push(&mut self, price: Price, slot_len: Hours) {
        self.amounts.push(price * slot_len);
    }

    /// The charge of `slot` in `market`.
    pub(crate) fn at(&self, slot: u64, market: usize) -> Cost {
        self.amounts[slot as usize * self.markets + market]
    }

    /// Slots recorded so far.
    pub(crate) fn slots(&self) -> u64 {
        (self.amounts.len() / self.markets) as u64
    }

    /// Adds tenant `tag`'s spot charges for slots `[since, end)` to its
    /// total: slot by slot, one charge per entry of `markets` in the order
    /// given. That is the float-addition sequence of eager accrual, which
    /// charges each running leg every slot in plan order, provided the
    /// running set did not change inside the range.
    pub(crate) fn settle(
        &self,
        costs: &mut CostTotals,
        tag: u32,
        since: u64,
        end: u64,
        markets: impl Iterator<Item = usize> + Clone,
    ) {
        for slot in since..end {
            for m in markets.clone() {
                costs.add(tag, self.at(slot, m));
            }
        }
    }
}

/// Validates slot `slot`'s spot charge the way each of its `Charged`
/// items is validated. The refusal names only the price and the slot, so
/// it is the same for every tenant that ran.
pub(crate) fn spot_charge(slot: u64, price: Price, slot_len: Hours) -> Result<(), EngineError> {
    LineItem {
        slot,
        price,
        duration: slot_len,
        kind: UsageKind::Spot,
        tag: 0,
    }
    .validate()
}

fn validate(strategies: &[BiddingStrategy], cfg: &ClosedLoopConfig) -> Result<(), EngineError> {
    if strategies.is_empty() {
        return Err(EngineError::InvalidConfig {
            what: "no tenants".into(),
        });
    }
    if cfg.warmup_slots == 0 || cfg.horizon_slots == 0 {
        return Err(EngineError::InvalidConfig {
            what: "warmup_slots and horizon_slots must be ≥ 1".into(),
        });
    }
    if !cfg.background_arrivals.is_finite() || cfg.background_arrivals < 0.0 {
        return Err(EngineError::InvalidConfig {
            what: format!(
                "background_arrivals {} must be finite and ≥ 0",
                cfg.background_arrivals
            ),
        });
    }
    if !cfg.od_arrivals.is_finite() || cfg.od_arrivals < 0.0 {
        return Err(EngineError::InvalidConfig {
            what: format!("od_arrivals {} must be finite and ≥ 0", cfg.od_arrivals),
        });
    }
    if !(0.0..=1.0).contains(&cfg.od_departure) {
        return Err(EngineError::InvalidConfig {
            what: format!("od_departure {} must be in [0, 1]", cfg.od_departure),
        });
    }
    if let Supply::Finite { capacity, .. } = cfg.supply {
        if capacity == 0 {
            return Err(EngineError::InvalidConfig {
                what: "finite supply needs capacity ≥ 1".into(),
            });
        }
    }
    cfg.job.validate().map_err(EngineError::Core)?;
    if cfg.job.slot != cfg.slot_len {
        return Err(EngineError::InvalidConfig {
            what: "job slot length must equal the market slot length".into(),
        });
    }
    Ok(())
}

/// §5.1 fallback plus aggregation, shared by both fleets, in one pass
/// over the tenants' final states in tag order: an incomplete tenant
/// finishes its remaining work on demand (charged at the horizon close;
/// the float accumulation order is part of the bit-equivalence contract),
/// then its outcome row is built; the price-path summary follows. `costs`
/// holds the session's spot charges per tenant (tags are tenant indices
/// here).
fn assemble_report(
    finals: impl ExactSizeIterator<Item = TenantFinal>,
    mut costs: CostTotals,
    source: &ClosedLoopSource,
    cfg: &ClosedLoopConfig,
) -> Result<ClosedLoopReport, EngineError> {
    let od_cost = (cfg.on_demand * cfg.job.execution).as_f64();
    let mut outcomes = Vec::with_capacity(finals.len());
    for f in finals {
        if !f.completed {
            let work = (cfg.job.execution - cfg.slot_len * f.slots_run as f64).max(Hours::ZERO);
            if work > Hours::ZERO {
                costs.try_charge(&LineItem {
                    slot: (cfg.warmup_slots + cfg.horizon_slots) as u64,
                    price: cfg.on_demand,
                    duration: work,
                    kind: UsageKind::OnDemand,
                    tag: f.tag,
                })?;
            }
        }
        let cost = costs.total(f.tag);
        outcomes.push(TenantOutcome {
            tenant: f.tag,
            strategy: f.strategy,
            completed: f.completed,
            spot_slots: f.slots_run,
            interruptions: f.interruptions,
            resubmissions: f.resubmissions,
            cost,
            savings: 1.0 - cost.as_f64() / od_cost,
        });
    }
    let visible = &source.posted[cfg.warmup_slots..];
    let mean_price =
        Price::new(visible.iter().map(|p| p.as_f64()).sum::<f64>() / visible.len().max(1) as f64);
    let peak_price = visible
        .iter()
        .copied()
        .fold(Price::ZERO, |a, b| if b > a { b } else { a });
    Ok(ClosedLoopReport {
        completed: outcomes.iter().filter(|o| o.completed).count(),
        mean_savings: outcomes.iter().map(|o| o.savings).sum::<f64>() / outcomes.len() as f64,
        tenants: outcomes,
        mean_price,
        peak_price,
        slots: visible.len() as u64,
        provider: source.market.provider_report(),
    })
}

/// Runs one closed-loop session on the event-driven wakeup fleet: warms
/// the market up with background load, then lets one tenant per strategy
/// bid into it for `horizon_slots`. Deterministic from `seed`, and
/// bit-identical to [`dense::run_closed_loop`] at any thread count.
///
/// Tenants left incomplete at the horizon finish their remaining work on
/// demand (the §5.1 fallback), so every reported cost is for a completed
/// job and savings are comparable across tenant counts.
///
/// # Errors
///
/// [`EngineError::InvalidConfig`] for empty strategy lists, zero warmup or
/// horizon, or a non-finite arrival rate; [`EngineError::Core`] if a
/// strategy fails to resolve.
pub fn run_closed_loop(
    strategies: &[BiddingStrategy],
    cfg: &ClosedLoopConfig,
    seed: u64,
) -> Result<ClosedLoopReport, EngineError> {
    wakeup::run(strategies, cfg, seed, None, None).map(|(report, _)| report)
}

/// As [`run_closed_loop`], optionally fault-injected, also returning the
/// fleet's wakeup statistics (processed/skipped slots, wakeup counts).
///
/// # Errors
///
/// As [`run_closed_loop`].
pub fn run_closed_loop_with_stats(
    strategies: &[BiddingStrategy],
    cfg: &ClosedLoopConfig,
    seed: u64,
    faults: Option<&LoopFaults>,
) -> Result<(ClosedLoopReport, FleetStats), EngineError> {
    wakeup::run(strategies, cfg, seed, faults, None)
}

/// As [`run_closed_loop`], optionally fault-injected, also returning the
/// full event stream and the fleet's wakeup statistics — the equivalence
/// suite's view of a run.
///
/// # Errors
///
/// As [`run_closed_loop`].
pub fn run_closed_loop_logged(
    strategies: &[BiddingStrategy],
    cfg: &ClosedLoopConfig,
    seed: u64,
    faults: Option<&LoopFaults>,
) -> Result<(ClosedLoopReport, Vec<Event>, FleetStats), EngineError> {
    let mut log = EventLog::new();
    let (report, stats) = wakeup::run(strategies, cfg, seed, faults, Some(&mut log))?;
    Ok((report, log.into_events(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ClosedLoopConfig {
        ClosedLoopConfig {
            params: MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap(),
            slot_len: Hours::from_minutes(5.0),
            on_demand: Price::new(0.35),
            job: JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap(),
            warmup_slots: 100,
            horizon_slots: 400,
            background_arrivals: 3.0,
            max_resubmissions: 4,
            supply: Supply::Unbounded,
            od_arrivals: 0.0,
            od_departure: 0.0,
        }
    }

    #[test]
    fn deterministic_from_seed() {
        let strategies = [
            BiddingStrategy::OptimalPersistent,
            BiddingStrategy::Percentile(0.95),
            BiddingStrategy::FixedBid(Price::new(0.30)),
        ];
        let cfg = config();
        let a = run_closed_loop(&strategies, &cfg, 0xC105ED).unwrap();
        let b = run_closed_loop(&strategies, &cfg, 0xC105ED).unwrap();
        assert_eq!(a, b);
        let c = run_closed_loop(&strategies, &cfg, 0xC105ED + 1).unwrap();
        assert_ne!(
            a.mean_price, c.mean_price,
            "different seed, different market"
        );
    }

    #[test]
    fn tenants_complete_and_save() {
        let strategies = [BiddingStrategy::FixedBid(Price::new(0.34)); 4];
        let cfg = config();
        let report = run_closed_loop(&strategies, &cfg, 7).unwrap();
        assert_eq!(report.tenants.len(), 4);
        // Every cost is finite and every tenant's job is accounted for:
        // completed on spot, or topped up on demand.
        for t in &report.tenants {
            assert!(t.cost.as_f64().is_finite() && t.cost.as_f64() > 0.0);
            assert!(t.savings <= 1.0);
        }
        // A near-π̄ persistent bid in this quiet market should complete.
        assert!(report.completed > 0, "{report:?}");
        assert!(report.mean_price > Price::ZERO);
        assert!(report.peak_price >= report.mean_price);
    }

    #[test]
    fn on_demand_strategy_charges_full_job() {
        let cfg = config();
        let report = run_closed_loop(&[BiddingStrategy::OnDemand], &cfg, 11).unwrap();
        let t = &report.tenants[0];
        assert!(t.completed);
        assert_eq!(t.spot_slots, 0);
        assert!((t.cost.as_f64() - 0.35).abs() < 1e-12, "od × 1h job");
        assert!(t.savings.abs() < 1e-12);
    }

    #[test]
    fn demand_moves_the_price() {
        // More tenants → more accepted demand → higher posted prices
        // (Eq. 3's price rises with L). Compare 1 vs 24 aggressive
        // persistent bidders on the same seed.
        let cfg = ClosedLoopConfig {
            background_arrivals: 1.0,
            ..config()
        };
        let lone =
            run_closed_loop(&[BiddingStrategy::FixedBid(Price::new(0.34))], &cfg, 99).unwrap();
        let crowd_strats = vec![BiddingStrategy::FixedBid(Price::new(0.34)); 24];
        let crowd = run_closed_loop(&crowd_strats, &cfg, 99).unwrap();
        assert!(
            crowd.mean_price > lone.mean_price,
            "crowd {} vs lone {}",
            crowd.mean_price,
            lone.mean_price
        );
    }

    #[test]
    fn invalid_configs_are_refused() {
        let cfg = config();
        assert!(matches!(
            run_closed_loop(&[], &cfg, 1),
            Err(EngineError::InvalidConfig { .. })
        ));
        let bad = ClosedLoopConfig {
            warmup_slots: 0,
            ..cfg
        };
        assert!(run_closed_loop(&[BiddingStrategy::OnDemand], &bad, 1).is_err());
        let bad = ClosedLoopConfig {
            background_arrivals: f64::NAN,
            ..cfg
        };
        assert!(run_closed_loop(&[BiddingStrategy::OnDemand], &bad, 1).is_err());
        let bad = ClosedLoopConfig {
            slot_len: Hours::from_minutes(10.0),
            ..cfg
        };
        assert!(run_closed_loop(&[BiddingStrategy::OnDemand], &bad, 1).is_err());
    }

    /// One tenant's legs (markets in plan order) under a random wake
    /// schedule: at each wake slot a random subset of legs ran, and a
    /// random subset of those keeps running until the next wake.
    struct Streaks {
        legs: Vec<usize>,
        /// `(slot, ran, keeps_running)`, ascending by slot; the sets are
        /// indices into `legs`, ascending.
        wakes: Vec<(u64, Vec<usize>, Vec<usize>)>,
    }

    fn random_streaks(rng: &mut Rng, markets: usize, slots: u64, split: bool) -> Streaks {
        let legs: Vec<usize> = if split {
            (0..markets).collect()
        } else {
            vec![(rng.range_f64(0.0, markets as f64) as usize).min(markets - 1)]
        };
        let subset = |rng: &mut Rng, from: &[usize]| -> Vec<usize> {
            from.iter().copied().filter(|_| rng.chance(0.6)).collect()
        };
        let all: Vec<usize> = (0..legs.len()).collect();
        let mut wakes = Vec::new();
        let p = rng.range_f64(0.02, 0.3);
        for slot in 0..slots {
            // Slot 0 wakes often, so streaks start at the session start.
            if (slot == 0 && rng.chance(0.7)) || rng.chance(p) {
                let ran = subset(rng, &all);
                let keeps = subset(rng, &ran);
                wakes.push((slot, ran, keeps));
            }
        }
        Streaks { legs, wakes }
    }

    #[test]
    fn lazy_settlement_matches_eager_accrual_bit_for_bit() {
        // Eager accrual charges every running leg every slot, in plan
        // order; lazy settlement charges a tenant's carried slots from
        // the table only at its next wake (or at the session end), slot
        // by slot over the legs still running. Per tenant the two must add
        // the same floats in the same order.
        let slot_len = Hours::from_minutes(5.0);
        let mut rng = Rng::seed_from_u64(0x1A2_5E77);
        let (mut from_zero, mut open_at_end, mut carried) = (0, 0, 0u64);
        for round in 0..24 {
            let markets = 1 + round % 3;
            let slots = 1 + rng.range_f64(0.0, 150.0) as u64;
            let mut charges = SlotCharges::new(markets);
            for _ in 0..slots {
                for _ in 0..markets {
                    // Prices with long mantissas, so the order of the
                    // additions shows in the sums.
                    charges.push(Price::new(rng.range_f64(0.0, 0.4) / 3.0), slot_len);
                }
            }
            assert_eq!(charges.slots(), slots);
            let n = 150;
            let mut eager = CostTotals::new(n);
            let mut lazy = CostTotals::new(n);
            for t in 0..n as u32 {
                let st = random_streaks(&mut rng, markets, slots, t % 2 == 1);
                let markets_of =
                    |set: &[usize]| set.iter().map(|&k| st.legs[k]).collect::<Vec<_>>();

                // Eager: walk every slot.
                let mut running: Vec<usize> = Vec::new();
                let mut next = 0;
                for slot in 0..slots {
                    let ran = match st.wakes.get(next) {
                        Some((w, ran, keeps)) if *w == slot => {
                            next += 1;
                            let ran = markets_of(ran);
                            running = markets_of(keeps);
                            ran
                        }
                        _ => running.clone(),
                    };
                    for m in ran {
                        eager.add(t, charges.at(slot, m));
                    }
                }

                // Lazy: settle the carried slots at each wake, then charge
                // the wake slot itself; the session end settles the rest.
                let (mut since, mut running) = (0, Vec::new());
                for (w, ran, keeps) in &st.wakes {
                    charges.settle(&mut lazy, t, since, *w, running.iter().copied());
                    carried += (*w - since) * running.len() as u64;
                    for m in markets_of(ran) {
                        lazy.add(t, charges.at(*w, m));
                    }
                    if *w == 0 && !ran.is_empty() {
                        from_zero += 1;
                    }
                    since = w + 1;
                    running = markets_of(keeps);
                }
                if !running.is_empty() && since < slots {
                    open_at_end += 1;
                }
                charges.settle(&mut lazy, t, since, slots, running.iter().copied());
            }
            let (e, l) = (eager.into_totals(), lazy.into_totals());
            for (t, (e, l)) in e.iter().zip(&l).enumerate() {
                assert_eq!(
                    e.as_f64().to_bits(),
                    l.as_f64().to_bits(),
                    "round {round}, tenant {t}: eager {e:?} vs lazy {l:?}"
                );
            }
        }
        assert!(
            from_zero > 0 && open_at_end > 0 && carried > 0,
            "vacuous schedules: {from_zero} streaks from slot 0, \
             {open_at_end} open at the end, {carried} carried leg-slots"
        );
    }

    #[test]
    fn wakeup_matches_dense_on_a_small_session() {
        // The in-crate smoke version of tests/wakeup_equiv.rs: identical
        // reports, events, and skip accounting on one mixed session.
        let strategies = [
            BiddingStrategy::OptimalPersistent,
            BiddingStrategy::Percentile(0.95),
            BiddingStrategy::FixedBid(Price::new(0.30)),
            BiddingStrategy::OptimalOneTime,
            BiddingStrategy::OnDemand,
        ];
        let cfg = config();
        let (wr, we, stats) = run_closed_loop_logged(&strategies, &cfg, 0xBEEF, None).unwrap();
        let (dr, de) = dense::run_closed_loop_logged(&strategies, &cfg, 0xBEEF, None).unwrap();
        assert_eq!(wr, dr);
        assert_eq!(we, de);
        assert!(
            stats.skipped_slots > 0,
            "a 400-slot tail should have quiet slots"
        );
    }

    #[test]
    fn faulted_wakeup_matches_faulted_dense() {
        let strategies = [
            BiddingStrategy::FixedBid(Price::new(0.30)),
            BiddingStrategy::OptimalPersistent,
        ];
        let cfg = config();
        let total = cfg.warmup_slots + cfg.horizon_slots;
        let mut faults = LoopFaults {
            gap: vec![false; total],
            reclaim: vec![false; total],
        };
        for s in (0..total).step_by(17) {
            faults.gap[s] = true;
        }
        // Jobs need 12 slots; an outage every 4th slot interrupts every
        // tenant mid-run repeatedly.
        for s in ((cfg.warmup_slots + 3)..total).step_by(4) {
            faults.reclaim[s] = true;
        }
        let (wr, we, _) = run_closed_loop_logged(&strategies, &cfg, 0xFA17, Some(&faults)).unwrap();
        let (dr, de) =
            dense::run_closed_loop_logged(&strategies, &cfg, 0xFA17, Some(&faults)).unwrap();
        assert_eq!(wr, dr);
        assert_eq!(we, de);
        // Reclamations actually bit: somebody was interrupted.
        assert!(wr.tenants.iter().any(|t| t.interruptions > 0), "{wr:?}");
    }
}
