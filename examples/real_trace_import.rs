//! Importing archived AWS price dumps and billing under 2014's hourly
//! rules.
//!
//! ```text
//! cargo run --example real_trace_import
//! ```
//!
//! Anyone holding an archived `aws ec2 describe-spot-price-history` dump
//! from the bidding era can feed it straight into the pipeline. This
//! example fabricates a small dump in the exact AWS JSON format, imports
//! it (filtering to Linux r3.xlarge and resampling the irregular change
//! events onto the five-minute grid), computes a persistent bid from it,
//! replays a job, and then bills the same run twice: per slot (the
//! paper's analytical model) and under EC2's hourly rules (what the
//! paper's actual AWS bills followed).

use spotbid::core::price_model::EmpiricalPrices;
use spotbid::core::{persistent, BidDecision, JobSpec};
use spotbid::engine::billing::hourly::{rebill_hourly, sessions_from_bill};
use spotbid::engine::{run_job, RunStatus};
use spotbid::market::units::Price;
use spotbid::trace::aws::{from_aws_json, AwsFilter};

fn fabricate_dump() -> String {
    // Price-change events over one day, newest first (as AWS returns
    // them): parked at $0.0315 with two excursions.
    let events = [
        ("2014-09-09T21:40:00.000Z", "0.031500"),
        ("2014-09-09T20:10:00.000Z", "0.052000"),
        ("2014-09-09T12:35:00.000Z", "0.031500"),
        ("2014-09-09T11:05:00.000Z", "0.034100"),
        ("2014-09-09T00:00:00.000Z", "0.031500"),
    ];
    let rows: Vec<String> = events
        .iter()
        .map(|(ts, price)| {
            format!(
                r#"{{ "Timestamp": "{ts}", "InstanceType": "r3.xlarge",
                     "ProductDescription": "Linux/UNIX",
                     "AvailabilityZone": "us-east-1a", "SpotPrice": "{price}" }}"#
            )
        })
        .collect();
    format!(r#"{{ "SpotPriceHistory": [ {} ] }}"#, rows.join(","))
}

fn main() {
    let dump = fabricate_dump();
    let history = from_aws_json(&dump, &AwsFilter::linux("r3.xlarge"), None).expect("valid dump");
    println!(
        "imported {} slots covering {} (range {} – {})",
        history.len(),
        history.duration(),
        history.min_price(),
        history.max_price()
    );

    // Bid from the imported data (real users would use two months).
    let on_demand = Price::new(0.35);
    let model = EmpiricalPrices::from_history_with_cap(&history, on_demand).unwrap();
    let job = JobSpec::builder(4.0).recovery_secs(30.0).build().unwrap();
    let rec = persistent::optimal_bid(&model, &job).unwrap();
    println!(
        "\npersistent bid from the dump: {}   E[cost] {}",
        rec.price, rec.expected_cost
    );

    // Replay against the same day.
    let out = run_job(
        &history,
        BidDecision::Spot {
            price: rec.price,
            persistent: true,
        },
        &job,
        0,
    )
    .unwrap();
    println!(
        "replay: {:?}   completion {}   interruptions {}",
        out.status, out.completion_time, out.interruptions
    );

    // Two billing views of the same run.
    println!("\nper-slot bill (the analytical model): {}", out.cost);
    let sessions = sessions_from_bill(&out.bill, out.status == RunStatus::Completed);
    println!("usage sessions: {}", sessions.len());
    for s in &sessions {
        println!(
            "  slots [{}, {})  ended: {:?}",
            s.start_slot, s.end_slot, s.end
        );
    }
    let hourly = rebill_hourly(&out.bill, out.status == RunStatus::Completed, &history, 0).unwrap();
    println!(
        "hourly bill (2014 EC2 rules — interrupted partial hours free, \
         final partial hour charged in full): {}",
        hourly.total()
    );
}
