//! Product price + shipping cost — the paper's second motivating example:
//! skyline preferences over the *sum* of product price and shipping cost,
//! joined across two independent catalogs.
//!
//! Also demonstrates the Cartesian product special case (Sec. 6.5): when
//! any product can ship with any carrier, no tuple is ever `SN` and the
//! answer needs no verification at all.
//!
//! ```sh
//! cargo run --example product_shipping
//! ```

use ksjq::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> CoreResult<()> {
    let mut rng = StdRng::seed_from_u64(42);

    // Products: price is aggregated with the carrier's cost; the rating
    // and warranty are local.
    let product_schema = Schema::builder()
        .agg("price", Preference::Min, 0)
        .local("rating", Preference::Max)
        .local("warranty_m", Preference::Max)
        .build()
        .map_err(ksjq::join::JoinError::from)?;
    // Carriers: cost aggregates with price; delivery days and insurance
    // are local.
    let carrier_schema = Schema::builder()
        .agg("ship_cost", Preference::Min, 0)
        .local("days", Preference::Min)
        .local("insured_pct", Preference::Max)
        .build()
        .map_err(ksjq::join::JoinError::from)?;

    let mut products = Relation::builder(product_schema);
    for _ in 0..120 {
        let quality = rng.gen::<f64>();
        let price = (120.0 + 500.0 * quality + 80.0 * rng.gen::<f64>()).round();
        let rating = (2.0 + 3.0 * (0.7 * quality + 0.3 * rng.gen::<f64>()) * 10.0).round() / 10.0;
        let warranty = [6.0, 12.0, 24.0, 36.0][rng.gen_range(0..4usize)];
        products
            .add(&[price, rating, warranty])
            .map_err(ksjq::join::JoinError::from)?;
    }
    let products = products.build().map_err(ksjq::join::JoinError::from)?;

    let mut carriers = Relation::builder(carrier_schema);
    for _ in 0..40 {
        let speed = rng.gen::<f64>();
        let cost = (4.0 + 40.0 * speed + 6.0 * rng.gen::<f64>()).round();
        let days = (1.0 + 9.0 * (1.0 - speed) + rng.gen::<f64>()).round();
        let insured = (50.0 + 50.0 * rng.gen::<f64>()).round();
        carriers
            .add(&[cost, days, insured])
            .map_err(ksjq::join::JoinError::from)?;
    }
    let carriers = carriers.build().map_err(ksjq::join::JoinError::from)?;
    let engine = Engine::new();
    let products = engine.register("products", products)?;
    let carriers = engine.register("carriers", carriers)?;
    let (products, carriers) = (products.relation(), carriers.relation());

    // Joined attributes: rating, warranty, days, insured, total price — 5.
    // Valid k ∈ {4, 5}; k = 4 keeps the shortlist manageable.
    let query = engine.prepare(
        &QueryPlan::new("products", "carriers")
            .join(JoinSpec::Cartesian)
            .aggregate(AggFunc::Sum)
            .k(4),
    )?;
    println!(
        "{} products x {} carriers = {} combinations, {} joined attributes",
        products.n(),
        carriers.n(),
        query.context().count_pairs(),
        query.context().d_joined()
    );

    let result = query.execute()?;
    println!("\n{} combinations are 4-dominant skylines:", result.len());
    println!(
        "{:>11} {:>7} {:>9} {:>6} {:>9}",
        "total price", "rating", "warranty", "days", "insured %"
    );
    for &(u, v) in result.pairs.iter().take(12) {
        let p = products.raw_row(u);
        let c = carriers.raw_row(v);
        println!(
            "{:>11.0} {:>7.1} {:>9.0} {:>6.0} {:>9.0}",
            p[0] + c[0],
            p[1],
            p[2],
            c[1],
            c[2]
        );
    }
    if result.len() > 12 {
        println!("  … and {} more", result.len() - 12);
    }

    // Sec. 6.5 in action: a Cartesian product has no SN tuples, so the
    // optimized algorithm did zero verification joins.
    let c = result.stats.counts;
    assert_eq!(c.likely_pairs + c.maybe_pairs, 0);
    println!(
        "\nCartesian fast path: {} 'yes' pairs emitted, {} pruned, 0 verified",
        c.yes_pairs,
        c.pruned_pairs()
    );
    Ok(())
}
