//! Quickstart: register two relations with an engine, plan a query,
//! explain it, execute it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ksjq::prelude::*;

fn main() -> CoreResult<()> {
    // A marketplace: laptops per vendor region, and shipping offers per
    // region. We join on the region and want combinations that are hard
    // to beat on at least k = 4 of the 5 criteria.
    let laptops_schema = Schema::builder()
        .local("price", Preference::Min)
        .local("weight_kg", Preference::Min)
        .local("battery_h", Preference::Max)
        .build()?;
    let shipping_schema = Schema::builder()
        .local("ship_cost", Preference::Min)
        .local("days", Preference::Min)
        .build()?;

    let mut regions = StringDictionary::new();

    let mut laptops = Relation::builder(laptops_schema);
    for (region, price, weight, battery) in [
        ("EU", 999.0, 1.3, 11.0),
        ("EU", 899.0, 1.8, 9.0),
        ("EU", 1099.0, 1.1, 14.0),
        ("US", 949.0, 1.4, 10.0),
        ("US", 1299.0, 1.0, 16.0),
        ("US", 999.0, 1.4, 9.5),
    ] {
        laptops.add_grouped(regions.encode(region), &[price, weight, battery])?;
    }

    // Note: two *incomparable* shippers in one region would annihilate
    // each other's combinations under k = 4 (each is better-or-equal in
    // 3 laptop ties + its own strong suit) — a genuine k-dominance quirk.
    // Here each region has a clearly best shipper plus a dominated one.
    let mut shipping = Relation::builder(shipping_schema);
    for (region, cost, days) in [
        ("EU", 15.0, 3.0),
        ("EU", 18.0, 3.0),
        ("US", 9.0, 5.0),
        ("US", 9.0, 8.0),
    ] {
        shipping.add_grouped(regions.encode(region), &[cost, days])?;
    }

    // Register once; the engine owns the data from here on and can serve
    // any number of (concurrent) queries over it.
    let engine = Engine::new();
    engine.register("laptops", laptops.build()?)?;
    engine.register("shipping", shipping.build()?)?;

    // d1 = 3, d2 = 2 ⇒ valid k ∈ {4, 5}; k = 5 is the ordinary skyline
    // join, k = 4 relaxes it.
    let plan = QueryPlan::new("laptops", "shipping")
        .goal(Goal::Exact(4))
        .algorithm(Algorithm::Grouping);
    let prepared = engine.prepare(&plan)?;
    println!("{}\n", prepared.explain());
    let result = prepared.execute()?;
    assert_eq!(
        result.pairs,
        [(TupleId(2), TupleId(0)), (TupleId(4), TupleId(2))],
        "the two 4-dominant laptop/shipping pairs"
    );

    let laptops = engine.relation("laptops")?;
    let shipping = engine.relation("shipping")?;
    println!(
        "4-dominant skyline of laptops ⋈ shipping ({} tuples):\n",
        result.len()
    );
    println!(
        "{:>4} {:>8} {:>7} {:>8} | {:>6} {:>5} {:>5}",
        "pair", "price", "weight", "battery", "region", "ship", "days"
    );
    for &(u, v) in &result.pairs {
        let l = laptops.relation().raw_row(u);
        let s = shipping.relation().raw_row(v);
        let region = regions
            .decode(laptops.relation().group_id(u).unwrap())
            .unwrap();
        println!(
            "{:>4} {:>8.0} {:>7.1} {:>8.1} | {:>6} {:>5.0} {:>5.0}",
            format!("{u}{v}"),
            l[0],
            l[1],
            l[2],
            region,
            s[0],
            s[1]
        );
    }

    let stats = result.stats;
    println!(
        "\njoined tuples: {}, pruned without joining: {}, verified: {}",
        stats.counts.joined_pairs,
        stats.counts.pruned_pairs(),
        stats.counts.likely_pairs + stats.counts.maybe_pairs,
    );
    Ok(())
}
