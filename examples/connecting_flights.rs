//! Non-equality join conditions (paper Sec. 6.6): a connection is valid
//! when the first leg *arrives before* the second leg *departs* —
//! `leg1.arrival < leg2.departure` — rather than on an equality key.
//!
//! ```sh
//! cargo run --example connecting_flights
//! ```

use ksjq::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> CoreResult<()> {
    let mut rng = StdRng::seed_from_u64(11);
    let schema = || {
        Schema::builder()
            .local("cost", Preference::Min)
            .local("comfort", Preference::Max)
            .build()
            .map_err(ksjq::join::JoinError::from)
    };

    // Leg 1: keyed by arrival time (hours since midnight).
    let mut leg1 = Relation::builder(schema()?);
    for _ in 0..80 {
        let arrival = 6.0 + 12.0 * rng.gen::<f64>();
        let comfort = (1.0 + 4.0 * rng.gen::<f64>() * 10.0).round() / 10.0;
        let cost = (80.0 + 50.0 * comfort + 40.0 * rng.gen::<f64>()).round();
        leg1.add_keyed(arrival, &[cost, comfort])
            .map_err(ksjq::join::JoinError::from)?;
    }
    let leg1 = leg1.build().map_err(ksjq::join::JoinError::from)?;

    // Leg 2: keyed by departure time.
    let mut leg2 = Relation::builder(schema()?);
    for _ in 0..80 {
        let departure = 8.0 + 14.0 * rng.gen::<f64>();
        let comfort = (1.0 + 4.0 * rng.gen::<f64>() * 10.0).round() / 10.0;
        let cost = (70.0 + 45.0 * comfort + 35.0 * rng.gen::<f64>()).round();
        leg2.add_keyed(departure, &[cost, comfort])
            .map_err(ksjq::join::JoinError::from)?;
    }
    let leg2 = leg2.build().map_err(ksjq::join::JoinError::from)?;
    let engine = Engine::new();
    let leg1 = engine.register("leg1", leg1)?;
    let leg2 = engine.register("leg2", leg2)?;
    let (leg1, leg2) = (leg1.relation(), leg2.relation());

    // arrival < departure; 4 joined attributes. At k = 3 two connections
    // can 3-dominate *each other* and annihilate (a real k-dominance
    // phenomenon, paper Sec. 2.2) — on this continuous data that empties
    // the answer, so we query the full skyline join k = 4 and report the
    // k = 3 count alongside.
    let plan = QueryPlan::new("leg1", "leg2").join(JoinSpec::Theta(ThetaOp::Lt));
    let query = engine.prepare(&plan.clone().k(4))?;
    println!(
        "{} x {} legs, {} valid connections (arrival < departure)",
        80,
        80,
        query.context().count_pairs()
    );
    let at_k3 = engine.execute(&plan.k(3))?;
    println!(
        "k = 3 annihilates everything by mutual domination: {} survivors",
        at_k3.len()
    );

    let result = query.execute()?;
    println!(
        "\n{} connections survive the (k = 4) skyline join:",
        result.len()
    );
    println!(
        "{:>7} {:>7} {:>8} | {:>6} {:>7} {:>8}",
        "arr", "cost1", "comfort1", "dep", "cost2", "comfort2"
    );
    for &(u, v) in result.pairs.iter().take(12) {
        let a = leg1.raw_row(u);
        let b = leg2.raw_row(v);
        println!(
            "{:>7.2} {:>7.0} {:>8.1} | {:>6.2} {:>7.0} {:>8.1}",
            leg1.numeric_key(u).unwrap(),
            a[0],
            a[1],
            leg2.numeric_key(v).unwrap(),
            b[0],
            b[1]
        );
    }
    if result.len() > 12 {
        println!("  … and {} more", result.len() - 12);
    }

    // Every reported connection really is feasible.
    for &(u, v) in &result.pairs {
        assert!(leg1.numeric_key(u).unwrap() < leg2.numeric_key(v).unwrap());
    }
    let c = result.stats.counts;
    println!(
        "\nclassification pruned {} of {} connections before joining",
        c.pruned_pairs(),
        c.joined_pairs
    );
    Ok(())
}
