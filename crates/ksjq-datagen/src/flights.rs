//! Synthetic two-leg flight network (stand-in for the paper's real data).
//!
//! The paper's Sec. 7.4 evaluates on flights scraped from MakeMyTrip:
//! 192 flights from New Delhi to 13 hub cities and 155 flights from those
//! hubs to Mumbai, with five attributes per flight — cost and flying time
//! (aggregated across legs) plus date-change fee, popularity and amenities
//! (local). That scrape is not redistributable, so this module generates a
//! network with the same shape:
//!
//! * identical cardinalities and hub count (configurable),
//! * the same schema and aggregate slots (joined tuples have
//!   3 + 3 + 2 = 8 attributes),
//! * per-hub base fares (hub distance drives both cost and duration),
//! * anti-correlation between price and quality (better-rated flights cost
//!   more), the property that makes skylines of real marketplaces large.

use ksjq_relation::{Preference, Relation, Schema, StringDictionary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the synthetic network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightNetworkSpec {
    /// Flights on the first leg (paper: 192, New Delhi → hub).
    pub outbound: usize,
    /// Flights on the second leg (paper: 155, hub → Mumbai).
    pub inbound: usize,
    /// Number of hub cities (paper: 13).
    pub hubs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FlightNetworkSpec {
    /// The paper's cardinalities: 192 × 155 flights over 13 hubs.
    fn default() -> Self {
        FlightNetworkSpec {
            outbound: 192,
            inbound: 155,
            hubs: 13,
            seed: 0x5EED,
        }
    }
}

/// A generated two-leg flight network.
#[derive(Debug, Clone)]
pub struct FlightNetwork {
    /// First-leg flights; join key = destination hub.
    pub outbound: Relation,
    /// Second-leg flights; join key = source hub.
    pub inbound: Relation,
    /// Hub-city dictionary shared by both join-key columns.
    pub hubs: StringDictionary,
}

/// The five-attribute flight schema used by both legs.
///
/// Cost and flying time occupy aggregate slots 0 and 1 (summed over the
/// legs); date-change fee, popularity and amenities are local. Popularity
/// and amenities are `Max` attributes — unlike the didactic tables of the
/// paper, the real-data experiment uses natural directions.
pub fn flight_schema() -> Schema {
    Schema::builder()
        .agg("cost", Preference::Min, 0)
        .agg("flying_time", Preference::Min, 1)
        .local("date_change_fee", Preference::Min)
        .local("popularity", Preference::Max)
        .local("amenities", Preference::Max)
        .build()
        .expect("static schema is valid")
}

const HUB_NAMES: [&str; 16] = [
    "JAI", "AMD", "LKO", "IDR", "NAG", "BHO", "UDR", "RPR", "GOI", "HYD", "BLR", "PNQ", "PAT",
    "VNS", "IXC", "GAU",
];

impl FlightNetworkSpec {
    /// Generate the network.
    ///
    /// # Panics
    ///
    /// Panics when `hubs` is 0 or exceeds the built-in hub-name pool (16).
    pub fn generate(&self) -> FlightNetwork {
        assert!(
            self.hubs >= 1 && self.hubs <= HUB_NAMES.len(),
            "hubs must be 1..=16"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut hubs = StringDictionary::new();
        for name in HUB_NAMES.iter().take(self.hubs) {
            hubs.encode(name);
        }
        // Per-hub route length factor: drives both legs' base cost and time.
        let leg1_dist: Vec<f64> = (0..self.hubs)
            .map(|_| 0.4 + 1.2 * rng.gen::<f64>())
            .collect();
        let leg2_dist: Vec<f64> = (0..self.hubs)
            .map(|_| 0.4 + 1.2 * rng.gen::<f64>())
            .collect();

        let outbound = gen_leg(&mut rng, self.outbound, self.hubs, &leg1_dist);
        let inbound = gen_leg(&mut rng, self.inbound, self.hubs, &leg2_dist);
        FlightNetwork {
            outbound,
            inbound,
            hubs,
        }
    }
}

fn gen_leg(rng: &mut StdRng, n: usize, hubs: usize, dist: &[f64]) -> Relation {
    let mut b = Relation::builder(flight_schema()).with_capacity(n);
    for _ in 0..n {
        let hub = rng.gen_range(0..hubs);
        let d = dist[hub];
        // Quality in [0,1): drives popularity/amenities up and price up too
        // (anti-correlation between cheapness and quality).
        let quality = rng.gen::<f64>();
        let carrier_premium = 0.85 + 0.5 * quality + 0.15 * rng.gen::<f64>();
        let cost = (1800.0 * d * carrier_premium + 400.0 * rng.gen::<f64>()).round();
        let flying_time = (1.1 * d + 0.2 * d * rng.gen::<f64>() + 0.2 * rng.gen::<f64>()).max(0.5);
        let flying_time = (flying_time * 10.0).round() / 10.0;
        let fee = (800.0 + 2400.0 * (1.0 - quality) * rng.gen::<f64>()).round();
        let popularity = (5.0 + 90.0 * (0.6 * quality + 0.4 * rng.gen::<f64>())).round();
        let amenities = (10.0 + 80.0 * (0.7 * quality + 0.3 * rng.gen::<f64>())).round();
        b.add_grouped(hub as u64, &[cost, flying_time, fee, popularity, amenities])
            .expect("generated flight row is valid");
    }
    b.build().expect("generated leg is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_shape() {
        let net = FlightNetworkSpec::default().generate();
        assert_eq!(net.outbound.n(), 192);
        assert_eq!(net.inbound.n(), 155);
        assert_eq!(net.hubs.len(), 13);
        assert!(net.outbound.group_index().unwrap().group_count() <= 13);
        assert_eq!(net.outbound.d(), 5);
        assert_eq!(net.outbound.schema().agg_count(), 2);
    }

    #[test]
    fn deterministic() {
        let a = FlightNetworkSpec::default().generate();
        let b = FlightNetworkSpec::default().generate();
        assert_eq!(a.outbound, b.outbound);
        assert_eq!(a.inbound, b.inbound);
    }

    #[test]
    fn joined_size_matches_hub_fanout() {
        // |R1 ⋈ R2| = Σ_h |out_h| · |in_h|; the paper reports 2649 for its
        // real data — ours lands in the same ballpark by construction.
        let net = FlightNetworkSpec::default().generate();
        let go = net.outbound.group_index().unwrap();
        let gi = net.inbound.group_index().unwrap();
        let joined: usize = go
            .iter()
            .map(|(gid, m)| m.len() * gi.members(gid).len())
            .sum();
        assert!(joined > 1000 && joined < 5000, "joined size {joined}");
    }

    #[test]
    fn price_quality_anticorrelation() {
        let net = FlightNetworkSpec {
            outbound: 2000,
            ..Default::default()
        }
        .generate();
        // cost (attr 0, Min ⇒ stored as-is) vs amenities (attr 4, Max ⇒
        // stored negated). Positive correlation of the *stored* values
        // means cheap flights have few amenities.
        let n = net.outbound.n() as f64;
        let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for (&x, &y) in net.outbound.column(0).iter().zip(net.outbound.column(4)) {
            sx += x;
            sy += y;
            sxx += x * x;
            syy += y * y;
            sxy += x * y;
        }
        let cov = sxy / n - (sx / n) * (sy / n);
        let r = cov / ((sxx / n - (sx / n).powi(2)) * (syy / n - (sy / n).powi(2))).sqrt();
        assert!(r < -0.15, "expected anti-correlation, got r = {r}");
    }

    #[test]
    #[should_panic(expected = "hubs must be")]
    fn too_many_hubs_panics() {
        FlightNetworkSpec {
            hubs: 17,
            ..Default::default()
        }
        .generate();
    }

    #[test]
    fn attributes_positive() {
        let net = FlightNetworkSpec::default().generate();
        for rel in [&net.outbound, &net.inbound] {
            for t in rel.ids() {
                let raw = rel.raw_row(t);
                assert!(
                    raw.iter().all(|&v| v > 0.0),
                    "non-positive attribute in {raw:?}"
                );
            }
        }
    }
}
