//! Synthetic data distributions (Börzsönyi et al. / `randdataset`).

use ksjq_relation::{Relation, Result, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::str::FromStr;

/// The three classic skyline benchmark distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataType {
    /// Every attribute uniform on `[0, 1)`, independently. The paper's
    /// default (`T = Independent` in Table 7).
    #[default]
    Independent,
    /// Attributes clustered around the diagonal: tuples good in one
    /// attribute tend to be good in all — small skylines, fast queries.
    Correlated,
    /// Attributes spread along a hyperplane of constant sum: tuples good in
    /// one attribute tend to be bad in others — the skyline-hostile case.
    AntiCorrelated,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Independent => write!(f, "independent"),
            DataType::Correlated => write!(f, "correlated"),
            DataType::AntiCorrelated => write!(f, "anti-correlated"),
        }
    }
}

impl FromStr for DataType {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "independent" | "ind" | "i" => Ok(DataType::Independent),
            "correlated" | "corr" | "c" => Ok(DataType::Correlated),
            "anti-correlated" | "anticorrelated" | "anti" | "a" => Ok(DataType::AntiCorrelated),
            other => Err(format!("unknown data type '{other}'")),
        }
    }
}

/// Specification of one synthetic base relation.
///
/// Mirrors the knobs of the paper's Table 7: `n` tuples of
/// `d = agg_attrs + local_attrs` attributes, assigned uniformly to
/// `groups` join groups, drawn from `data_type`, deterministically from
/// `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Number of tuples (`n`).
    pub n: usize,
    /// Number of aggregated attributes (`a`), occupying slots `0..a`.
    pub agg_attrs: usize,
    /// Number of local attributes (`l = d − a`).
    pub local_attrs: usize,
    /// Number of join groups (`g`); keys are `0..g`.
    pub groups: usize,
    /// Data distribution (`T`).
    pub data_type: DataType,
    /// RNG seed; equal specs generate identical relations.
    pub seed: u64,
}

impl DatasetSpec {
    /// A spec with the paper's default shape for one base relation
    /// (Table 7: n = 3300, d = 7, a = 2, g = 10, independent).
    pub fn paper_default(seed: u64) -> Self {
        DatasetSpec {
            n: 3300,
            agg_attrs: 2,
            local_attrs: 5,
            groups: 10,
            data_type: DataType::Independent,
            seed,
        }
    }

    /// Total attribute count (`d = a + l`).
    pub fn d(&self) -> usize {
        self.agg_attrs + self.local_attrs
    }

    fn schema(&self) -> Result<Schema> {
        Schema::uniform_agg(self.agg_attrs, self.local_attrs)
    }

    fn fill_row(&self, rng: &mut StdRng, row: &mut [f64]) {
        match self.data_type {
            DataType::Independent => {
                for v in row.iter_mut() {
                    *v = rng.gen::<f64>();
                }
            }
            DataType::Correlated => {
                let base = peaked01(rng);
                for v in row.iter_mut() {
                    *v = clamp01(base + (rng.gen::<f64>() - 0.5) * 0.25);
                }
            }
            DataType::AntiCorrelated => {
                // Spread the tuple along the hyperplane of constant sum
                // `d * base`: good in one attribute ⇒ bad in another. The
                // plane position must stay tight around 0.5 so the in-plane
                // deviations dominate the covariance; its width shrinks
                // with 1/sqrt(d) because the deviation covariance does too
                // (cross-attribute covariance = Var(base) - 1/(12d), which
                // this width keeps at -1/(16d) < 0 for every d).
                let d = row.len();
                let base = 0.5 + (peaked01(rng) - 0.5) / (d as f64).sqrt();
                let mut devs = vec![0.0f64; d];
                let mut mean = 0.0;
                for dev in devs.iter_mut() {
                    *dev = rng.gen::<f64>();
                    mean += *dev;
                }
                mean /= d as f64;
                for (v, dev) in row.iter_mut().zip(devs.iter()) {
                    *v = clamp01(base + (dev - mean));
                }
            }
        }
    }

    /// Generate the relation with equality-join group keys.
    pub fn generate(&self) -> Relation {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let d = self.d();
        let mut row = vec![0.0f64; d];
        let mut b = Relation::builder(self.schema().expect("valid spec")).with_capacity(self.n);
        for _ in 0..self.n {
            let g = if self.groups <= 1 {
                0
            } else {
                rng.gen_range(0..self.groups)
            } as u64;
            self.fill_row(&mut rng, &mut row);
            b.add_grouped(g, &row)
                .expect("generated row matches schema");
        }
        b.build().expect("generated relation is valid")
    }

    /// Generate the relation with a numeric theta-join key, uniform on
    /// `[0, 1)` (used by the non-equality join experiments, Sec. 6.6).
    pub fn generate_theta(&self) -> Relation {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let d = self.d();
        let mut row = vec![0.0f64; d];
        let mut b = Relation::builder(self.schema().expect("valid spec")).with_capacity(self.n);
        for _ in 0..self.n {
            let key = rng.gen::<f64>();
            self.fill_row(&mut rng, &mut row);
            b.add_keyed(key, &row)
                .expect("generated row matches schema");
        }
        b.build().expect("generated relation is valid")
    }
}

/// A peaked value on `[0, 1)` (Irwin–Hall mean of four uniforms; roughly
/// normal around 0.5 with σ ≈ 0.14).
fn peaked01(rng: &mut StdRng) -> f64 {
    (rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>()) / 4.0
}

#[inline]
fn clamp01(v: f64) -> f64 {
    v.clamp(0.0, 1.0 - f64::EPSILON)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(data_type: DataType) -> DatasetSpec {
        DatasetSpec {
            n: 500,
            agg_attrs: 1,
            local_attrs: 3,
            groups: 5,
            data_type,
            seed: 7,
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = spec(DataType::Independent).generate();
        let b = spec(DataType::Independent).generate();
        assert_eq!(a, b);
        let c = DatasetSpec {
            seed: 8,
            ..spec(DataType::Independent)
        }
        .generate();
        assert_ne!(a, c);
    }

    #[test]
    fn shape_matches_spec() {
        for t in [
            DataType::Independent,
            DataType::Correlated,
            DataType::AntiCorrelated,
        ] {
            let r = spec(t).generate();
            assert_eq!(r.n(), 500);
            assert_eq!(r.d(), 4);
            assert_eq!(r.schema().agg_count(), 1);
            let gi = r.group_index().unwrap();
            assert!(gi.group_count() <= 5);
            // With 500 tuples over 5 groups, all groups appear w.h.p.
            assert_eq!(gi.group_count(), 5);
        }
    }

    #[test]
    fn values_in_unit_interval() {
        for t in [
            DataType::Independent,
            DataType::Correlated,
            DataType::AntiCorrelated,
        ] {
            let r = spec(t).generate();
            for &v in r.columns() {
                assert!((0.0..1.0).contains(&v), "{t}: {v} out of range");
            }
        }
    }

    /// Pearson correlation of the first two attributes.
    fn corr2(r: &Relation) -> f64 {
        let n = r.n() as f64;
        let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for (&x, &y) in r.column(0).iter().zip(r.column(1)) {
            sx += x;
            sy += y;
            sxx += x * x;
            syy += y * y;
            sxy += x * y;
        }
        let cov = sxy / n - (sx / n) * (sy / n);
        let vx = sxx / n - (sx / n) * (sx / n);
        let vy = syy / n - (sy / n) * (sy / n);
        cov / (vx * vy).sqrt()
    }

    #[test]
    fn correlation_signs() {
        let ind = corr2(&spec(DataType::Independent).generate());
        let cor = corr2(&spec(DataType::Correlated).generate());
        let anti = corr2(&spec(DataType::AntiCorrelated).generate());
        assert!(ind.abs() < 0.15, "independent: {ind}");
        assert!(cor > 0.5, "correlated: {cor}");
        assert!(anti < -0.1, "anti-correlated: {anti}");
    }

    #[test]
    fn anti_correlation_holds_in_high_dimensions() {
        // The base width scales with 1/sqrt(d), keeping the covariance at
        // -1/(16d) for every d; the pairwise correlation therefore decays
        // like -0.75/d. Assert at half the theoretical value, with n large
        // enough that the estimate's noise (~1/sqrt(n)) stays well below.
        for d in [12usize, 16, 24] {
            let s = DatasetSpec {
                n: 4000,
                local_attrs: d - 1,
                ..spec(DataType::AntiCorrelated)
            };
            let anti = corr2(&s.generate());
            assert!(anti < -0.375 / d as f64, "d={d}: {anti}");
        }
    }

    #[test]
    fn theta_variant_has_numeric_keys() {
        let r = spec(DataType::Independent).generate_theta();
        assert!(r.numeric_order().is_some());
        assert!(r.group_index().is_none());
        assert_eq!(r.n(), 500);
    }

    #[test]
    fn single_group_means_one_key() {
        let s = DatasetSpec {
            groups: 1,
            ..spec(DataType::Independent)
        };
        let r = s.generate();
        assert_eq!(r.group_index().unwrap().group_count(), 1);
    }

    #[test]
    fn paper_default_shape() {
        let s = DatasetSpec::paper_default(1);
        assert_eq!(s.d(), 7);
        assert_eq!(s.n, 3300);
        assert_eq!(s.groups, 10);
    }

    #[test]
    fn data_type_parsing() {
        assert_eq!("ind".parse::<DataType>().unwrap(), DataType::Independent);
        assert_eq!("CORR".parse::<DataType>().unwrap(), DataType::Correlated);
        assert_eq!(
            "anti".parse::<DataType>().unwrap(),
            DataType::AntiCorrelated
        );
        assert!("bogus".parse::<DataType>().is_err());
    }
}
