//! Sample statistics and the minimal JSON the benchmark prints.

use std::fmt;
use std::time::Duration;

/// Latency samples of one operation kind, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ms: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ms.push(d.as_secs_f64() * 1e3);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ms.extend_from_slice(&other.ms);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), linearly interpolated between the
    /// closest ranks; `None` without samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile(&self.ms, q)
    }
}

/// The `q`-quantile of `values`, linearly interpolated between the
/// closest ranks (NumPy's default rule).
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// A JSON value, printed compactly by `Display`.
#[derive(Debug, Clone)]
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Rust's shortest round-trip spelling keeps every digit; JSON
            // has no NaN or infinity, so those print as null.
            Json::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.items.retain(|(n, _, _)| n != name);
        self.items.push((name.to_owned(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.items
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn to_json(&self) -> Json {
        Json::obj(self.items.iter().map(|(name, value, unit)| {
            (
                name.clone(),
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn json_prints_compactly_and_escapes() {
        let j = Json::obj([
            ("a", Json::Num(1.5)),
            ("b", Json::Arr(vec![Json::Int(2), Json::Bool(true)])),
            ("c", Json::str("x\"y")),
        ]);
        assert_eq!(j.to_string(), r#"{"a":1.5,"b":[2,true],"c":"x\"y"}"#);
        assert_eq!(Json::Num(2.0).to_string(), "2.0");
    }
}
