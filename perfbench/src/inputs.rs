//! Seeded inputs and their in-process reference answers.
//!
//! Each workload fixes its relations' shape and generator seeds, which
//! pins the answer size (k-dominant skyline size jumps by orders of
//! magnitude between neighbouring `k`, so it must not drift between
//! runs). The run's `--seed` then permutes row order, relabels the join
//! keys and generates the append deltas, so every seed ships different
//! bytes and different answer ids over the same amount of work.

use ksjq_core::{
    ksjq_dominator_based, ksjq_grouping, maintain_append, Config, KsjqOutput, MaintainStats,
};
use ksjq_datagen::{relation_to_annotated_csv, DataType, DatasetSpec};
use ksjq_join::{AggFunc, JoinContext, JoinSpec};
use ksjq_relation::{Catalog, Relation, VersionedRelation};
use ksjq_server::{PlanSpec, Request};
use std::sync::Arc;

use crate::trace::Tracer;

/// Generator seeds of the two base relations (the harness's defaults).
const BASE_SEEDS: [u64; 2] = [42, 1042];

/// Every 16th delta carries this many rows; the others carry one.
const BIG_DELTA_ROWS: usize = 16;

/// The shape of one workload's relations and query.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub data_type: DataType,
    pub n: usize,
    pub d: usize,
    pub a: usize,
    pub g: usize,
    pub k: usize,
}

impl Shape {
    pub fn funcs(&self) -> Vec<AggFunc> {
        vec![AggFunc::Sum; self.a]
    }

    fn spec(&self, n: usize, seed: u64) -> DatasetSpec {
        DatasetSpec {
            n,
            agg_attrs: self.a,
            local_attrs: self.d - self.a,
            groups: self.g,
            data_type: self.data_type,
            seed,
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "{} n={} d={} a={} g={} k={}",
            self.data_type, self.n, self.d, self.a, self.g, self.k
        )
    }
}

/// splitmix64: the seed expander for permutations and derived seeds.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn shuffle<T>(items: &mut [T], rng: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix(rng) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// One workload's generated inputs, as the daemons receive them.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub shape: Shape,
    /// Annotated CSV of `a1` / `a2` (header row, then `key,v…` rows).
    pub left_csv: String,
    pub right_csv: String,
    /// `APPEND a1 ROWS` payloads: header-less `key,v…` rows.
    pub deltas: Vec<String>,
    pub plan: PlanSpec,
}

impl Inputs {
    pub fn generate(shape: Shape, seed: u64, n_deltas: usize) -> Inputs {
        let mut rng = seed ^ 0x5EED_0000_0000_0000;
        let mut labels: Vec<usize> = (0..shape.g).collect();
        shuffle(&mut labels, &mut rng);
        let relabel = |line: &str| -> String {
            let (gid, rest) = line.split_once(',').expect("generated rows have values");
            let gid: usize = gid.parse().expect("synthetic keys are group ids");
            format!("g{},{rest}", labels[gid])
        };
        let mut csv_of = |rel: &Relation| -> String {
            let text = relation_to_annotated_csv(rel, "key", None).expect("synthetic rows export");
            let mut lines = text.lines();
            let header = lines.next().expect("csv has a header").to_owned();
            let mut rows: Vec<String> = lines.map(relabel).collect();
            shuffle(&mut rows, &mut rng);
            std::iter::once(header)
                .chain(rows)
                .collect::<Vec<_>>()
                .join("\n")
                + "\n"
        };
        let left_csv = csv_of(&shape.spec(shape.n, BASE_SEEDS[0]).generate());
        let right_csv = csv_of(&shape.spec(shape.n, BASE_SEEDS[1]).generate());

        let sizes: Vec<usize> = (1..=n_deltas)
            .map(|i| if i % 16 == 0 { BIG_DELTA_ROWS } else { 1 })
            .collect();
        let total: usize = sizes.iter().sum();
        let delta_seed = splitmix(&mut rng);
        let delta_rel = shape.spec(total.max(1), delta_seed).generate();
        let text = relation_to_annotated_csv(&delta_rel, "key", None).expect("delta rows export");
        let mut rows = text.lines().skip(1).map(relabel);
        let deltas = sizes
            .iter()
            .map(|&size| rows.by_ref().take(size).collect::<Vec<_>>().join("\n"))
            .collect();

        let plan = PlanSpec::new("a1", "a2")
            .aggs(&shape.funcs())
            .k(shape.k)
            .algorithm(ksjq_core::Algorithm::Grouping);
        Inputs {
            shape,
            left_csv,
            right_csv,
            deltas,
            plan,
        }
    }

    /// The wire form of the workload's query.
    pub fn query_line(&self) -> String {
        Request::Query {
            plan: self.plan.clone(),
        }
        .to_string()
    }

    /// The wire form of an `APPEND a1 ROWS` delta (what the WAL records).
    pub fn append_line(&self, delta: &str) -> String {
        Request::Append {
            name: "a1".into(),
            rows: delta.into(),
            staged: false,
        }
        .to_string()
    }

    pub fn rows_loaded(&self) -> usize {
        2 * self.shape.n
    }
}

/// The row count and an order-sensitive checksum of an answer's pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub rows: usize,
    pub checksum: u64,
}

impl Answer {
    pub fn of(pairs: impl IntoIterator<Item = (u32, u32)>) -> Answer {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let mut rows = 0;
        for (l, r) in pairs {
            rows += 1;
            for byte in l.to_le_bytes().into_iter().chain(r.to_le_bytes()) {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
            }
        }
        Answer {
            rows,
            checksum: hash,
        }
    }

    pub fn of_output(out: &KsjqOutput) -> Answer {
        Answer::of(out.pairs.iter().map(|&(l, r)| (l.0, r.0)))
    }
}

/// The inputs parsed in-process exactly as `LOAD … INLINE` parses them
/// (one catalog, so both relations share a key dictionary).
#[derive(Debug)]
pub struct Bound {
    pub catalog: Catalog,
    pub left: Arc<Relation>,
    pub right: Arc<Relation>,
    funcs: Vec<AggFunc>,
    k: usize,
}

impl Bound {
    pub fn new(inputs: &Inputs) -> Result<Bound, String> {
        let catalog = Catalog::new();
        let parse = |csv: &str| catalog.parse_csv(csv).map(Arc::new);
        let left = parse(&inputs.left_csv).map_err(|e| format!("a1: {e}"))?;
        let right = parse(&inputs.right_csv).map_err(|e| format!("a2: {e}"))?;
        Ok(Bound {
            left,
            right,
            catalog,
            funcs: inputs.shape.funcs(),
            k: inputs.shape.k,
        })
    }

    fn context(&self, left: Arc<Relation>) -> Result<JoinContext<'static>, String> {
        JoinContext::from_arcs(left, self.right.clone(), JoinSpec::Equality, &self.funcs)
            .map_err(|e| e.to_string())
    }

    /// The answer by the dominator-based algorithm — a different
    /// algorithm from the grouping plan the daemons run.
    pub fn reference(&self) -> Result<KsjqOutput, String> {
        let cx = self.context(self.left.clone())?;
        ksjq_dominator_based(&cx, self.k, &Config::default()).map_err(|e| e.to_string())
    }

    /// The answer after each prefix of `deltas` is appended to `a1`:
    /// entry `i` holds the answer with `i` deltas applied. Epoch 0 is the
    /// dominator-based reference; every later epoch is maintained
    /// incrementally, and the last one is checked against a from-scratch
    /// grouping run. Spans: `relation.append` and `maintain` per delta.
    pub fn epoch_answers(
        &self,
        deltas: &[String],
        tracer: &mut Tracer,
    ) -> Result<(Vec<Answer>, Vec<MaintainStats>), String> {
        let mut current = self.reference()?;
        let mut answers = vec![Answer::of_output(&current)];
        let mut stats = Vec::with_capacity(deltas.len());
        let mut version = VersionedRelation::from_relation(self.left.clone())
            .map_err(|e| format!("versioning a1: {e}"))?;
        let d = self.left.schema().d();
        for delta in deltas {
            let (keys, rows) = parse_delta(&self.catalog, d, delta)?;
            let old_n = version.n();
            let op = tracer.op();
            let span = tracer.begin(op, "relation.append", None);
            version = version
                .append(&keys, &rows)
                .map_err(|e| format!("append: {e}"))?;
            tracer.end(span);
            let cx = self.context(version.snapshot().clone())?;
            let span = tracer.begin(op, "maintain", None);
            let (next, st) = maintain_append(&cx, self.k, &current, old_n, self.right.n())
                .map_err(|e| format!("maintain: {e}"))?;
            tracer.end(span);
            answers.push(Answer::of_output(&next));
            stats.push(st);
            current = next;
        }
        if !deltas.is_empty() {
            let cx = self.context(version.snapshot().clone())?;
            let scratch = ksjq_grouping(&cx, self.k, &Config::default())
                .map_err(|e| format!("grouping: {e}"))?;
            if scratch.pairs != current.pairs {
                return Err(format!(
                    "incremental maintenance disagrees with a from-scratch grouping run \
                     after {} deltas ({} vs {} rows)",
                    deltas.len(),
                    current.len(),
                    scratch.len()
                ));
            }
        }
        Ok((answers, stats))
    }
}

/// Parse `APPEND` rows the way the server does: key cell through the
/// catalog dictionary, then the relation's `d` raw values.
pub fn parse_delta(
    catalog: &Catalog,
    d: usize,
    csv: &str,
) -> Result<(Vec<u64>, Vec<Vec<f64>>), String> {
    let mut keys = Vec::new();
    let mut rows = Vec::new();
    for line in csv.lines().filter(|l| !l.trim().is_empty()) {
        let mut cells = line.split(',');
        keys.push(catalog.encode_key(cells.next().unwrap_or_default().trim()));
        let row: Vec<f64> = cells
            .map(|c| {
                c.trim()
                    .parse()
                    .map_err(|_| format!("bad delta value {c:?}"))
            })
            .collect::<Result<_, _>>()?;
        if row.len() != d {
            return Err(format!("delta row has {} values, want {d}", row.len()));
        }
        rows.push(row);
    }
    Ok((keys, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Shape {
        Shape {
            data_type: DataType::AntiCorrelated,
            n: 60,
            d: 5,
            a: 1,
            g: 4,
            k: 8,
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_bytes() {
        let a = Inputs::generate(tiny(), 7, 20);
        let b = Inputs::generate(tiny(), 7, 20);
        let c = Inputs::generate(tiny(), 8, 20);
        assert_eq!(a.left_csv, b.left_csv);
        assert_eq!(a.deltas, b.deltas);
        assert_ne!(a.left_csv, c.left_csv);
        assert_eq!(a.deltas.len(), 20);
        assert_eq!(a.deltas[15].lines().count(), BIG_DELTA_ROWS);
        assert_eq!(a.deltas[14].lines().count(), 1);
    }

    #[test]
    fn seeds_permute_rows_but_keep_the_answer_size() {
        let a = Bound::new(&Inputs::generate(tiny(), 1, 0)).unwrap();
        let b = Bound::new(&Inputs::generate(tiny(), 2, 0)).unwrap();
        assert_eq!(a.reference().unwrap().len(), b.reference().unwrap().len());
    }

    #[test]
    fn maintained_epochs_match_scratch() {
        let inputs = Inputs::generate(tiny(), 3, 18);
        let bound = Bound::new(&inputs).unwrap();
        let (answers, stats) = bound
            .epoch_answers(&inputs.deltas, &mut Tracer::new(false))
            .unwrap();
        assert_eq!(answers.len(), 19);
        assert_eq!(stats.len(), 18);
    }
}
