//! CSV import/export for relations — the bridge for users bringing their
//! own data (the paper's real-data experiment started from a scraped CSV).
//!
//! The format is one header row, one column for the join key, and one
//! column per skyline attribute, matched to the [`Schema`] by name:
//!
//! ```csv
//! hub,cost,flying_time,date_change_fee,popularity,amenities
//! JAI,5400,2.1,1200,81,64
//! ```

use ksjq_relation::csv::CsvTable;
use ksjq_relation::{Error, Relation, Result, Schema, StringDictionary};

/// Parse a relation from CSV text.
///
/// `key_column` names the equality-join key column; its string values are
/// encoded through `dict` (share one dictionary across both relations of
/// a join so equal keys get equal ids). Attribute columns are located by
/// their schema names; extra CSV columns are ignored.
pub fn relation_from_csv(
    text: &str,
    schema: Schema,
    key_column: &str,
    dict: &mut StringDictionary,
) -> Result<Relation> {
    let table = CsvTable::parse(text)?;
    let key_idx = table.column(key_column)?;
    let attr_cols: Vec<usize> = schema
        .attrs()
        .iter()
        .map(|a| table.column(&a.name))
        .collect::<Result<_>>()?;
    let d = schema.d();
    let mut b = Relation::builder(schema).with_capacity(table.rows.len());
    let mut row = vec![0.0f64; d];
    for r in 0..table.rows.len() {
        let gid = dict.encode(&table.rows[r][key_idx]);
        for (j, &col) in attr_cols.iter().enumerate() {
            row[j] = table.number(r, col)?;
        }
        b.add_grouped(gid, &row)?;
    }
    b.build()
}

/// Render a relation (with group keys) back to CSV text.
///
/// Group ids are decoded through `dict` when possible, otherwise printed
/// numerically. The header carries bare attribute names, matching what
/// [`relation_from_csv`] (which takes an explicit [`Schema`]) looks up;
/// use [`relation_to_annotated_csv`] to target a schema-inferring
/// consumer like `Catalog::register_csv`.
pub fn relation_to_csv(
    rel: &Relation,
    key_column: &str,
    dict: Option<&StringDictionary>,
) -> Result<String> {
    relation_to_csv_impl(rel, key_column, dict, false)
}

/// Like [`relation_to_csv`], but the header cells carry the schema
/// annotations `Catalog::register_csv` understands (`name[:max][:aggN]`;
/// `Min` is the default and stays implicit), so preferences and
/// aggregate slots survive the round trip:
///
/// ```
/// use ksjq_datagen::{relation_to_annotated_csv, FlightNetworkSpec};
///
/// let net = FlightNetworkSpec::default().generate();
/// let csv = relation_to_annotated_csv(&net.outbound, "hub", Some(&net.hubs)).unwrap();
/// assert!(csv.starts_with(
///     "hub,cost:agg0,flying_time:agg1,date_change_fee,popularity:max,amenities:max\n"
/// ));
/// ```
pub fn relation_to_annotated_csv(
    rel: &Relation,
    key_column: &str,
    dict: Option<&StringDictionary>,
) -> Result<String> {
    relation_to_csv_impl(rel, key_column, dict, true)
}

/// Like [`relation_to_annotated_csv`], but group ids are decoded through
/// an arbitrary closure instead of a [`StringDictionary`] reference —
/// e.g. a catalog's shared dictionary behind its own lock (the serving
/// layer's `SYNC <name>` export path). Ids the closure declines fall
/// back to their decimal spelling, matching how synthetic relations key
/// themselves.
pub fn relation_to_annotated_csv_with(
    rel: &Relation,
    key_column: &str,
    decode: impl Fn(u64) -> Option<String>,
) -> Result<String> {
    export_csv(rel, key_column, &decode, true)
}

fn relation_to_csv_impl(
    rel: &Relation,
    key_column: &str,
    dict: Option<&StringDictionary>,
    annotate: bool,
) -> Result<String> {
    export_csv(
        rel,
        key_column,
        &|gid| dict.and_then(|d| d.decode(gid)).map(str::to_owned),
        annotate,
    )
}

fn export_csv(
    rel: &Relation,
    key_column: &str,
    decode: &dyn Fn(u64) -> Option<String>,
    annotate: bool,
) -> Result<String> {
    use ksjq_relation::{AttrRole, Preference};
    let mut header = vec![key_column.to_owned()];
    header.extend(rel.schema().attrs().iter().map(|a| {
        let mut cell = a.name.clone();
        if annotate {
            if a.preference == Preference::Max {
                cell.push_str(":max");
            }
            if let AttrRole::Agg(slot) = a.role {
                cell.push_str(&format!(":agg{slot}"));
            }
        }
        cell
    }));
    let mut rows = Vec::with_capacity(rel.n());
    for t in rel.ids() {
        let gid = rel
            .group_id(t)
            .ok_or_else(|| Error::Invalid("relation has no group keys".into()))?;
        let key = decode(gid).unwrap_or_else(|| gid.to_string());
        let mut cells = vec![key];
        cells.extend(rel.raw_row(t).iter().map(|v| format_number(*v)));
        rows.push(cells);
    }
    Ok(CsvTable { header, rows }.to_csv())
}

/// Compact float formatting: integers print without a trailing `.0`.
fn format_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksjq_relation::{Preference, TupleId};

    fn schema() -> Schema {
        Schema::builder()
            .local("cost", Preference::Min)
            .local("rating", Preference::Max)
            .build()
            .unwrap()
    }

    #[test]
    fn roundtrip() {
        let text = "city,cost,rating\nC,448,4.5\nD,456,3.2\nC,468,4\n";
        let mut dict = StringDictionary::new();
        let rel = relation_from_csv(text, schema(), "city", &mut dict).unwrap();
        assert_eq!(rel.n(), 3);
        assert_eq!(rel.raw_row(TupleId(0)), vec![448.0, 4.5]);
        assert_eq!(rel.group_id(TupleId(1)), dict.get("D"));

        let out = relation_to_csv(&rel, "city", Some(&dict)).unwrap();
        assert_eq!(out, "city,cost,rating\nC,448,4.5\nD,456,3.2\nC,468,4\n");
    }

    #[test]
    fn column_order_and_extras_ignored() {
        // Shuffled columns plus an ignored one.
        let text = "note,rating,city,cost\nx,4.5,C,448\n";
        let mut dict = StringDictionary::new();
        let rel = relation_from_csv(text, schema(), "city", &mut dict).unwrap();
        assert_eq!(rel.raw_row(TupleId(0)), vec![448.0, 4.5]);
    }

    #[test]
    fn missing_column_rejected() {
        let mut dict = StringDictionary::new();
        let e = relation_from_csv("city,cost\nC,448\n", schema(), "city", &mut dict);
        assert!(e.is_err());
    }

    #[test]
    fn bad_number_rejected() {
        let mut dict = StringDictionary::new();
        let e = relation_from_csv("city,cost,rating\nC,cheap,4\n", schema(), "city", &mut dict);
        assert!(e.is_err());
    }

    #[test]
    fn shared_dictionary_aligns_keys() {
        let mut dict = StringDictionary::new();
        let r1 = relation_from_csv(
            "city,cost,rating\nC,1,1\nD,2,2\n",
            schema(),
            "city",
            &mut dict,
        )
        .unwrap();
        let r2 = relation_from_csv(
            "city,cost,rating\nD,3,3\nC,4,4\n",
            schema(),
            "city",
            &mut dict,
        )
        .unwrap();
        assert_eq!(r1.group_id(TupleId(1)), r2.group_id(TupleId(0))); // both "D"
    }

    #[test]
    fn annotated_csv_preserves_schema_through_register_csv() {
        // Max preferences and aggregate slots must survive the
        // export → Catalog::register_csv round trip (the serving layer's
        // demo-catalog path); the bare exporter loses them by design.
        let net = crate::flights::FlightNetworkSpec {
            outbound: 12,
            inbound: 9,
            hubs: 3,
            seed: 5,
        }
        .generate();
        let csv = relation_to_annotated_csv(&net.outbound, "hub", Some(&net.hubs)).unwrap();
        let catalog = ksjq_relation::Catalog::new();
        let handle = catalog.register_csv("out", &csv).unwrap();
        assert_eq!(handle.schema(), net.outbound.schema());
        assert_eq!(handle.n(), net.outbound.n());
        for t in net.outbound.ids() {
            assert_eq!(handle.relation().raw_row(t), net.outbound.raw_row(t));
        }
    }

    #[test]
    fn keyless_relation_cannot_export() {
        let mut b = Relation::builder(schema());
        b.add(&[1.0, 2.0]).unwrap();
        let rel = b.build().unwrap();
        assert!(relation_to_csv(&rel, "city", None).is_err());
    }
}
