//! Output verification and digests.
//!
//! Every accepted query is parsed and re-costed through the engine's
//! public entry points (`sqlkit::parse_select`, `Database::explain` or
//! `Database::execute`); its recorded cost must match bit for bit and
//! fall in an interval the target asks for, and the re-costed histogram
//! must equal the report's. An amplified file must hold exactly the
//! requested records between its header and trailer, and a deterministic
//! sample of its records must re-cost to the cost written above them.

use crate::layers::splitmix;
use minidb::Database;
use sqlbarber::cost::query_cost;
use sqlbarber::{CostType, GenerationReport};
use std::hash::{DefaultHasher, Hasher};
use std::io::{BufRead, Read};
use std::path::Path;
use std::time::Instant;
use workload::TargetDistribution;

/// Check counts plus the per-call latencies of the layers the checks
/// went through.
#[derive(Debug, Default)]
pub struct Verifier {
    pub checked: u64,
    pub failed: u64,
    pub parse_us: Vec<f64>,
    pub explain_us: Vec<f64>,
    pub execute_us: Vec<f64>,
}

impl Verifier {
    /// Parse and re-cost one statement, timing each call; `None` when the
    /// text does not parse or the engine rejects it.
    fn recost(&mut self, db: &Database, sql: &str, cost_type: CostType) -> Option<f64> {
        let start = Instant::now();
        let select = sqlkit::parse_select(sql).ok()?;
        self.parse_us.push(micros(start));
        let start = Instant::now();
        let cost = query_cost(db, &select, cost_type).ok()?;
        let layer = if cost_type.requires_execution() {
            &mut self.execute_us
        } else {
            &mut self.explain_us
        };
        layer.push(micros(start));
        Some(cost)
    }

    /// Verify a report's accepted queries. A histogram that disagrees
    /// with the re-costed queries fails every query of the report.
    pub fn check_report(
        &mut self,
        db: &Database,
        report: &GenerationReport,
        target: &TargetDistribution,
        cost_type: CostType,
    ) {
        let mut failed = 0;
        let mut costs = Vec::with_capacity(report.queries.len());
        for query in &report.queries {
            let recost = self.recost(db, &query.sql, cost_type);
            if !recost.is_some_and(|c| c.to_bits() == query.cost.to_bits() && wanted(target, c)) {
                failed += 1;
            }
            costs.extend(recost);
        }
        let n = report.queries.len() as u64;
        if target.intervals.histogram(&costs) != report.distribution {
            failed = n;
        }
        self.checked += n;
        self.failed += failed;
    }

    /// Verify an amplified workload file holding `requested` records,
    /// streaming it. A file with the wrong shape fails all `sample`
    /// checks; otherwise `sample` records picked from `seed` (every record
    /// when `sample` covers them all) are re-costed against their
    /// `-- cost:` lines.
    #[allow(clippy::too_many_arguments)]
    pub fn check_amplified(
        &mut self,
        db: &Database,
        path: &Path,
        requested: u64,
        target: &TargetDistribution,
        cost_type: CostType,
        sample: u64,
        seed: u64,
    ) {
        let picks = sample.min(requested);
        let mut state = seed;
        let mut wanted_records: Vec<u64> = if picks == requested {
            (0..requested).collect()
        } else {
            (0..picks)
                .map(|_| splitmix(&mut state) % requested)
                .collect()
        };
        wanted_records.sort_unstable();
        let header = format!(
            "-- SQLBarber amplified workload: {requested} queries requested over {} intervals",
            target.intervals.count
        );
        let trailer = format!("-- amplified: {requested} emitted, 0 short");

        let Ok(file) = std::fs::File::open(path) else {
            self.checked += picks;
            self.failed += picks;
            return;
        };
        let mut lines = std::io::BufReader::new(file).lines().map_while(Result::ok);
        let mut well_formed = lines.next().as_deref() == Some(header.as_str());
        let (mut record, mut next, mut failed, mut ended) = (0u64, 0usize, 0u64, false);
        while let (true, Some(line)) = (well_formed, lines.next()) {
            if ended {
                well_formed = false;
            } else if line == trailer {
                ended = true;
            } else if let (Some(recorded), Some(sql)) = (
                line.strip_prefix("-- cost: "),
                lines.next().filter(|l| !l.starts_with("--")),
            ) {
                let end = next
                    + wanted_records[next..]
                        .iter()
                        .take_while(|&&k| k == record)
                        .count();
                if end > next {
                    let ok = self.recost(db, &sql, cost_type).is_some_and(|cost| {
                        format!("{cost:.2}") == recorded && wanted(target, cost)
                    });
                    if !ok {
                        failed += (end - next) as u64;
                    }
                    next = end;
                }
                record += 1;
            } else {
                well_formed = false;
            }
        }
        self.checked += picks;
        self.failed += if well_formed && ended && record == requested {
            failed
        } else {
            picks
        };
    }
}

/// The cost lies in an interval with a non-zero target count.
fn wanted(target: &TargetDistribution, cost: f64) -> bool {
    target
        .intervals
        .interval_of(cost)
        .is_some_and(|j| target.counts[j] > 0.0)
}

fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Digest of a file's bytes, streamed in fixed-size reads.
pub fn digest_file(hasher: &mut DefaultHasher, path: &Path) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut file = std::fs::File::open(path).map_err(fail)?;
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let n = file.read(&mut buf).map_err(fail)?;
        if n == 0 {
            return Ok(());
        }
        hasher.write(&buf[..n]);
    }
}

/// A manifest with its wall-clock field removed: the `"elapsed_seconds"`
/// member and the separator that follows it.
pub fn without_elapsed(manifest: &str) -> String {
    const KEY: &str = "\"elapsed_seconds\":";
    let Some(at) = manifest.find(KEY) else {
        return manifest.to_string();
    };
    let rest = &manifest[at + KEY.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    let skip = if rest[end..].starts_with(',') {
        end + 1
    } else {
        end
    };
    format!("{}{}", &manifest[..at], &rest[skip..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlbarber::bo_search::GeneratedQuery;
    use std::io::Write;
    use workload::CostIntervals;

    const SQL: [&str; 3] = [
        "SELECT * FROM lineitem WHERE lineitem.l_quantity > 25",
        "SELECT * FROM lineitem WHERE lineitem.l_quantity > 40",
        "SELECT * FROM orders WHERE orders.o_totalprice > 100000",
    ];

    fn fixture() -> (Database, TargetDistribution, Vec<GeneratedQuery>) {
        let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
        let queries: Vec<GeneratedQuery> = SQL
            .iter()
            .map(|sql| {
                let select = sqlkit::parse_select(sql).unwrap();
                let cost = query_cost(&db, &select, CostType::Cardinality).unwrap();
                GeneratedQuery {
                    sql: sql.to_string(),
                    cost,
                }
            })
            .collect();
        let hi = queries.iter().map(|q| q.cost).fold(0.0, f64::max) * 2.0;
        let grid = CostIntervals::new(0.0, hi, 4);
        let costs: Vec<f64> = queries.iter().map(|q| q.cost).collect();
        let mut target = TargetDistribution::uniform(grid.clone(), costs.len());
        target.counts = grid.histogram(&costs);
        (db, target, queries)
    }

    fn report_of(target: &TargetDistribution, queries: Vec<GeneratedQuery>) -> GenerationReport {
        let costs: Vec<f64> = queries.iter().map(|q| q.cost).collect();
        GenerationReport {
            distribution: target.intervals.histogram(&costs),
            queries,
            ..Default::default()
        }
    }

    #[test]
    fn faithful_report_passes_and_tampered_cost_is_caught() {
        let (db, target, queries) = fixture();
        let mut clean = Verifier::default();
        clean.check_report(
            &db,
            &report_of(&target, queries.clone()),
            &target,
            CostType::Cardinality,
        );
        assert_eq!((clean.checked, clean.failed), (3, 0));
        assert_eq!(clean.explain_us.len(), 3);

        // One ulp off is enough: costs must re-cost bit for bit.
        let mut tampered = queries.clone();
        tampered[1].cost = f64::from_bits(tampered[1].cost.to_bits() + 1);
        let mut v = Verifier::default();
        v.check_report(
            &db,
            &report_of(&target, tampered),
            &target,
            CostType::Cardinality,
        );
        assert_eq!(v.failed, 1);

        // A histogram that disagrees with the queries fails the report.
        let mut report = report_of(&target, queries);
        report.distribution[0] += 1.0;
        let mut v = Verifier::default();
        v.check_report(&db, &report, &target, CostType::Cardinality);
        assert_eq!(v.failed, 3);
    }

    fn amplified(target: &TargetDistribution, records: &[(String, String)]) -> String {
        let n = records.len();
        let mut text = format!(
            "-- SQLBarber amplified workload: {n} queries requested over {} intervals\n",
            target.intervals.count
        );
        for (cost, sql) in records {
            text.push_str(&format!("-- cost: {cost}\n{sql};\n"));
        }
        text.push_str(&format!("-- amplified: {n} emitted, 0 short\n"));
        text
    }

    fn check_file(db: &Database, target: &TargetDistribution, text: &str, name: &str) -> Verifier {
        let path =
            std::env::temp_dir().join(format!("perfbench-{}-{name}.sql", std::process::id()));
        std::fs::File::create(&path)
            .unwrap()
            .write_all(text.as_bytes())
            .unwrap();
        let mut v = Verifier::default();
        v.check_amplified(db, &path, 3, target, CostType::Cardinality, 3, 7);
        std::fs::remove_file(&path).unwrap();
        v
    }

    #[test]
    fn faithful_amplified_file_passes_and_tampered_lines_are_caught() {
        let (db, target, queries) = fixture();
        let records: Vec<(String, String)> = queries
            .iter()
            .map(|q| (format!("{:.2}", q.cost), q.sql.clone()))
            .collect();
        let clean = check_file(&db, &target, &amplified(&target, &records), "clean");
        assert_eq!((clean.checked, clean.failed), (3, 0));

        // A changed constant re-costs differently from its cost line.
        let mut edited = records.clone();
        edited[2].1 = edited[2].1.replace("100000", "200000");
        assert_eq!(
            check_file(&db, &target, &amplified(&target, &edited), "sql").failed,
            1
        );

        // A changed cost line no longer matches its statement.
        let mut edited = records.clone();
        edited[0].0 = "1.00".to_string();
        assert_eq!(
            check_file(&db, &target, &amplified(&target, &edited), "cost").failed,
            1
        );

        // A missing record breaks the requested line count.
        let text = amplified(&target, &records);
        let short: String = text
            .lines()
            .enumerate()
            .filter(|(i, _)| *i != 3 && *i != 4)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        assert_eq!(check_file(&db, &target, &short, "short").failed, 3);
    }

    #[test]
    fn elapsed_seconds_is_the_only_field_removed() {
        let manifest = "{\n  \"final_distance\": 0.0,\n  \"elapsed_seconds\": 3.25,\n  \"oracle_evaluations\": 9\n}";
        assert_eq!(
            without_elapsed(manifest),
            "{\n  \"final_distance\": 0.0,\n  \n  \"oracle_evaluations\": 9\n}"
        );
        assert_eq!(without_elapsed("{\"a\": 1}"), "{\"a\": 1}");
    }
}
