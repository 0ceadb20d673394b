//! Prepared vectorized execution: plan once per template, execute per
//! binding batch.
//!
//! The execution-based cost types (`ActualCardinality`,
//! `ExecutionTimeMicros`) need `Database::execute`'s *numbers* — output
//! cardinality and the deterministic work-unit count — not its rows.
//! Executing each instantiation from scratch repeats per-binding work
//! that cannot depend on the bindings: planning, predicate
//! classification, uncorrelated-subquery execution, and (worst of all)
//! materializing every scanned row as a `Vec<Value>` just to count the
//! survivors.
//!
//! [`PreparedExec`] mirrors [`crate::prepared::PreparedTemplate`] for
//! execution: [`PreparedExec::prepare`] classifies a template once into
//! one of three tiers, and [`PreparedExec::execute_batch`] evaluates a
//! whole [`BindingBatch`] against it, returning per-row
//! `(cardinality, work_micros)` results that are **bit-identical** to
//! instantiating and executing each row through the scalar path (a
//! `debug_assertions` cross-check verifies exactly that on every batch).
//!
//! ### Tiers
//!
//! * **Columnar** — one or two scans, an optional equi-join, and a
//!   count-only output phase. Admission requires:
//!   - one binding, or two inner-joined bindings (a `LEFT JOIN`
//!     demotes) connected by exactly one equi-join edge on `Int`/`Float`
//!     key columns, with no residual or leftover predicate — so the
//!     planner always emits `HashJoin(scan, scan)`;
//!   - every scan filter conjunct a simple comparison/`BETWEEN` of a
//!     numeric storage column against a placeholder or numeric literal;
//!   - no `GROUP BY`, `HAVING`, or `DISTINCT`;
//!   - in *rows mode* (no aggregates) wildcard/column/literal
//!     projections and bare-column `ORDER BY` keys; in *aggregate mode*
//!     (a global aggregate) `COUNT(*)`, `COUNT([DISTINCT] col)`,
//!     `MIN`/`MAX(col)`, or `SUM`/`AVG` over a numeric column, plus
//!     literals. None of these can fail, and their values never reach
//!     the cardinality or the work count.
//!
//!   Per batch row, each scan replays the planner's access-path choice
//!   (selectivity arithmetic + seq-vs-index argmin) from the cached
//!   skeleton, then runs its binding-dependent filters as *selection
//!   vectors* over the table's column-major storage
//!   ([`crate::storage::Column::int_view`]/[`float_view`]) in chunked,
//!   autovectorization-friendly lane loops. A scan without placeholders
//!   computes its selection once at prepare time. The join counts
//!   matches instead of building rows: every storage row's key gets a
//!   dense `u32` id at prepare time (through [`executor::hash_key`], the
//!   executor's own key equality), and matches are the sum, over one
//!   side's selection, of the other side's per-key row counts. No row
//!   materialization, no `Value` clones, no allocation on the warm path.
//! * **Hoisted** — everything else without placeholder-bearing
//!   subqueries. Uncorrelated subquery results are executed **once** at
//!   prepare time and injected into every per-row execution (the scalar
//!   path re-executes them on every call); rows still instantiate and
//!   run through the row-at-a-time executor.
//! * **Scalar** — templates with placeholders inside subquery bodies
//!   (the subquery result genuinely changes per row): instantiate and
//!   execute each row exactly like the from-scratch path.
//!
//! ### Work accounting
//!
//! The columnar tier never runs the row executor, so it must *account*
//! for the work units the executor would have charged. With `cand` the
//! rows a scan visits (all rows for a seq scan, the index-probe slice
//! for an index scan), `sel` the rows passing its filter, and `m` the
//! join's matches:
//!
//! * one scan, rows mode: `cand + [ORDER BY] sel + sel`, cardinality
//!   `min(sel, LIMIT)`;
//! * two scans, rows mode: `cand_L + cand_R + sel_L + sel_R + m +
//!   [ORDER BY] m + m`, cardinality `min(m, LIMIT)`;
//! * aggregate mode: the scan/join charges above, then `n` for grouping
//!   the `n` input rows, `[ORDER BY] 1 + 1` for the single group (an
//!   empty input still yields one), cardinality `min(1, LIMIT)`.
//!
//! Hash-join work is symmetric in its build side, so the planner's join
//! order never needs replaying; the replayed per-scan argmin guarantees
//! the tier charges the same scans the executor would have run.
//!
//! [`float_view`]: crate::storage::Column::float_view

use crate::catalog::Database;
use crate::engine::WORK_UNIT_MICROS;
use crate::error::DbError;
use crate::estimator::{
    default_for, equality_selectivity, flip, Estimator, DEFAULT_INEQ_SEL,
};
use crate::estimator::Scope;
use crate::executor::{self, HashKey};
use crate::expr_eval::SubqueryResults;
use crate::planner;
use crate::prepared::BindingBatch;
use crate::stats::{ColumnStats, TableStats};
use crate::storage::{DataType, Table};
use sqlkit::{BinaryOp, ColumnRef, Expr, JoinKind, Select, Template, Value};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Most scans a columnar-tier template joins: one, or two under a
/// single equi-join edge.
const MAX_SCANS: usize = 2;

/// Lane width of the chunked predicate kernels. 64 boolean lanes fit in
/// a cache line and give the compiler a fixed-trip-count inner loop to
/// autovectorize; the scalar tail handles the final partial chunk.
const LANES: usize = 64;

/// Per-row outcome of a batch execution: `(cardinality, work_micros)`,
/// or the error the scalar instantiate-and-execute path would return.
pub type ExecRowResult = Result<(f64, f64), DbError>;

/// Caller-owned arena of reusable buffers for
/// [`PreparedExec::execute_batch`]. Holding it across batches keeps the
/// warm path allocation-free: buffers are cleared, never dropped, so
/// steady-state batches reuse capacity from earlier ones.
#[derive(Debug, Default)]
pub struct ExecScratch {
    /// Per-row `(cardinality, work_micros)` or error — the return slice.
    results: Vec<ExecRowResult>,
    /// Per-scan selection vectors: storage row ids passing the scan's
    /// conjuncts so far.
    selections: [Vec<u32>; MAX_SCANS],
    /// Per-key row counts of a join's build side. All zero between
    /// rows: the probe resets exactly the entries it touched.
    counts: Vec<u32>,
    /// Flat column-major selectivity buffer: conjunct `c` (numbered
    /// across all scans), row `r` lives at `c * batch_len + r` (mirrors
    /// `RecostScratch::sels`).
    sels: Vec<f64>,
    /// Rows routed to the scalar fallback (non-numeric bound values).
    fallback: Vec<bool>,
    /// Per-conjunct index existence, resolved once per batch.
    has_index: Vec<bool>,
    /// Per-row binding map, rebuilt only for fallback/scalar rows.
    row_bindings: HashMap<u32, Value>,
}

impl ExecScratch {
    /// Fresh scratch; equivalent to `ExecScratch::default()`.
    pub fn new() -> ExecScratch {
        ExecScratch::default()
    }
}

/// Where a conjunct's comparison value comes from at execution time.
#[derive(Debug, Clone)]
enum ValueSource {
    /// A placeholder, resolved to a batch column per batch.
    Slot(u32),
    /// A literal, fixed at prepare time (`Int`/`Float`/`Null` only).
    Const(Value),
}

impl ValueSource {
    /// The value this source takes in `row`.
    fn resolve<'a>(&'a self, batch: &'a BindingBatch, row: usize) -> &'a Value {
        match self {
            ValueSource::Slot(id) => {
                batch.value(batch.column_of(*id), row)
            }
            ValueSource::Const(v) => v,
        }
    }
}

/// Kernel shape of one columnar-tier conjunct.
#[derive(Debug, Clone)]
enum Tier1Kind {
    /// `column op value` — or the flipped orientation, with `op` already
    /// flipped at prepare time so it reads column-first.
    Cmp { op: BinaryOp, value: ValueSource },
    /// `column [NOT] BETWEEN low AND high`.
    Between { negated: bool, low: ValueSource, high: ValueSource },
}

/// One `WHERE` conjunct of a columnar-tier template.
#[derive(Debug, Clone)]
struct Tier1Conjunct {
    /// Column name, for per-batch stats and index lookups.
    name: String,
    /// Storage column index in the table.
    col: usize,
    /// `planner::count_leaves_raw` of the conjunct (for `quals`).
    raw_leaves: usize,
    /// Cached selectivity iff the conjunct is placeholder-free
    /// (mirrors `PreparedPredicate::cached_sel`).
    cached_sel: Option<f64>,
    /// Prepare-time probe decision iff placeholder-free (mirrors
    /// `IndexProbe::Always`/`Never`).
    static_probe: Option<bool>,
    kind: Tier1Kind,
}

/// One scanned binding of a columnar-tier template.
#[derive(Debug, Clone)]
struct Tier1Scan {
    table: String,
    base_rows: f64,
    width: f64,
    /// `count_leaves` of the conjoined filter (0 when unfiltered).
    quals: usize,
    conjuncts: Vec<Tier1Conjunct>,
    /// Number of this scan's first conjunct across all scans (its row
    /// block in `ExecScratch::sels`/`has_index`).
    first_conj: usize,
    /// `(candidates, selection)` computed once at prepare time when no
    /// conjunct holds a placeholder: the scan is the same on every row.
    fixed: Option<(usize, Vec<u32>)>,
}

/// The equi-join of a two-scan columnar template, reduced to counting.
#[derive(Debug, Clone)]
struct Tier1Join {
    /// Per scan, the dense key id of every storage row's join key:
    /// equal ids exactly when [`executor::hash_key`] is equal. A NULL
    /// key gets id `n_keys`, whose count is always zero — NULLs never
    /// join.
    keys: [Vec<u32>; MAX_SCANS],
    /// Distinct non-NULL keys over both scans.
    n_keys: usize,
    /// Per scan with a fixed selection, its per-key row counts.
    fixed_counts: [Option<Vec<u32>>; MAX_SCANS],
}

/// The columnar tier's cached skeleton: everything `Database::execute`
/// derives from the statement alone, hoisted out of the per-row loop.
#[derive(Debug, Clone)]
struct Tier1 {
    /// One scan, or two under `join`.
    scans: Vec<Tier1Scan>,
    join: Option<Tier1Join>,
    /// Global-aggregate output (one group) rather than one record per
    /// input row.
    aggregate: bool,
    limit: Option<u64>,
    /// `ORDER BY` charges one work unit per sorted record.
    charge_order_by: bool,
}

/// The hoisted tier: uncorrelated subquery results (and the work units
/// their execution charged) captured once at prepare time.
#[derive(Debug, Clone)]
struct Tier2 {
    /// `Ok((results, work))` or the error `collect_subquery_results`
    /// reported — replayed per row after plan validation, matching the
    /// scalar path's error order.
    sub: Result<(SubqueryResults, u64), DbError>,
}

#[derive(Debug, Clone)]
enum Tier {
    Columnar(Tier1),
    Hoisted(Tier2),
    Scalar,
}

/// A template classified once, executable per binding batch.
#[derive(Debug, Clone)]
pub struct PreparedExec {
    template: Template,
    /// Sorted placeholder ids (checked against batches on each call).
    placeholder_ids: Vec<u32>,
    tier: Tier,
}

impl PreparedExec {
    /// Classify a template into its execution tier. Infallible:
    /// anything the columnar tier cannot prove count-exact demotes to
    /// the hoisted tier, and anything whose subquery results depend on
    /// the bindings demotes to the scalar tier. Preparation failures
    /// (e.g. unknown tables) also demote to the scalar tier, which
    /// reproduces the error per row.
    pub fn prepare(db: &Database, template: &Template) -> PreparedExec {
        let select = template.select();
        let subqueries = select.subqueries();
        let tier = if subqueries.iter().any(|s| s.has_placeholders()) {
            Tier::Scalar
        } else if subqueries.is_empty() {
            match Tier1::try_prepare(db, select) {
                Some(tier1) => Tier::Columnar(tier1),
                None => Tier::Hoisted(Tier2::prepare(db, select)),
            }
        } else {
            Tier::Hoisted(Tier2::prepare(db, select))
        };
        PreparedExec {
            template: template.clone(),
            placeholder_ids: template.placeholders(),
            tier,
        }
    }

    /// The template this plan was prepared from.
    pub fn template(&self) -> &Template {
        &self.template
    }

    /// Sorted placeholder ids.
    pub fn placeholder_ids(&self) -> &[u32] {
        &self.placeholder_ids
    }

    /// The execution tier this template classified into:
    /// `"columnar"`, `"hoisted"`, or `"scalar"`.
    pub fn tier(&self) -> &'static str {
        match self.tier {
            Tier::Columnar(_) => "columnar",
            Tier::Hoisted(_) => "hoisted",
            Tier::Scalar => "scalar",
        }
    }

    /// Execute the template for every batch row, returning per-row
    /// `(cardinality, work_micros)` results bit-identical to
    /// `db.execute(&template.instantiate(row)?)` — including errors
    /// (compared by value; `DbError` is `PartialEq`).
    ///
    /// The batch-level error mirrors [`crate::prepared::PreparedTemplate::recost_batch`]:
    /// a batch missing a placeholder column reports the smallest
    /// unbound id. Extra batch columns are ignored.
    // detlint::hot
    pub fn execute_batch<'s>(
        &self,
        db: &Database,
        batch: &BindingBatch,
        scratch: &'s mut ExecScratch,
    ) -> Result<&'s [ExecRowResult], DbError> {
        // Ids are sorted ascending, so the first gap found is the
        // smallest missing id.
        for id in &self.placeholder_ids {
            if batch.ids().binary_search(id).is_err() {
                return Err(DbError::UnboundPlaceholder(*id));
            }
        }
        scratch.results.clear();
        match &self.tier {
            Tier::Columnar(tier1) => tier1.run(self, db, batch, scratch),
            Tier::Hoisted(tier2) => tier2.run(self, db, batch, scratch),
            Tier::Scalar => {
                for row in 0..batch.len() {
                    // detlint::allow(hot_alloc): the scalar tier instantiates and executes per row and allocates by design; the columnar tier is the alloc-free path and alloc_probe pins it
                    let result = scalar_row(
                        db,
                        &self.template,
                        batch,
                        row,
                        &mut scratch.row_bindings,
                    );
                    scratch.results.push(result);
                }
            }
        }

        // Ground truth cross-check: every row must match the scalar
        // instantiate-and-execute path bit-for-bit.
        #[cfg(debug_assertions)]
        {
            let mut map = HashMap::new();
            for row in 0..batch.len() {
                batch.fill_row_map(row, &mut map);
                let expected = match self.template.instantiate(&map) {
                    Ok(select) => db
                        .execute(&select)
                        .map(|r| (r.cardinality() as f64, r.work_micros())),
                    Err(e) => Err(DbError::Unsupported(e.to_string())),
                };
                match (&expected, &scratch.results[row]) {
                    (Ok((card_s, work_s)), Ok((card_b, work_b))) => {
                        debug_assert_eq!(
                            card_b.to_bits(),
                            card_s.to_bits(),
                            "batch execute cardinality diverged from scalar at \
                             row {row}: {card_b} vs {card_s}",
                        );
                        debug_assert_eq!(
                            work_b.to_bits(),
                            work_s.to_bits(),
                            "batch execute work diverged from scalar at row \
                             {row}: {work_b} vs {work_s}",
                        );
                    }
                    (expected, got) => debug_assert_eq!(
                        got, expected,
                        "batch execute result diverged from scalar at row {row}",
                    ),
                }
            }
        }
        Ok(&scratch.results)
    }
}

/// The scalar path for one row: instantiate and execute from scratch.
/// Used by the scalar tier and by columnar-tier rows whose bound values
/// fall outside the kernel's numeric domain.
fn scalar_row(
    db: &Database,
    template: &Template,
    batch: &BindingBatch,
    row: usize,
    row_bindings: &mut HashMap<u32, Value>,
) -> Result<(f64, f64), DbError> {
    batch.fill_row_map(row, row_bindings);
    let select = template
        .instantiate(row_bindings)
        .map_err(|e| DbError::Unsupported(e.to_string()))?;
    let (_, rows, work) = executor::execute(db, &select)?;
    Ok((rows.len() as f64, work as f64 * WORK_UNIT_MICROS))
}

impl Tier2 {
    fn prepare(db: &Database, select: &Select) -> Tier2 {
        // Subquery bodies are placeholder-free here (placeholder-bearing
        // ones take the scalar tier), so their results and the work
        // charged to execute them are binding-invariant.
        let mut work = 0u64;
        let sub = executor::collect_subquery_results(db, select, &mut work)
            .map(|results| (results, work));
        Tier2 { sub }
    }

    fn run(
        &self,
        exec: &PreparedExec,
        db: &Database,
        batch: &BindingBatch,
        scratch: &mut ExecScratch,
    ) {
        for row in 0..batch.len() {
            batch.fill_row_map(row, &mut scratch.row_bindings);
            let result = match exec.template.instantiate(&scratch.row_bindings) {
                Err(e) => Err(DbError::Unsupported(e.to_string())),
                Ok(select) => match &self.sub {
                    Ok((results, sub_work)) => {
                        // Work starts at the hoisted subqueries' charge:
                        // the counter is a sum, so charging it up front
                        // is identical to the scalar path's interleaved
                        // accounting.
                        let mut work = *sub_work;
                        executor::execute_with(db, &select, Some(results), &mut work)
                            .map(|(_, rows)| {
                                (rows.len() as f64, work as f64 * WORK_UNIT_MICROS)
                            })
                    }
                    Err(e) => {
                        // The scalar path plans before collecting
                        // subqueries, so plan errors take precedence
                        // over the captured collection error.
                        match planner::plan(db, &select) {
                            Err(plan_err) => Err(plan_err),
                            Ok(_) => Err(e.clone()),
                        }
                    }
                },
            };
            scratch.results.push(result);
        }
    }
}

impl Tier1 {
    /// Admit a statement into the columnar tier, caching its skeleton.
    /// Returns `None` for any shape the kernels cannot reproduce
    /// count-exactly; the caller then demotes to the hoisted tier.
    fn try_prepare(db: &Database, select: &Select) -> Option<Tier1> {
        let scope = planner::build_scope(db, select).ok()?;
        if scope.bindings.len() > MAX_SCANS
            || select.joins.iter().any(|j| j.kind == JoinKind::Left)
            || !select.group_by.is_empty()
            || select.having.is_some()
            || select.distinct
        {
            return None;
        }
        // The output phase must be error-free for any numeric/null
        // binding, and its values must not reach the counts: rows mode
        // takes wildcard/column/literal projections and bare-column sort
        // keys, aggregate mode infallible aggregate calls.
        let aggregate = planner::count_aggregates(select) > 0;
        let resolves = |c: &ColumnRef| scope.resolve(db, c).is_ok();
        for item in &select.projections {
            let admitted = match &item.expr {
                Expr::Literal(_) => true,
                Expr::Wildcard => !aggregate,
                Expr::Column(c) => !aggregate && resolves(c),
                other => aggregate && infallible_aggregate(db, &scope, other),
            };
            if !admitted {
                return None;
            }
        }
        for item in &select.order_by {
            let admitted = match &item.expr {
                Expr::Column(c) => !aggregate && resolves(c),
                other => aggregate && infallible_aggregate(db, &scope, other),
            };
            if !admitted {
                return None;
            }
        }
        // One scan, or two under exactly one equi edge and nothing else:
        // the planner then emits `HashJoin(scan, scan)` with no residual
        // and no leftover filter.
        let (scan_filters, edges, residuals) =
            planner::classify_predicates(db, select, &scope).ok()?;
        if !residuals.is_empty() || edges.len() + 1 != scope.bindings.len() {
            return None;
        }

        let estimator = Estimator::new(db, &scope);
        let mut scans = Vec::with_capacity(scope.bindings.len());
        let mut first_conj = 0;
        for (s, filters) in scan_filters.iter().enumerate() {
            let table_name = &scope.bindings[s].1;
            let table = db.table(table_name).ok()?;
            let stats = db.stats(table_name).ok()?;
            let conjuncts = filters
                .iter()
                .map(|expr| kernelable(db, table_name, table, &estimator, expr))
                .collect::<Option<Vec<_>>>()?;
            let quals = if conjuncts.is_empty() {
                0
            } else {
                conjuncts.iter().map(|c| c.raw_leaves).sum::<usize>().max(1)
            };
            let mut scan = Tier1Scan {
                table: table_name.clone(),
                base_rows: stats.row_count as f64,
                width: table.row_width() as f64,
                quals,
                first_conj,
                conjuncts,
                fixed: None,
            };
            first_conj += scan.conjuncts.len();
            if scan.conjuncts.iter().all(|c| c.cached_sel.is_some()) {
                // Every value is a literal: the access path and the
                // selection are the same on every row. Placeholder-free
                // conjuncts carry their own probe decision, so no index
                // flags are needed.
                let no_bindings = BindingBatch::default();
                let mut selection = Vec::new();
                let candidates = scan.select(
                    db,
                    table,
                    |c| scan.conjuncts[c].cached_sel.expect("placeholder-free"),
                    &[],
                    &no_bindings,
                    0,
                    &mut selection,
                );
                scan.fixed = Some((candidates, selection));
            }
            scans.push(scan);
        }
        let join = match edges.first() {
            None => None,
            Some(edge) => Some(Tier1Join::prepare(
                db,
                &scope,
                &scans,
                [
                    (edge.left_binding, &edge.left_column),
                    (edge.right_binding, &edge.right_column),
                ],
            )?),
        };
        Some(Tier1 {
            scans,
            join,
            aggregate,
            limit: select.limit,
            charge_order_by: !select.order_by.is_empty(),
        })
    }

    fn run(
        &self,
        exec: &PreparedExec,
        db: &Database,
        batch: &BindingBatch,
        scratch: &mut ExecScratch,
    ) {
        let n = batch.len();
        let mut tables: [Option<(&Table, &TableStats)>; MAX_SCANS] = [None; MAX_SCANS];
        for (slot, scan) in tables.iter_mut().zip(&self.scans) {
            let (Ok(table), Ok(stats)) = (db.table(&scan.table), db.stats(&scan.table))
            else {
                // Unreachable for a database the template prepared
                // against; reproduce whatever the scalar path reports.
                for row in 0..n {
                    let result = scalar_row(
                        db,
                        &exec.template,
                        batch,
                        row,
                        &mut scratch.row_bindings,
                    );
                    scratch.results.push(result);
                }
                return;
            };
            *slot = Some((table, stats));
        }
        let n_conj: usize = self.scans.iter().map(|s| s.conjuncts.len()).sum();

        // ---- per-batch resolution -----------------------------------
        scratch.has_index.clear();
        for scan in &self.scans {
            for conjunct in &scan.conjuncts {
                scratch
                    .has_index
                    .push(db.index_on(&scan.table, &conjunct.name).is_some());
            }
        }

        // Rows binding a non-numeric, non-null value fall back to the
        // scalar path: the planner's validation rejects such literals
        // with a `TypeMismatch` the kernels cannot reproduce.
        scratch.fallback.clear();
        scratch.fallback.resize(n, false);
        for id in &exec.placeholder_ids {
            let col = batch.column_of(*id);
            for (row, flag) in scratch.fallback.iter_mut().enumerate() {
                if matches!(batch.value(col, row), Value::Bool(_) | Value::Str(_)) {
                    *flag = true;
                }
            }
        }

        // ---- phase A: columnar selectivities ------------------------
        // One pass per conjunct over the batch's value columns,
        // replaying the estimator's arithmetic exactly as
        // `prepared::fill_column` does (bit-identical to the planner on
        // the instantiated statement).
        scratch.sels.clear();
        scratch.sels.resize(n_conj * n, 0.0);
        for (scan, tables) in self.scans.iter().zip(&tables) {
            let Some((_, stats_table)) = tables else { continue };
            for (c, conjunct) in scan.conjuncts.iter().enumerate() {
                let g = scan.first_conj + c;
                let out = &mut scratch.sels[g * n..(g + 1) * n];
                if let Some(sel) = conjunct.cached_sel {
                    out.fill(sel);
                    continue;
                }
                let stats = stats_table.columns.get(&conjunct.name);
                match &conjunct.kind {
                    Tier1Kind::Cmp { op, value } => {
                        fill_cmp_sels(stats, *op, value, batch, out);
                    }
                    Tier1Kind::Between { negated, low, high } => {
                        fill_between_sels(stats, *negated, low, high, batch, out);
                    }
                }
            }
        }

        // ---- phase B: per-row scans, join count, output charges -----
        for row in 0..n {
            if scratch.fallback[row] {
                let result = scalar_row(
                    db,
                    &exec.template,
                    batch,
                    row,
                    &mut scratch.row_bindings,
                );
                scratch.results.push(result);
                continue;
            }

            let mut candidates = 0u64;
            for ((scan, tables), selection) in
                self.scans.iter().zip(&tables).zip(&mut scratch.selections)
            {
                if let Some((fixed, _)) = &scan.fixed {
                    candidates += *fixed as u64;
                    continue;
                }
                let Some((table, _)) = tables else { continue };
                let sels = &scratch.sels;
                candidates += scan.select(
                    db,
                    table,
                    |c| sels[(scan.first_conj + c) * n + row],
                    &scratch.has_index[scan.first_conj..],
                    batch,
                    row,
                    selection,
                ) as u64;
            }
            let selected = |s: usize| -> &[u32] {
                match &self.scans[s].fixed {
                    Some((_, selection)) => selection,
                    None => &scratch.selections[s],
                }
            };

            // Work accounting mirrors `executor`: the scans charge their
            // candidates, a hash join both inputs plus every match, and
            // the output phase its input records (grouping), then the
            // sort (when ordered) and projection of its output records.
            let (input, join_work) = match &self.join {
                None => (selected(0).len() as u64, 0),
                Some(join) => {
                    let (left, right) = (selected(0), selected(1));
                    let matches = join.count_matches(left, right, &mut scratch.counts);
                    (matches, (left.len() + right.len()) as u64 + matches)
                }
            };
            let (output_work, records) = if self.aggregate {
                // A global aggregate yields exactly one group, even over
                // an empty input.
                (input + u64::from(self.charge_order_by) + 1, 1)
            } else {
                (input * (1 + u64::from(self.charge_order_by)), input)
            };
            let work = candidates + join_work + output_work;
            let cardinality = self.limit.map_or(records, |limit| records.min(limit));
            scratch
                .results
                .push(Ok((cardinality as f64, work as f64 * WORK_UNIT_MICROS)));
        }
    }
}

impl Tier1Scan {
    /// Replay the planner's seq-vs-index argmin for one binding row and
    /// fill `selection` with the storage rows passing every conjunct;
    /// returns the candidates the executor's scan visits. `sel(c)` is
    /// conjunct `c`'s selectivity and `has_index[c]` whether its column
    /// is indexed.
    #[allow(clippy::too_many_arguments)]
    fn select(
        &self,
        db: &Database,
        table: &Table,
        sel: impl Fn(usize) -> f64,
        has_index: &[bool],
        batch: &BindingBatch,
        row: usize,
        selection: &mut Vec<u32>,
    ) -> usize {
        let n_rows = table.row_count();
        if self.conjuncts.is_empty() {
            selection.clear();
            selection.extend(0..n_rows as u32);
            return n_rows;
        }

        // Same operands, same order as the planner, and strict `<`
        // keeps the first winner on ties — so the charged scan is
        // exactly the one the executor would have run.
        let model = db.cost_model();
        let mut selectivity = 1.0;
        for c in 0..self.conjuncts.len() {
            selectivity *= sel(c);
        }
        let out_rows = self.base_rows * selectivity;
        let mut best_cost = model.seq_scan(self.base_rows, self.width, self.quals, out_rows);
        let mut winner: Option<usize> = None;
        for (c, conjunct) in self.conjuncts.iter().enumerate() {
            let probes = match conjunct.static_probe {
                Some(fixed) => fixed,
                None => {
                    has_index[c]
                        && match &conjunct.kind {
                            Tier1Kind::Cmp { op, value } => {
                                *op != BinaryOp::NotEq
                                    && value.resolve(batch, row).as_f64().is_some()
                            }
                            Tier1Kind::Between { negated, low, high } => {
                                !*negated
                                    && low.resolve(batch, row).as_f64().is_some()
                                    && high.resolve(batch, row).as_f64().is_some()
                            }
                        }
                }
            };
            if !probes {
                continue;
            }
            let match_rows = self.base_rows * sel(c);
            let index_cost =
                model.index_scan(self.base_rows, self.width, match_rows, self.quals, out_rows);
            if index_cost < best_cost {
                best_cost = index_cost;
                winner = Some(c);
            }
        }

        match winner {
            None => {
                // Sequential scan: the executor visits every row.
                let pred = pred_for(&self.conjuncts[0], table, batch, row);
                fill_range_pred(&pred, n_rows, selection);
                for conjunct in &self.conjuncts[1..] {
                    let pred = pred_for(conjunct, table, batch, row);
                    retain_pred(&pred, selection);
                }
                n_rows
            }
            Some(w) => {
                // Index scan: the executor visits the probe slice, then
                // re-evaluates the *full* filter on every candidate.
                let conjunct = &self.conjuncts[w];
                let (lo, hi) = probe_bounds(conjunct, batch, row);
                let index = db
                    .index_on(&self.table, &conjunct.name)
                    .expect("probe decision implies the index exists");
                let slice = index.probe_slice(lo, hi);
                selection.clear();
                selection.extend(slice.iter().map(|&(_, row_id)| row_id));
                for conjunct in &self.conjuncts {
                    let pred = pred_for(conjunct, table, batch, row);
                    retain_pred(&pred, selection);
                }
                slice.len()
            }
        }
    }
}

impl Tier1Join {
    /// Assign every storage row's join key its dense id, and count the
    /// keys of each fixed scan once. `edge` names each side's binding
    /// and key column; `None` unless both keys are `Int`/`Float` storage
    /// columns.
    fn prepare(
        db: &Database,
        scope: &Scope,
        scans: &[Tier1Scan],
        edge: [(usize, &ColumnRef); MAX_SCANS],
    ) -> Option<Tier1Join> {
        let mut ids: HashMap<HashKey, u32> = HashMap::new();
        let mut keys: [Vec<u32>; MAX_SCANS] = Default::default();
        for (binding, column) in edge {
            let table = db.table(&scope.bindings[binding].1).ok()?;
            let column = &table.columns[table.column_index(&column.column)?];
            if !matches!(column.data_type(), DataType::Int | DataType::Float) {
                return None;
            }
            keys[binding] = (0..table.row_count())
                .map(|row| match executor::hash_key(&column.get(row)) {
                    HashKey::Null => u32::MAX,
                    key => {
                        let next = ids.len() as u32;
                        *ids.entry(key).or_insert(next)
                    }
                })
                .collect();
        }
        let n_keys = ids.len();
        for id in keys.iter_mut().flatten() {
            if *id == u32::MAX {
                *id = n_keys as u32;
            }
        }
        let mut fixed_counts: [Option<Vec<u32>>; MAX_SCANS] = Default::default();
        for ((counts, scan), keys) in fixed_counts.iter_mut().zip(scans).zip(&keys) {
            if let Some((_, selection)) = &scan.fixed {
                let mut per_key = vec![0u32; n_keys + 1];
                for &row in selection {
                    per_key[keys[row as usize] as usize] += 1;
                }
                per_key[n_keys] = 0;
                *counts = Some(per_key);
            }
        }
        Some(Tier1Join { keys, n_keys, fixed_counts })
    }

    /// Join matches of two selections: the pairs `HashJoin` would emit.
    /// A fixed side's counts are precomputed; otherwise the smaller
    /// selection is counted into `counts` (all zero on entry and on
    /// return), the other side probes it, and only the touched entries
    /// are reset.
    fn count_matches(&self, left: &[u32], right: &[u32], counts: &mut Vec<u32>) -> u64 {
        let probe = |per_key: &[u32], keys: &[u32], selection: &[u32]| -> u64 {
            selection
                .iter()
                .map(|&row| u64::from(per_key[keys[row as usize] as usize]))
                .sum()
        };
        let [left_keys, right_keys] = &self.keys;
        match &self.fixed_counts {
            [_, Some(per_key)] => probe(per_key, left_keys, left),
            [Some(per_key), None] => probe(per_key, right_keys, right),
            [None, None] => {
                let (build, build_keys, other, other_keys) = if left.len() <= right.len() {
                    (left, left_keys, right, right_keys)
                } else {
                    (right, right_keys, left, left_keys)
                };
                if counts.len() <= self.n_keys {
                    counts.resize(self.n_keys + 1, 0);
                }
                for &row in build {
                    counts[build_keys[row as usize] as usize] += 1;
                }
                counts[self.n_keys] = 0;
                let matches = probe(counts, other_keys, other);
                for &row in build {
                    counts[build_keys[row as usize] as usize] = 0;
                }
                matches
            }
        }
    }
}

/// True for an aggregate call that cannot fail on any input and whose
/// value never reaches the cardinality or the work count: `COUNT(*)`,
/// `COUNT([DISTINCT] col)`, `MIN`/`MAX(col)`, or `SUM`/`AVG` over a
/// numeric column. Names must be the executor's exact spelling.
fn infallible_aggregate(db: &Database, scope: &Scope, expr: &Expr) -> bool {
    let Expr::Function { name, args, .. } = expr else { return false };
    let [arg] = args.as_slice() else { return false };
    let column_type = |c: &ColumnRef| -> Option<DataType> {
        let binding = scope.resolve(db, c).ok()?;
        let table = db.table(&scope.bindings[binding].1).ok()?;
        Some(table.columns[table.column_index(&c.column)?].data_type())
    };
    match (name.as_str(), arg) {
        ("COUNT", Expr::Wildcard) => true,
        ("COUNT" | "MIN" | "MAX", Expr::Column(c)) => column_type(c).is_some(),
        ("SUM" | "AVG", Expr::Column(c)) => {
            matches!(column_type(c), Some(DataType::Int | DataType::Float))
        }
        _ => false,
    }
}

/// Recognize one conjunct as kernel-executable: a comparison or
/// `BETWEEN` whose column is a numeric *storage* column of the scanned
/// table and whose non-column operands are placeholders or
/// `Int`/`Float`/`Null` literals. Mirrors `prepared::classify_fast`,
/// tightened to the shapes the execution kernels reproduce exactly.
fn kernelable(
    db: &Database,
    table_name: &str,
    table: &Table,
    estimator: &Estimator<'_>,
    expr: &Expr,
) -> Option<Tier1Conjunct> {
    let source_of = |e: &Expr| match e {
        Expr::Placeholder(id) => Some(ValueSource::Slot(*id)),
        Expr::Literal(v @ (Value::Int(_) | Value::Float(_) | Value::Null)) => {
            Some(ValueSource::Const(v.clone()))
        }
        _ => None,
    };
    let (name, kind) = match expr {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            let (column, op, value) = match (left.as_ref(), right.as_ref()) {
                (Expr::Column(column), rhs) => (column, *op, source_of(rhs)?),
                (lhs, Expr::Column(column)) => (column, flip(*op), source_of(lhs)?),
                _ => return None,
            };
            (column.column.clone(), Tier1Kind::Cmp { op, value })
        }
        Expr::Between { expr: target, negated, low, high } => {
            let Expr::Column(column) = target.as_ref() else { return None };
            (
                column.column.clone(),
                Tier1Kind::Between {
                    negated: *negated,
                    low: source_of(low)?,
                    high: source_of(high)?,
                },
            )
        }
        _ => return None,
    };
    let col = table.column_index(&name)?;
    if !matches!(
        table.columns[col].data_type(),
        DataType::Int | DataType::Float
    ) {
        return None;
    }
    // Placeholder-free conjuncts cache the estimator's selectivity and
    // probe decision at prepare time, exactly like `PreparedPredicate`.
    let (cached_sel, static_probe) = if expr.has_placeholders() {
        (None, None)
    } else {
        let probes = planner::indexable_bounds(expr)
            .map(|(column, _, _)| db.index_on(table_name, &column).is_some())
            .unwrap_or(false);
        (Some(estimator.selectivity(expr)), Some(probes))
    };
    Some(Tier1Conjunct {
        name,
        col,
        raw_leaves: planner::count_leaves_raw(expr),
        cached_sel,
        static_probe,
        kind,
    })
}

/// Index-probe bounds of the winning conjunct, replaying
/// `planner::indexable_bounds` on the bound values: `=` gives a point
/// range, `<`/`<=` an upper bound, `>`/`>=` a lower bound, `BETWEEN`
/// both. The caller only probes when every needed value is numeric.
fn probe_bounds(
    conjunct: &Tier1Conjunct,
    batch: &BindingBatch,
    row: usize,
) -> (Option<f64>, Option<f64>) {
    match &conjunct.kind {
        Tier1Kind::Cmp { op, value } => {
            let v = value.resolve(batch, row).as_f64();
            match op {
                BinaryOp::Eq => (v, v),
                BinaryOp::Gt | BinaryOp::GtEq => (v, None),
                BinaryOp::Lt | BinaryOp::LtEq => (None, v),
                _ => unreachable!("probe decision rejects other operators"),
            }
        }
        Tier1Kind::Between { low, high, .. } => (
            low.resolve(batch, row).as_f64(),
            high.resolve(batch, row).as_f64(),
        ),
    }
}

// ---- selectivity columns (phase A) ------------------------------------

/// Selectivity column for a `column op value` conjunct: the estimator's
/// comparison arithmetic replayed per bound value, identical operation
/// for operation to `prepared::fill_column` (which is itself
/// debug-asserted against the planner).
fn fill_cmp_sels(
    stats: Option<&ColumnStats>,
    op: BinaryOp,
    value: &ValueSource,
    batch: &BindingBatch,
    out: &mut [f64],
) {
    for (row, slot) in out.iter_mut().enumerate() {
        let value = value.resolve(batch, row);
        let sel = match stats {
            None => default_for(op),
            Some(stats) => match op {
                BinaryOp::Eq => equality_selectivity(stats, value),
                BinaryOp::NotEq => 1.0 - equality_selectivity(stats, value),
                BinaryOp::Lt | BinaryOp::LtEq => {
                    match value.as_f64().and_then(|v| stats.fraction_below(v)) {
                        Some(f) => {
                            let eq_bump = if op == BinaryOp::LtEq {
                                equality_selectivity(stats, value)
                            } else {
                                0.0
                            };
                            ((1.0 - stats.null_frac) * f + eq_bump).min(1.0)
                        }
                        None => DEFAULT_INEQ_SEL,
                    }
                }
                BinaryOp::Gt | BinaryOp::GtEq => {
                    match value.as_f64().and_then(|v| stats.fraction_below(v)) {
                        Some(f) => {
                            let eq_bump = if op == BinaryOp::GtEq {
                                equality_selectivity(stats, value)
                            } else {
                                0.0
                            };
                            ((1.0 - stats.null_frac) * (1.0 - f) + eq_bump).min(1.0)
                        }
                        None => DEFAULT_INEQ_SEL,
                    }
                }
                _ => DEFAULT_INEQ_SEL,
            },
        };
        *slot = sel.clamp(0.0, 1.0);
    }
}

/// Selectivity column for a `[NOT] BETWEEN` conjunct, replaying the
/// estimator's range arithmetic per bound pair.
fn fill_between_sels(
    stats: Option<&ColumnStats>,
    negated: bool,
    low: &ValueSource,
    high: &ValueSource,
    batch: &BindingBatch,
    out: &mut [f64],
) {
    for (row, slot) in out.iter_mut().enumerate() {
        let lo = low.resolve(batch, row).as_f64();
        let hi = high.resolve(batch, row).as_f64();
        let sel = match stats {
            None => DEFAULT_INEQ_SEL * DEFAULT_INEQ_SEL,
            Some(stats) => match (lo, hi) {
                (Some(lo), Some(hi)) if hi >= lo => {
                    let f_lo = stats.fraction_below(lo).unwrap_or(0.0);
                    let f_hi = stats.fraction_below(hi).unwrap_or(1.0);
                    ((1.0 - stats.null_frac) * (f_hi - f_lo)).max(0.0)
                }
                (Some(_), Some(_)) => 0.0, // inverted range is empty
                _ => DEFAULT_INEQ_SEL * DEFAULT_INEQ_SEL,
            },
        };
        let sel = if negated { 1.0 - sel } else { sel };
        *slot = sel.clamp(0.0, 1.0);
    }
}

// ---- predicate kernels (phase B) --------------------------------------

/// One conjunct lowered to a monomorphic row predicate over a column
/// view for one batch row. Numeric comparisons reproduce
/// `Value::total_cmp` exactly: `Int`-vs-`Int` compares as `i64`, any
/// other numeric mix as `f64` with `partial_cmp` falling back to
/// `Equal` (the NaN convention); a NULL cell or NULL operand never
/// passes (the evaluator's three-valued logic collapses to false under
/// `eval_filter`).
#[derive(Debug)]
enum Pred<'a> {
    /// `Int` column vs `Int` operand.
    CmpII { values: &'a [i64], valid: &'a [bool], op: BinaryOp, b: i64 },
    /// `Int` column vs `Float` operand.
    CmpIF { values: &'a [i64], valid: &'a [bool], op: BinaryOp, b: f64 },
    /// `Float` column vs numeric operand.
    CmpFF { values: &'a [f64], valid: &'a [bool], op: BinaryOp, b: f64 },
    /// `Int` column `[NOT] BETWEEN`, each bound kept in its own domain.
    BetweenInt {
        values: &'a [i64],
        valid: &'a [bool],
        lo: IntBound,
        hi: IntBound,
        negated: bool,
    },
    /// `Float` column `[NOT] BETWEEN`.
    BetweenFloat {
        values: &'a [f64],
        valid: &'a [bool],
        lo: f64,
        hi: f64,
        negated: bool,
    },
    /// A NULL operand: no row passes, negated or not.
    Nothing,
}

/// One `BETWEEN` bound against an `Int` column: an `Int` bound compares
/// in `i64`, a `Float` bound in `f64` — exactly `Value::total_cmp`.
#[derive(Debug, Clone, Copy)]
enum IntBound {
    I(i64),
    F(f64),
}

/// `f64` ordering with the evaluator's NaN convention.
#[inline(always)]
fn fcmp(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

/// Ordering of an `Int` cell against a `BETWEEN` bound.
#[inline(always)]
fn ibcmp(v: i64, bound: IntBound) -> Ordering {
    match bound {
        IntBound::I(b) => v.cmp(&b),
        IntBound::F(b) => fcmp(v as f64, b),
    }
}

/// The evaluator's comparison-operator truth table over an ordering.
#[inline(always)]
fn ord_ok(op: BinaryOp, ordering: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ordering == Ordering::Equal,
        BinaryOp::NotEq => ordering != Ordering::Equal,
        BinaryOp::Lt => ordering == Ordering::Less,
        BinaryOp::LtEq => ordering != Ordering::Greater,
        BinaryOp::Gt => ordering == Ordering::Greater,
        BinaryOp::GtEq => ordering != Ordering::Less,
        _ => unreachable!("kernels only admit comparison operators"),
    }
}

/// Lower one conjunct to its row predicate for `row`'s bound values.
fn pred_for<'a>(
    conjunct: &Tier1Conjunct,
    table: &'a Table,
    batch: &BindingBatch,
    row: usize,
) -> Pred<'a> {
    let column = &table.columns[conjunct.col];
    match &conjunct.kind {
        Tier1Kind::Cmp { op, value } => {
            let value = value.resolve(batch, row).clone();
            if let Some((values, valid)) = column.int_view() {
                match value {
                    Value::Int(b) => Pred::CmpII { values, valid, op: *op, b },
                    Value::Float(b) => Pred::CmpIF { values, valid, op: *op, b },
                    // NULL never matches; Bool/Str rows took the scalar
                    // fallback before reaching the kernels.
                    _ => Pred::Nothing,
                }
            } else if let Some((values, valid)) = column.float_view() {
                match value.as_f64() {
                    Some(b) => Pred::CmpFF { values, valid, op: *op, b },
                    None => Pred::Nothing,
                }
            } else {
                unreachable!("tier admission requires a numeric storage column")
            }
        }
        Tier1Kind::Between { negated, low, high } => {
            let lo = low.resolve(batch, row).clone();
            let hi = high.resolve(batch, row).clone();
            if lo.is_null() || hi.is_null() {
                // A NULL bound makes the whole predicate NULL → false.
                return Pred::Nothing;
            }
            if let Some((values, valid)) = column.int_view() {
                let bound = |v: &Value| match v {
                    Value::Int(b) => IntBound::I(*b),
                    Value::Float(b) => IntBound::F(*b),
                    _ => unreachable!("fallback guard admits only numeric bounds"),
                };
                Pred::BetweenInt {
                    values,
                    valid,
                    lo: bound(&lo),
                    hi: bound(&hi),
                    negated: *negated,
                }
            } else if let Some((values, valid)) = column.float_view() {
                let (Some(lo), Some(hi)) = (lo.as_f64(), hi.as_f64()) else {
                    unreachable!("fallback guard admits only numeric bounds")
                };
                Pred::BetweenFloat { values, valid, lo, hi, negated: *negated }
            } else {
                unreachable!("tier admission requires a numeric storage column")
            }
        }
    }
}

/// Expand `pred` into a monomorphic closure and run `$body` with it —
/// the match happens once per kernel invocation, outside the row loops,
/// so each instantiation is a tight loop over primitive slices.
macro_rules! with_pass {
    ($pred:expr, |$pass:ident| $body:expr) => {
        match $pred {
            Pred::CmpII { values, valid, op, b } => {
                let $pass =
                    |row: usize| valid[row] && ord_ok(*op, values[row].cmp(b));
                $body
            }
            Pred::CmpIF { values, valid, op, b } => {
                let $pass = |row: usize| {
                    valid[row] && ord_ok(*op, fcmp(values[row] as f64, *b))
                };
                $body
            }
            Pred::CmpFF { values, valid, op, b } => {
                let $pass =
                    |row: usize| valid[row] && ord_ok(*op, fcmp(values[row], *b));
                $body
            }
            Pred::BetweenInt { values, valid, lo, hi, negated } => {
                let $pass = |row: usize| {
                    valid[row] && {
                        let v = values[row];
                        let inside = ibcmp(v, *lo) != Ordering::Less
                            && ibcmp(v, *hi) != Ordering::Greater;
                        inside != *negated
                    }
                };
                $body
            }
            Pred::BetweenFloat { values, valid, lo, hi, negated } => {
                let $pass = |row: usize| {
                    valid[row] && {
                        let v = values[row];
                        let inside = fcmp(v, *lo) != Ordering::Less
                            && fcmp(v, *hi) != Ordering::Greater;
                        inside != *negated
                    }
                };
                $body
            }
            Pred::Nothing => {
                let $pass = |_row: usize| false;
                $body
            }
        }
    };
}

/// Fill the selection vector with every row id in `0..n_rows` passing
/// `pred`, in chunks of [`LANES`]: the lane loop writes plain booleans
/// (no data-dependent control flow, so it autovectorizes), and the
/// compaction loop appends the surviving ids.
fn fill_range_pred(pred: &Pred<'_>, n_rows: usize, selection: &mut Vec<u32>) {
    selection.clear();
    if matches!(pred, Pred::Nothing) {
        return;
    }
    with_pass!(pred, |pass| {
        let mut lanes = [false; LANES];
        let mut base = 0usize;
        while base < n_rows {
            let width = LANES.min(n_rows - base);
            for (lane, flag) in lanes[..width].iter_mut().enumerate() {
                *flag = pass(base + lane);
            }
            for (lane, flag) in lanes[..width].iter().enumerate() {
                if *flag {
                    selection.push((base + lane) as u32);
                }
            }
            base += width;
        }
    });
}

/// Keep only the selection-vector entries passing `pred` (gather +
/// filter over the already-selected row ids).
fn retain_pred(pred: &Pred<'_>, selection: &mut Vec<u32>) {
    if matches!(pred, Pred::Nothing) {
        selection.clear();
        return;
    }
    with_pass!(pred, |pass| {
        selection.retain(|&row| pass(row as usize));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::parse_template;

    fn tpch() -> Database {
        crate::datagen::tpch::generate(crate::datagen::tpch::TpchConfig::tiny())
    }

    fn batch_of(ids: &[u32], rows: &[Vec<(u32, Value)>]) -> BindingBatch {
        let maps: Vec<HashMap<u32, Value>> =
            rows.iter().map(|r| r.iter().cloned().collect()).collect();
        BindingBatch::from_rows(ids, &maps).unwrap()
    }

    /// Build, execute, and verify one template against the scalar path.
    /// The heavy lifting is the `debug_assertions` cross-check inside
    /// `execute_batch` itself; this helper re-asserts explicitly so the
    /// tests also fail on release builds.
    fn assert_batch_matches_scalar(
        db: &Database,
        sql: &str,
        expected_tier: &str,
        rows: &[Vec<(u32, Value)>],
    ) {
        let template = parse_template(sql).unwrap();
        let prepared = PreparedExec::prepare(db, &template);
        assert_eq!(prepared.tier(), expected_tier, "tier for {sql}");
        let ids = prepared.placeholder_ids().to_vec();
        let batch = batch_of(&ids, rows);
        let mut scratch = ExecScratch::new();
        let results = prepared.execute_batch(db, &batch, &mut scratch).unwrap();
        assert_eq!(results.len(), rows.len());
        for (row, result) in results.iter().enumerate() {
            let bindings: HashMap<u32, Value> = rows[row].iter().cloned().collect();
            let select = template.instantiate(&bindings).unwrap();
            let expected = db
                .execute(&select)
                .map(|r| (r.cardinality() as f64, r.work_micros()));
            match (&expected, result) {
                (Ok((card_s, work_s)), Ok((card_b, work_b))) => {
                    assert_eq!(card_b.to_bits(), card_s.to_bits(), "card row {row}");
                    assert_eq!(work_b.to_bits(), work_s.to_bits(), "work row {row}");
                }
                (expected, got) => assert_eq!(got, expected, "row {row}"),
            }
        }
    }

    #[test]
    fn columnar_seq_scan_matches_scalar() {
        let db = tpch();
        assert_batch_matches_scalar(
            &db,
            "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity > {p_1}",
            "columnar",
            &[
                vec![(1, Value::Int(5))],
                vec![(1, Value::Int(25))],
                vec![(1, Value::Float(49.5))],
                vec![(1, Value::Int(-10))],
                vec![(1, Value::Null)],
            ],
        );
    }

    #[test]
    fn columnar_index_scan_matches_scalar() {
        let db = tpch();
        // o_orderkey is the primary key: point lookups flip to the index
        // path, wide ranges stay sequential — work must track the choice.
        assert_batch_matches_scalar(
            &db,
            "SELECT o.o_orderkey FROM orders AS o WHERE o.o_orderkey = {p_1}",
            "columnar",
            &[
                vec![(1, Value::Int(1))],
                vec![(1, Value::Int(500))],
                vec![(1, Value::Int(-3))],
            ],
        );
    }

    #[test]
    fn columnar_between_order_by_limit_matches_scalar() {
        let db = tpch();
        assert_batch_matches_scalar(
            &db,
            "SELECT o.o_orderkey, o.o_totalprice FROM orders AS o \
             WHERE o.o_totalprice BETWEEN {p_1} AND {p_2} \
             ORDER BY o.o_totalprice LIMIT 7",
            "columnar",
            &[
                vec![(1, Value::Float(100.0)), (2, Value::Float(50_000.0))],
                vec![(1, Value::Float(10_000.0)), (2, Value::Float(20_000.0))],
                // inverted (empty) and NULL-bound intervals
                vec![(1, Value::Float(9_000.0)), (2, Value::Float(1_000.0))],
                vec![(1, Value::Null), (2, Value::Float(1_000.0))],
            ],
        );
    }

    #[test]
    fn columnar_multi_conjunct_matches_scalar() {
        let db = tpch();
        assert_batch_matches_scalar(
            &db,
            "SELECT * FROM lineitem AS l \
             WHERE l.l_quantity > {p_1} AND l.l_extendedprice < {p_2} \
               AND l.l_orderkey > 10",
            "columnar",
            &[
                vec![(1, Value::Int(10)), (2, Value::Float(20_000.0))],
                vec![(1, Value::Int(45)), (2, Value::Float(100.0))],
            ],
        );
    }

    #[test]
    fn bool_and_str_bindings_fall_back_to_scalar_path() {
        let db = tpch();
        // The instantiated statement fails plan-time type checking; the
        // batch must reproduce the same per-row error.
        assert_batch_matches_scalar(
            &db,
            "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity > {p_1}",
            "columnar",
            &[
                vec![(1, Value::Bool(true))],
                vec![(1, Value::Str("x".into()))],
                vec![(1, Value::Int(30))],
            ],
        );
    }

    #[test]
    fn joins_and_aggregates_take_hoisted_tier() {
        // GROUP BY is outside the columnar output modes, join or not.
        let db = tpch();
        assert_batch_matches_scalar(
            &db,
            "SELECT c.c_name, SUM(o.o_totalprice) FROM customer AS c \
             JOIN orders AS o ON c.c_custkey = o.o_custkey \
             WHERE o.o_totalprice > {p_1} \
             GROUP BY c.c_name ORDER BY c.c_name LIMIT 5",
            "hoisted",
            &[
                vec![(1, Value::Float(1_000.0))],
                vec![(1, Value::Float(90_000.0))],
            ],
        );
    }

    #[test]
    fn two_table_equi_joins_take_columnar_tier() {
        let db = tpch();
        // Both sides dynamic: counted through the scratch key counts.
        assert_batch_matches_scalar(
            &db,
            "SELECT o.o_orderkey, l.l_quantity FROM orders AS o \
             JOIN lineitem AS l ON o.o_orderkey = l.l_orderkey \
             WHERE o.o_totalprice > {p_1} AND l.l_quantity < {p_2} \
             ORDER BY l.l_quantity LIMIT 50",
            "columnar",
            &[
                vec![(1, Value::Float(1_000.0)), (2, Value::Float(30.0))],
                vec![(1, Value::Float(150_000.0)), (2, Value::Int(5))],
                vec![(1, Value::Null), (2, Value::Float(30.0))],
                vec![(1, Value::Float(1_000.0)), (2, Value::Str("x".into()))],
            ],
        );
        // A static side (no placeholders) and a point-lookup index
        // winner on the dynamic side.
        assert_batch_matches_scalar(
            &db,
            "SELECT * FROM part AS p JOIN partsupp AS ps ON ps.ps_partkey = p.p_partkey \
             WHERE p.p_size > 10 AND ps.ps_partkey = {p_1}",
            "columnar",
            &[
                vec![(1, Value::Int(7))],
                vec![(1, Value::Int(150))],
                vec![(1, Value::Float(7.0))],
                vec![(1, Value::Int(-1))],
            ],
        );
    }

    #[test]
    fn join_key_ids_follow_the_executor_key_equality() {
        use crate::storage::DataType;
        let mut ints = Table::new("ints", vec![("k".into(), DataType::Int)]);
        for k in [Value::Int(0), Value::Int(1), Value::Int(2), Value::Null, Value::Int(1)] {
            ints.push_row(vec![k]);
        }
        let mut floats = Table::new(
            "floats",
            vec![("k".into(), DataType::Float), ("v".into(), DataType::Int)],
        );
        for (i, k) in [-0.0, 0.0, 1.0, 2.5, 1.0].into_iter().enumerate() {
            floats.push_row(vec![Value::Float(k), Value::Int(i as i64)]);
        }
        floats.push_row(vec![Value::Null, Value::Int(9)]);
        let mut db = Database::new("keys");
        db.add_table(ints, None, &[]);
        db.add_table(floats, None, &["v"]);
        assert_batch_matches_scalar(
            &db,
            "SELECT * FROM ints AS i JOIN floats AS f ON i.k = f.k WHERE f.v >= {p_1}",
            "columnar",
            &[
                vec![(1, Value::Int(0))],
                vec![(1, Value::Int(2))],
                vec![(1, Value::Int(9))],
            ],
        );
    }

    #[test]
    fn fixed_subqueries_are_hoisted_out_of_the_row_loop() {
        let db = tpch();
        assert_batch_matches_scalar(
            &db,
            "SELECT c.c_name FROM customer AS c WHERE c.c_acctbal > {p_1} AND \
             EXISTS (SELECT orders.o_orderkey FROM orders \
                     WHERE orders.o_totalprice > 90000)",
            "hoisted",
            &[
                vec![(1, Value::Float(500.0))],
                vec![(1, Value::Float(-200.0))],
            ],
        );
    }

    #[test]
    fn dynamic_subqueries_take_the_scalar_tier() {
        let db = tpch();
        assert_batch_matches_scalar(
            &db,
            "SELECT c.c_name FROM customer AS c WHERE c.c_custkey IN \
             (SELECT orders.o_custkey FROM orders \
              WHERE orders.o_totalprice > {p_1})",
            "scalar",
            &[
                vec![(1, Value::Float(1_000.0))],
                vec![(1, Value::Float(100_000.0))],
            ],
        );
    }

    #[test]
    fn missing_binding_reports_smallest_unbound_id() {
        let db = tpch();
        let template = parse_template(
            "SELECT l.l_orderkey FROM lineitem AS l \
             WHERE l.l_quantity > {p_1} AND l.l_extendedprice < {p_2}",
        )
        .unwrap();
        let prepared = PreparedExec::prepare(&db, &template);
        let batch = batch_of(&[2], &[vec![(2, Value::Float(100.0))]]);
        let mut scratch = ExecScratch::new();
        assert_eq!(
            prepared.execute_batch(&db, &batch, &mut scratch).unwrap_err(),
            DbError::UnboundPlaceholder(1)
        );
    }

    #[test]
    fn empty_batch_returns_empty_results() {
        let db = tpch();
        let template = parse_template(
            "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity > {p_1}",
        )
        .unwrap();
        let prepared = PreparedExec::prepare(&db, &template);
        let batch = BindingBatch::new(vec![1]);
        let mut scratch = ExecScratch::new();
        let results = prepared.execute_batch(&db, &batch, &mut scratch).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn unfiltered_scan_counts_every_row() {
        let db = tpch();
        assert_batch_matches_scalar(
            &db,
            "SELECT * FROM region AS r",
            "columnar",
            &[vec![]],
        );
    }
}
