//! Query execution (§4.1 step 3): "During query execution, the stored
//! granule and mode information are obtained from the query-specific lock
//! graphs, and locks are requested from a lock manager. … If a lock is
//! granted, the corresponding data may be accessed."
//!
//! [`execute`] first compiles the plan: one slot per range with its parent
//! slot, its steps below the parent, its element type, the lock rules its
//! rows fire, whether anything needs its rows' instance targets, and the
//! top-level WHERE conjuncts that can be decided once it is bound. The row
//! loop then only binds: locks as each row binds, targets where needed, and
//! values by reference. A relation range reads each object once (a shared
//! handle on the stored version); every dependent range borrows its
//! elements from the row above, and a row is a chain of stack `Frame`s,
//! so binding copies no `Value`. The result ([`Rows`]) shares the stored
//! containers its element rows came from.

use crate::analyze::{analyze, condition_holds, operand_value, Access, BoundRange};
use crate::ast::{Condition, Operand, Statement};
use crate::error::QueryError;
use crate::plan::{plan_locks, QueryPlan};
use crate::rows::Rows;
use crate::Result;
use colock_core::optimizer::{Granularity, Optimizer, PlannedLock};
use colock_core::{AccessMode, InstanceTarget};
use colock_lockmgr::LockMode;
use colock_nf2::{AttrType, Catalog, Name, ObjectKey, Value};
use colock_storage::StorageError;
use colock_txn::Transaction;
use std::collections::HashSet;
use std::sync::Arc;

/// One result row: the projected value.
pub type Row = Value;

/// Outcome of executing a statement.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome {
    /// Projected rows (SELECT).
    pub rows: Rows,
    /// Number of subvalues updated.
    pub updated: usize,
    /// Number of objects/elements deleted.
    pub deleted: usize,
    /// Lock requests issued on behalf of this statement (granted,
    /// non-redundant).
    pub lock_requests: usize,
    /// Entry points locked by downward propagation.
    pub entry_points_locked: u64,
}

/// Parses, analyzes, plans and executes `input` within `txn`.
pub fn run(txn: &Transaction<'_>, input: &str, optimizer: &Optimizer) -> Result<ExecOutcome> {
    let stmt = crate::parser::parse(input)?;
    run_statement(txn, stmt, optimizer)
}

/// Analyzes, plans and executes a statement within `txn`.
pub fn run_statement(
    txn: &Transaction<'_>,
    stmt: Statement,
    optimizer: &Optimizer,
) -> Result<ExecOutcome> {
    let catalog = txn.manager().store().catalog().clone();
    let analysis = analyze(&catalog, &stmt)?;
    let plan = plan_locks(&catalog, stmt, analysis, optimizer)?;
    execute(txn, &plan)
}

/// Executes a planned statement within `txn`.
pub fn execute(txn: &Transaction<'_>, plan: &QueryPlan) -> Result<ExecOutcome> {
    let compiled = compile(plan, txn.manager().store().catalog())?;
    let mut exec = Executor {
        txn,
        plan,
        compiled: &compiled,
        outcome: ExecOutcome::default(),
        relation_locked: HashSet::new(),
    };
    exec.run()?;
    Ok(exec.outcome)
}

/// A plan compiled for its row loop: one slot per range, outermost first,
/// and the WHERE conjuncts no range binds.
struct Compiled<'p> {
    ranges: &'p [BoundRange],
    slots: Vec<Slot<'p>>,
    /// Conjuncts naming no bound variable, evaluated on each complete row.
    leaf: Vec<&'p Condition>,
}

/// What binding one row of a range does, decided once per execution.
struct Slot<'p> {
    range: &'p BoundRange,
    /// Slot of the parent range (dependent ranges only).
    parent: Option<usize>,
    /// Attribute steps from the parent's row down to the ranged container.
    rel_steps: &'p [String],
    /// Element type of the ranged container (dependent ranges only).
    elem_ty: Option<&'p AttrType>,
    /// The lock rules fired each time a row binds.
    rules: Vec<Rule<'p>>,
    /// Whether anything needs the row's [`InstanceTarget`]: a lock rule of
    /// this range or a deeper one, or the UPDATE/DELETE target variable.
    /// Rows of other ranges bind their value only.
    needs_target: bool,
    /// Top-level WHERE conjuncts whose deepest variable this range binds,
    /// evaluated once per row right after it binds.
    conjuncts: Vec<&'p Condition>,
}

/// A planned lock as one range's rows fire it.
struct Rule<'p> {
    planned: &'p PlannedLock,
    /// Attribute steps from the row's target to the locked granule: none for
    /// an Object rule, the ranged container (HoLU) for a Subtree rule, the
    /// attribute below the element for an Elements rule.
    steps: &'p [String],
    /// The DELETE target variable never dereferences its references, so
    /// downward propagation is skipped for it (§4.5).
    no_deref: bool,
}

fn compile<'p>(plan: &'p QueryPlan, catalog: &'p Catalog) -> Result<Compiled<'p>> {
    let ranges = &plan.analysis.ranges;
    let (condition, target_var, delete_var) = match &plan.statement {
        Statement::Select(q) => (q.condition.as_ref(), None, None),
        Statement::Update { target, condition, .. } => {
            let var = match target {
                Operand::Path { var, .. } => Some(&**var),
                Operand::Literal(_) => None,
            };
            (condition.as_ref(), var, None)
        }
        Statement::Delete { var, condition, .. } => {
            (condition.as_ref(), Some(&**var), Some(&**var))
        }
        Statement::Insert { .. } => (None, None, None),
    };
    let mut slots: Vec<Slot<'p>> = Vec::with_capacity(ranges.len());
    for range in ranges {
        let (parent, rel_steps, elem_ty) = match &range.parent {
            None => (None, &[][..], None),
            Some(parent) => {
                let p = slot_of(ranges, parent)
                    .ok_or_else(|| QueryError::Execution(format!("unbound `{parent}`")))?;
                let rel = catalog
                    .schema()
                    .relation(&range.relation)
                    .map_err(|e| QueryError::Execution(e.to_string()))?;
                let rel_steps = &range.path.steps()[ranges[p].path.steps().len()..];
                (Some(p), rel_steps, range.path.resolve(rel).ok().and_then(AttrType::element))
            }
        };
        let rules = binding_rules(plan, range, delete_var);
        slots.push(Slot {
            range,
            parent,
            rel_steps,
            elem_ty,
            needs_target: !rules.is_empty() || target_var == Some(&*range.var),
            rules,
            conjuncts: Vec::new(),
        });
    }
    // A row's target is built from its parent's.
    for i in (0..slots.len()).rev() {
        if let (true, Some(p)) = (slots[i].needs_target, slots[i].parent) {
            slots[p].needs_target = true;
        }
    }
    let mut leaf = Vec::new();
    let mut conjuncts = Vec::new();
    if let Some(c) = condition {
        split_conjuncts(c, &mut conjuncts);
    }
    for c in conjuncts {
        match conjunct_slot(ranges, c) {
            Some(i) => slots[i].conjuncts.push(c),
            None => leaf.push(c),
        }
    }
    Ok(Compiled { ranges, slots, leaf })
}

fn slot_of(ranges: &[BoundRange], var: &str) -> Option<usize> {
    ranges.iter().position(|r| *r.var == *var)
}

/// The top-level `AND` conjuncts of `cond`, left to right.
fn split_conjuncts<'c>(cond: &'c Condition, out: &mut Vec<&'c Condition>) {
    match cond {
        Condition::And(a, b) => {
            split_conjuncts(a, out);
            split_conjuncts(b, out);
        }
        other => out.push(other),
    }
}

/// The slot at which a conjunct is evaluated: the deepest of the slots that
/// bind its variables. `None` when it names no variable, or one no range
/// binds (it is then evaluated, and reported, on the complete row).
fn conjunct_slot(ranges: &[BoundRange], cond: &Condition) -> Option<usize> {
    fn deepest(ranges: &[BoundRange], cond: &Condition) -> Option<usize> {
        match cond {
            Condition::Cmp { left, right, .. } => [left, right]
                .into_iter()
                .filter_map(|op| match op {
                    Operand::Path { var, .. } => Some(slot_of(ranges, var).unwrap_or(usize::MAX)),
                    Operand::Literal(_) => None,
                })
                .max(),
            Condition::And(a, b) | Condition::Or(a, b) => {
                deepest(ranges, a).max(deepest(ranges, b))
            }
            Condition::Not(c) => deepest(ranges, c),
        }
    }
    deepest(ranges, cond).filter(|&i| i < ranges.len())
}

impl<'p> Compiled<'p> {
    /// The variable lookup of a row bound up to `row`'s slot.
    fn lookup<'a>(&'a self, row: Bound<'a>) -> impl Fn(&str) -> Option<&'a Value> {
        move |var| Some(frame_at(row, slot_of(self.ranges, var)?)?.value)
    }

    /// The value of `op` on a row bound up to `row`'s slot.
    fn value<'a>(&'a self, row: Bound<'a>, op: &'a Operand) -> Result<&'a Value> {
        operand_value(&self.lookup(row), op)
    }

    /// Whether every conjunct holds on a row bound up to `row`'s slot.
    fn holds(&self, conjuncts: &[&'p Condition], row: Bound<'_>) -> Result<bool> {
        let lookup = self.lookup(row);
        for c in conjuncts {
            if !condition_holds(&lookup, c)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// The lock rules that fire each time `range` binds a row: the
/// Object/Subtree rules of the accesses below a relation range, the Elements
/// rules of the range's own accesses (a relation range's path has no steps,
/// so its Elements rule locks the accessed attribute of each bound object).
fn binding_rules<'p>(
    plan: &'p QueryPlan,
    range: &BoundRange,
    delete_var: Option<&str>,
) -> Vec<Rule<'p>> {
    let analysis = &plan.analysis;
    let outermost_var = |var: &str| {
        let mut cur = analysis.range(var)?;
        while let Some(parent) = &cur.parent {
            cur = analysis.range(parent)?;
        }
        Some(&*cur.var)
    };
    let below_relation_range = |planned: &PlannedLock, access: &Access| {
        range.parent.is_none()
            && *planned.relation == *range.relation
            && outermost_var(&access.var) == Some(&*range.var)
    };
    plan.lock_plan
        .locks
        .iter()
        .zip(&analysis.accesses)
        .filter_map(|(planned, access)| {
            let steps = match planned.granularity {
                Granularity::Object if below_relation_range(planned, access) => &[][..],
                Granularity::Subtree if below_relation_range(planned, access) => {
                    analysis.range(&access.var).map_or(&access.path, |r| &r.path).steps()
                }
                Granularity::Elements if access.var == range.var => {
                    &access.path.steps()[range.path.steps().len()..]
                }
                _ => return None,
            };
            Some(Rule { planned, steps, no_deref: delete_var == Some(&*access.var) })
        })
        .collect()
}

struct Executor<'t, 'p> {
    txn: &'t Transaction<'t>,
    plan: &'p QueryPlan,
    compiled: &'p Compiled<'p>,
    outcome: ExecOutcome,
    relation_locked: HashSet<String>,
}

/// One range's binding in a row, on the nested loop's stack: its value,
/// borrowed from the object read for the outermost range; where that value
/// is an element of a stored set or list, the container and its index
/// there; its target where the slot needs one; and the binding of the slot
/// before it.
struct Frame<'a> {
    slot: usize,
    value: &'a Value,
    element_of: Option<(&'a Arc<Vec<Value>>, usize)>,
    target: Option<InstanceTarget>,
    up: Bound<'a>,
}

/// The bound prefix of a row: its deepest frame, `None` before the first
/// slot binds.
type Bound<'a> = Option<&'a Frame<'a>>;

/// The frame of `slot` in `row`, if that slot is bound.
fn frame_at<'a>(mut row: Bound<'a>, slot: usize) -> Bound<'a> {
    while let Some(f) = row {
        if f.slot <= slot {
            return (f.slot == slot).then_some(f);
        }
        row = f.up;
    }
    None
}

impl<'t> Executor<'t, '_> {
    fn run(&mut self) -> Result<()> {
        let plan = self.plan;
        let compiled = self.compiled;
        match &plan.statement {
            Statement::Insert { relation, value } => {
                self.txn
                    .insert(relation, value.clone())
                    .map_err(|e| QueryError::Execution(e.to_string()))?;
                self.outcome.updated += 1;
                Ok(())
            }
            Statement::Select(q) => {
                self.lock_relation_granules()?;
                let mut rows = Rows::default();
                let mut matches = 0u64;
                self.bind(0, None, &mut |row| {
                    if q.count {
                        matches += 1;
                    } else if let [p] = q.projections.as_slice() {
                        push_projection(compiled, p, row, &mut rows)?;
                    } else {
                        let mut fields = Vec::with_capacity(q.projections.len());
                        for p in &q.projections {
                            fields.push((projection_name(p), project(compiled, p, row)?.clone()));
                        }
                        rows.push(Value::Tuple(fields.into()));
                    }
                    Ok(())
                })?;
                if q.count {
                    rows.push(Value::Int(matches as i64));
                }
                self.outcome.rows = rows;
                Ok(())
            }
            Statement::Update { target, value, .. } => {
                self.lock_relation_granules()?;
                let mut updates: Vec<(InstanceTarget, Value)> = Vec::new();
                self.bind(0, None, &mut |row| {
                    let Operand::Path { var, path } = target else {
                        return Err(QueryError::Execution("UPDATE target must be a path".into()));
                    };
                    let t = bound_target(compiled, row, var)?;
                    updates.push((with_steps(t, path), value.clone()));
                    Ok(())
                })?;
                for (t, v) in updates {
                    self.txn.update(&t, v).map_err(|e| QueryError::Execution(e.to_string()))?;
                    self.outcome.updated += 1;
                }
                Ok(())
            }
            Statement::Delete { var, .. } => {
                self.lock_relation_granules()?;
                let mut victims: Vec<InstanceTarget> = Vec::new();
                self.bind(0, None, &mut |row| {
                    victims.push(bound_target(compiled, row, var)?.clone());
                    Ok(())
                })?;
                for t in victims {
                    let res = if t.steps.is_empty() {
                        let key = t.object.clone().expect("object target");
                        self.txn.delete(&t.relation, &key)
                    } else {
                        self.txn.delete_element(&t)
                    };
                    res.map_err(|e| QueryError::Execution(e.to_string()))?;
                    self.outcome.deleted += 1;
                }
                Ok(())
            }
        }
    }

    /// Locks all Relation-granule plan entries up front.
    fn lock_relation_granules(&mut self) -> Result<()> {
        for planned in &self.plan.lock_plan.locks {
            if planned.granularity == Granularity::Relation
                && self.relation_locked.insert(planned.relation.clone())
            {
                let mode = mode_to_access(planned.mode);
                let report = self
                    .txn
                    .lock(&InstanceTarget::relation(&planned.relation), mode)
                    .map_err(|e| QueryError::Execution(e.to_string()))?;
                self.absorb(&report);
            }
        }
        Ok(())
    }

    fn absorb(&mut self, report: &colock_core::LockReport) {
        self.outcome.lock_requests += report.lock_count();
        self.outcome.entry_points_locked += report.entry_points_locked;
    }

    /// Nested-loop iteration over the slots from `idx` on, below the row
    /// bound so far (`up`), with lock acquisition at binding time per the
    /// query-specific lock graph; `visit` sees every complete row that
    /// satisfies the WHERE clause.
    fn bind(
        &mut self,
        idx: usize,
        up: Bound<'_>,
        visit: &mut dyn FnMut(Bound<'_>) -> Result<()>,
    ) -> Result<()> {
        let compiled = self.compiled;
        let Some(slot) = compiled.slots.get(idx) else {
            if compiled.holds(&compiled.leaf, up)? {
                visit(up)?;
            }
            return Ok(());
        };
        let range = slot.range;
        match slot.parent {
            None => {
                // Relation range: candidates by key predicate or full scan.
                let txn = self.txn;
                let store = txn.manager().store();
                let keys: Vec<ObjectKey> = match &range.key_predicate {
                    Some(k) if store.contains(&range.relation, k) => vec![k.clone()],
                    Some(_) => Vec::new(),
                    None => store
                        .keys(&range.relation)
                        .map_err(|e| QueryError::Execution(e.to_string()))?,
                };
                for key in keys {
                    let target = slot
                        .needs_target
                        .then(|| InstanceTarget::object(&*range.relation, key.clone()));
                    if let Some(object) = &target {
                        self.fire_object_rules(slot, object)?;
                    }
                    // The lock is granted. An object removed while we waited
                    // for it (a committed delete, a rolled-back insert) is
                    // no row under two-phase locking.
                    let value = match store.get(&range.relation, &key) {
                        Ok(value) => value,
                        Err(StorageError::UnknownObject { .. }) => continue,
                        Err(e) => return Err(QueryError::Execution(e.to_string())),
                    };
                    let frame = Frame { slot: idx, value: &value, element_of: None, target, up };
                    self.descend(&frame, visit)?;
                }
                Ok(())
            }
            Some(parent) => {
                // Dependent range: elements of a container below the parent
                // row, borrowed from it.
                let parent = frame_at(up, parent).expect("the parent slot binds first");
                let mut container = parent.value;
                for s in slot.rel_steps {
                    container = container
                        .field(s)
                        .ok_or_else(|| QueryError::Execution(format!("no attribute `{s}`")))?;
                }
                let (Value::Set(elements) | Value::List(elements)) = container else {
                    return Ok(());
                };
                for (i, value) in elements.iter().enumerate() {
                    if let Some(pred) = &range.key_predicate {
                        if !slot.elem_ty.is_some_and(|t| value.has_element_key(t, pred)) {
                            continue;
                        }
                    }
                    let target = match &parent.target {
                        Some(parent_target) if slot.needs_target => {
                            let key = slot.elem_ty.and_then(|t| value.element_key(t));
                            Some(element_target(parent_target, slot.rel_steps, key))
                        }
                        _ => None,
                    };
                    if let Some(element) = &target {
                        self.fire_element_rules(slot, element)?;
                    }
                    let frame =
                        Frame { slot: idx, value, element_of: Some((elements, i)), target, up };
                    self.descend(&frame, visit)?;
                }
                Ok(())
            }
        }
    }

    /// If the conjuncts placed at `frame`'s slot hold, iterates the deeper
    /// slots under it.
    fn descend(
        &mut self,
        frame: &Frame<'_>,
        visit: &mut dyn FnMut(Bound<'_>) -> Result<()>,
    ) -> Result<()> {
        let slot = &self.compiled.slots[frame.slot];
        if self.compiled.holds(&slot.conjuncts, Some(frame))? {
            self.bind(frame.slot + 1, Some(frame), visit)?;
        }
        Ok(())
    }

    /// Fires Object/Subtree lock rules when an object binding is created.
    fn fire_object_rules(&mut self, slot: &Slot<'_>, object: &InstanceTarget) -> Result<()> {
        for rule in &slot.rules {
            self.lock_planned(&with_steps(object, rule.steps), rule)?;
        }
        Ok(())
    }

    /// Fires Elements lock rules when an element binding is created.
    fn fire_element_rules(&mut self, slot: &Slot<'_>, element: &InstanceTarget) -> Result<()> {
        for rule in &slot.rules {
            // Semantic container mode first (root-to-leaf, rule 5): Member/
            // Insert/Delete on the set/list replaces the plain intent so
            // distinct-element operations commute.
            if let Some(container_mode) = rule.planned.container_mode {
                if let Some(container) = container_of(element) {
                    let report = self
                        .txn
                        .lock_with_mode_blocking(&container, container_mode)
                        .map_err(|e| QueryError::Execution(e.to_string()))?;
                    self.absorb(&report);
                }
            }
            self.lock_planned(&with_steps(element, rule.steps), rule)?;
        }
        Ok(())
    }

    /// Locks `target` in the rule's planned mode.
    fn lock_planned(&mut self, target: &InstanceTarget, rule: &Rule<'_>) -> Result<()> {
        let report = if rule.no_deref {
            self.txn.lock_no_deref(target, mode_to_access(rule.planned.mode))
        } else {
            self.txn.lock_with_mode_blocking(target, rule.planned.mode)
        }
        .map_err(|e| QueryError::Execution(e.to_string()))?;
        self.absorb(&report);
        Ok(())
    }
}

fn mode_to_access(mode: LockMode) -> AccessMode {
    // Write-side modes are exactly those whose parents must announce IX
    // (SIX, X, IX itself, and the semantic Insert/Delete, which sit *below*
    // IX and so would be misread by a bare `covers(IX)` test).
    if mode.required_parent_intent() == LockMode::IX {
        AccessMode::Update
    } else {
        AccessMode::Read
    }
}

/// The enclosing container target of an element target (`…robots[r1]` →
/// `…robots`), if the target's last step is element-qualified.
fn container_of(element: &InstanceTarget) -> Option<InstanceTarget> {
    element.steps.last()?.elem.as_ref()?;
    let mut container = element.clone();
    let last = container.steps.pop()?;
    container.steps.push(colock_core::TargetStep::attr(last.attr));
    Some(container)
}

fn projection_name(p: &Operand) -> Name {
    match p {
        Operand::Path { var, path } if path.is_empty() => var.clone(),
        Operand::Path { var, path } => format!("{var}.{}", path.join(".")).into(),
        Operand::Literal(_) => "literal".into(),
    }
}

/// The frame a projection names as a whole: `*` (the outermost range) or
/// a bare range variable.
fn projected_frame<'a>(
    compiled: &Compiled<'_>,
    projection: &Operand,
    row: Bound<'a>,
) -> Bound<'a> {
    match projection {
        Operand::Path { var, path } if path.is_empty() => {
            let slot = if &**var == "*" { 0 } else { slot_of(compiled.ranges, var)? };
            frame_at(row, slot)
        }
        _ => None,
    }
}

fn project<'a>(
    compiled: &'a Compiled<'_>,
    projection: &'a Operand,
    row: Bound<'a>,
) -> Result<&'a Value> {
    match projected_frame(compiled, projection, row) {
        Some(frame) => Ok(frame.value),
        None => compiled.value(row, projection),
    }
}

/// Appends the row of a single projection: an element of a stored
/// container is shared with it, any other value is copied.
fn push_projection(
    compiled: &Compiled<'_>,
    projection: &Operand,
    row: Bound<'_>,
    rows: &mut Rows,
) -> Result<()> {
    match projected_frame(compiled, projection, row).and_then(|f| f.element_of) {
        Some((elements, i)) => rows.push_element(elements, i),
        None => rows.push(project(compiled, projection, row)?.clone()),
    }
    Ok(())
}

/// The target of `var`'s row (its slot needs one: it is the UPDATE/DELETE
/// target variable).
fn bound_target<'r>(
    compiled: &Compiled<'_>,
    row: Bound<'r>,
    var: &str,
) -> Result<&'r InstanceTarget> {
    slot_of(compiled.ranges, var)
        .and_then(|i| frame_at(row, i)?.target.as_ref())
        .ok_or_else(|| QueryError::Execution(format!("unbound `{var}`")))
}

/// `base` extended by attribute steps.
fn with_steps(base: &InstanceTarget, steps: &[impl AsRef<str>]) -> InstanceTarget {
    let mut t = base.clone();
    for s in steps {
        t = t.attr(s.as_ref());
    }
    t
}

/// The instance target of an element `rel_steps` below its parent row's
/// target, narrowed to the element's key when it has one.
fn element_target(
    parent: &InstanceTarget,
    rel_steps: &[String],
    key: Option<ObjectKey>,
) -> InstanceTarget {
    let Some((last, above)) = rel_steps.split_last() else {
        return parent.clone();
    };
    let target = with_steps(parent, above);
    match key {
        Some(k) => target.elem(last, k),
        None => target.attr(last),
    }
}
