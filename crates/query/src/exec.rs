//! Query execution (§4.1 step 3): "During query execution, the stored
//! granule and mode information are obtained from the query-specific lock
//! graphs, and locks are requested from a lock manager. … If a lock is
//! granted, the corresponding data may be accessed."

use crate::analyze::{analyze, eval_condition, eval_operand, Access, BoundRange};
use crate::ast::{Condition, Operand, Statement};
use crate::error::QueryError;
use crate::plan::{plan_locks, QueryPlan};
use crate::Result;
use colock_core::optimizer::{Granularity, Optimizer, PlannedLock};
use colock_core::{AccessMode, InstanceTarget};
use colock_lockmgr::LockMode;
use colock_nf2::{AttrType, ObjectKey, Value};
use colock_txn::Transaction;
use std::collections::{HashMap, HashSet};

/// One result row: the projected value.
pub type Row = Value;

/// Outcome of executing a statement.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome {
    /// Projected rows (SELECT).
    pub rows: Vec<Row>,
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
    let rules: Vec<_> = plan.analysis.ranges.iter().map(|r| binding_rules(plan, r)).collect();
    let mut exec = Executor {
        txn,
        plan,
        outcome: ExecOutcome::default(),
        relation_locked: HashSet::new(),
        rules: &rules,
    };
    exec.run()?;
    Ok(exec.outcome)
}

/// A planned lock with the access it serves.
type Rule<'p> = (&'p PlannedLock, &'p Access);

/// The lock rules that fire each time `range` binds a row: the
/// Object/Subtree rules of the accesses below a relation range, the Elements
/// rules of a dependent range's own accesses.
fn binding_rules<'p>(plan: &'p QueryPlan, range: &BoundRange) -> Vec<Rule<'p>> {
    let outermost_var = |var: &str| {
        let mut cur = plan.analysis.range(var)?;
        while let Some(parent) = &cur.parent {
            cur = plan.analysis.range(parent)?;
        }
        Some(cur.var.as_str())
    };
    plan.lock_plan
        .locks
        .iter()
        .zip(&plan.analysis.accesses)
        .filter(|(planned, access)| match range.parent {
            None => {
                planned.relation == range.relation
                    && matches!(planned.granularity, Granularity::Object | Granularity::Subtree)
                    && outermost_var(&access.var) == Some(range.var.as_str())
            }
            Some(_) => planned.granularity == Granularity::Elements && access.var == range.var,
        })
        .collect()
}

struct Executor<'t, 'p> {
    txn: &'t Transaction<'t>,
    plan: &'p QueryPlan,
    outcome: ExecOutcome,
    relation_locked: HashSet<String>,
    /// Per range of `plan.analysis.ranges`: its [`binding_rules`].
    rules: &'p [Vec<Rule<'p>>],
}

/// A bound row during iteration.
struct Frame {
    bindings: Vec<(String, Value)>,
    targets: HashMap<String, InstanceTarget>,
}

impl<'t> Executor<'t, '_> {
    fn run(&mut self) -> Result<()> {
        match &self.plan.statement {
            Statement::Insert { relation, value } => {
                self.txn
                    .insert(relation, value.clone())
                    .map_err(|e| QueryError::Execution(e.to_string()))?;
                self.outcome.updated += 1;
                Ok(())
            }
            Statement::Select(q) => {
                self.lock_relation_granules()?;
                let projections = q.projections.clone();
                let count = q.count;
                let condition = q.condition.clone();
                let mut rows = Vec::new();
                let mut matches = 0u64;
                self.iterate(0, &mut Frame { bindings: Vec::new(), targets: HashMap::new() }, &condition, &mut |frame| {
                    if count {
                        matches += 1;
                        return Ok(());
                    }
                    if projections.len() == 1 {
                        rows.push(project(&projections[0], frame)?);
                    } else {
                        let mut fields = Vec::with_capacity(projections.len());
                        for p in &projections {
                            fields.push((projection_name(p).into(), project(p, frame)?));
                        }
                        rows.push(Value::Tuple(fields.into()));
                    }
                    Ok(())
                })?;
                if count {
                    rows.push(Value::Int(matches as i64));
                }
                self.outcome.rows = rows;
                Ok(())
            }
            Statement::Update { target, value, condition, .. } => {
                self.lock_relation_granules()?;
                let condition = condition.clone();
                let target = target.clone();
                let mut updates: Vec<(InstanceTarget, Value)> = Vec::new();
                self.iterate(0, &mut Frame { bindings: Vec::new(), targets: HashMap::new() }, &condition, &mut |frame| {
                    let Operand::Path { var, path } = &target else {
                        return Err(QueryError::Execution("UPDATE target must be a path".into()));
                    };
                    let t = frame
                        .targets
                        .get(var)
                        .ok_or_else(|| QueryError::Execution(format!("unbound `{var}`")))?;
                    let mut t = t.clone();
                    for s in path {
                        t = t.attr(s);
                    }
                    updates.push((t, value.clone()));
                    Ok(())
                })?;
                for (t, v) in updates {
                    self.txn.update(&t, v).map_err(|e| QueryError::Execution(e.to_string()))?;
                    self.outcome.updated += 1;
                }
                Ok(())
            }
            Statement::Delete { var, condition, .. } => {
                self.lock_relation_granules()?;
                let condition = condition.clone();
                let var = var.clone();
                let mut victims: Vec<InstanceTarget> = Vec::new();
                self.iterate(0, &mut Frame { bindings: Vec::new(), targets: HashMap::new() }, &condition, &mut |frame| {
                    let t = frame
                        .targets
                        .get(&var)
                        .ok_or_else(|| QueryError::Execution(format!("unbound `{var}`")))?;
                    victims.push(t.clone());
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
        for (planned, _access) in
            self.plan.lock_plan.locks.iter().zip(&self.plan.analysis.accesses)
        {
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

    /// Nested-loop iteration over the bound ranges with lock acquisition at
    /// binding time, per the query-specific lock graph.
    fn iterate(
        &mut self,
        idx: usize,
        frame: &mut Frame,
        condition: &Option<Condition>,
        visit: &mut dyn FnMut(&Frame) -> Result<()>,
    ) -> Result<()> {
        let plan = self.plan;
        let ranges = &plan.analysis.ranges;
        if idx == ranges.len() {
            let keep = match condition {
                Some(c) => eval_condition(&frame.bindings, c)?,
                None => true,
            };
            if keep {
                visit(frame)?;
            }
            return Ok(());
        }
        let range = &ranges[idx];
        match &range.parent {
            None => {
                // Relation range: candidates by key predicate or full scan.
                let store = self.txn.manager().store().clone();
                let keys: Vec<ObjectKey> = match &range.key_predicate {
                    Some(k) => {
                        if store.contains(&range.relation, k) {
                            vec![k.clone()]
                        } else {
                            Vec::new()
                        }
                    }
                    None => store
                        .keys(&range.relation)
                        .map_err(|e| QueryError::Execution(e.to_string()))?,
                };
                for key in keys {
                    let target = InstanceTarget::object(&range.relation, key.clone());
                    self.fire_object_rules(idx, &target)?;
                    let value = store
                        .get(&range.relation, &key)
                        .map_err(|e| QueryError::Execution(e.to_string()))?;
                    frame.bindings.push((range.var.clone(), value));
                    frame.targets.insert(range.var.clone(), target);
                    self.iterate(idx + 1, frame, condition, visit)?;
                    frame.bindings.pop();
                    frame.targets.remove(&range.var);
                }
                Ok(())
            }
            Some(parent) => {
                // Dependent range: elements of a container below the parent
                // binding.
                let parent_target = frame
                    .targets
                    .get(parent)
                    .ok_or_else(|| QueryError::Execution(format!("unbound `{parent}`")))?
                    .clone();
                let parent_value = frame
                    .bindings
                    .iter()
                    .find(|(v, _)| v == parent)
                    .map(|(_, v)| v.clone())
                    .expect("parent bound");
                // Path of this range relative to its parent.
                let parent_range = plan.analysis.range(parent).expect("parent analyzed");
                let rel_steps = &range.path.steps()[parent_range.path.steps().len()..];
                // Navigate within the bound value.
                let mut container = &parent_value;
                for s in rel_steps {
                    container = container.field(s).ok_or_else(|| {
                        QueryError::Execution(format!("no attribute `{s}`"))
                    })?;
                }
                let elem_ty = self.element_type(range)?;
                for value in container.elements().unwrap_or_default() {
                    if let Some(pred) = &range.key_predicate {
                        if !elem_ty.is_some_and(|t| value.has_element_key(t, pred)) {
                            continue;
                        }
                    }
                    let key = elem_ty.and_then(|t| value.element_key(t));
                    // The element's instance target.
                    let mut target = parent_target.clone();
                    for (i, s) in rel_steps.iter().enumerate() {
                        if i + 1 == rel_steps.len() {
                            match &key {
                                Some(k) => target = target.elem(s, k.clone()),
                                None => target = target.attr(s),
                            }
                        } else {
                            target = target.attr(s);
                        }
                    }
                    self.fire_element_rules(idx, &target)?;
                    frame.bindings.push((range.var.clone(), value.clone()));
                    frame.targets.insert(range.var.clone(), target);
                    self.iterate(idx + 1, frame, condition, visit)?;
                    frame.bindings.pop();
                    frame.targets.remove(&range.var);
                }
                Ok(())
            }
        }
    }

    fn element_type(&self, range: &BoundRange) -> Result<Option<&'t AttrType>> {
        let txn = self.txn;
        let rel = txn
            .manager()
            .store()
            .catalog()
            .schema()
            .relation(&range.relation)
            .map_err(|e| QueryError::Execution(e.to_string()))?;
        Ok(range.path.resolve(rel).ok().and_then(AttrType::element))
    }

    /// Fires Object/Subtree lock rules when an object binding is created.
    fn fire_object_rules(&mut self, range: usize, object: &InstanceTarget) -> Result<()> {
        let plan = self.plan;
        for &(planned, access) in &self.rules[range] {
            let target = match planned.granularity {
                Granularity::Object => object.clone(),
                Granularity::Subtree => {
                    // Lock the ranged container (HoLU) of the access's var.
                    let holu_path =
                        plan.analysis.range(&access.var).map_or(&access.path, |r| &r.path);
                    let mut t = object.clone();
                    for s in holu_path.steps() {
                        t = t.attr(s);
                    }
                    t
                }
                _ => continue,
            };
            let report = self
                .lock_planned(&target, planned.mode, &access.var)
                .map_err(|e| QueryError::Execution(e.to_string()))?;
            self.absorb(&report);
        }
        Ok(())
    }

    /// Fires Elements lock rules when an element binding is created.
    fn fire_element_rules(&mut self, range: usize, element: &InstanceTarget) -> Result<()> {
        let range_path_len = self.plan.analysis.ranges[range].path.steps().len();
        for &(planned, access) in &self.rules[range] {
            // Semantic container mode first (root-to-leaf, rule 5): Member/
            // Insert/Delete on the set/list replaces the plain intent so
            // distinct-element operations commute.
            if let Some(container_mode) = planned.container_mode {
                if let Some(container) = container_of(element) {
                    let report = self
                        .txn
                        .lock_with_mode_blocking(&container, container_mode)
                        .map_err(|e| QueryError::Execution(e.to_string()))?;
                    self.absorb(&report);
                }
            }
            // Trailing attribute steps below the element (e.g. trajectory).
            let mut target = element.clone();
            for s in &access.path.steps()[range_path_len..] {
                target = target.attr(s);
            }
            let report = self
                .lock_planned(&target, planned.mode, &access.var)
                .map_err(|e| QueryError::Execution(e.to_string()))?;
            self.absorb(&report);
        }
        Ok(())
    }

    /// Locks `target` in the planned mode, exploiting query semantics
    /// (§4.5): the DELETE target variable never dereferences its references,
    /// so downward propagation is skipped for it.
    fn lock_planned(
        &self,
        target: &InstanceTarget,
        mode: LockMode,
        var: &str,
    ) -> colock_txn::Result<colock_core::LockReport> {
        let no_deref = matches!(&self.plan.statement, Statement::Delete { var: dv, .. } if dv == var);
        if no_deref {
            self.txn.lock_no_deref(target, mode_to_access(mode))
        } else {
            self.txn.lock_with_mode_blocking(target, mode)
        }
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

fn projection_name(p: &Operand) -> String {
    match p {
        Operand::Path { var, path } if path.is_empty() => var.clone(),
        Operand::Path { var, path } => format!("{var}.{}", path.join(".")),
        Operand::Literal(_) => "literal".to_string(),
    }
}

fn project(projection: &Operand, frame: &Frame) -> Result<Value> {
    match projection {
        Operand::Path { var, path } if var == "*" && path.is_empty() => frame
            .bindings
            .first()
            .map(|(_, v)| v.clone())
            .ok_or_else(|| QueryError::Execution("empty frame".into())),
        other => eval_operand(&frame.bindings, other),
    }
}
