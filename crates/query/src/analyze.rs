//! Semantic analysis: binding range variables, extracting key predicates and
//! accessed attribute paths (§4.1: "Each query to be processed is first
//! analyzed to find out which attributes will be accessed, and which kind of
//! access (read, update, …) will be done").
//!
//! Key-equality predicates (`c.cell_id = 'c1'`, `r.robot_id = 'r1'`) are
//! treated as *addressing*: they select the object/element directly and do
//! not themselves generate data locks — which is exactly why Fig. 7 shows no
//! S lock on the `cell_id` BLU for Q2. All other accessed attributes
//! (projections, update targets, non-key predicates) are lockable accesses.
//!
//! Names are shared with the statement (reference counts, not copies), and
//! each absolute path is built once, at its final length.

use crate::ast::*;
use crate::error::QueryError;
use crate::Result;
use colock_core::optimizer::AccessEstimate;
use colock_core::AccessMode;
use colock_nf2::{AttrPath, Catalog, Name, ObjectKey, Value};

/// A range variable bound against the schema.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundRange {
    /// Variable name.
    pub var: Name,
    /// The relation the variable ultimately ranges within.
    pub relation: Name,
    /// Parent variable for dependent ranges.
    pub parent: Option<Name>,
    /// Schema path from the complex-object root to the ranged container
    /// (empty for relation ranges).
    pub path: AttrPath,
    /// Key value from an equality predicate, if the WHERE clause pins one.
    pub key_predicate: Option<ObjectKey>,
}

/// One lockable access discovered in the query.
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    /// The variable it hangs off.
    pub var: Name,
    /// Absolute schema path from the object root (may equal the range path
    /// for whole-element access).
    pub path: AttrPath,
    /// Read or update.
    pub mode: AccessMode,
    /// Whether the access targets whole elements of the ranged container
    /// (projection `SELECT r`) rather than an attribute below them.
    pub whole_element: bool,
}

/// Result of analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Bound ranges, outermost first.
    pub ranges: Vec<BoundRange>,
    /// Lockable accesses.
    pub accesses: Vec<Access>,
    /// Optimizer inputs derived from the accesses and catalog statistics.
    pub estimates: Vec<AccessEstimate>,
}

impl Analysis {
    /// The bound range for a variable.
    pub fn range(&self, var: &str) -> Option<&BoundRange> {
        find_range(&self.ranges, var)
    }
}

impl BoundRange {
    /// Key attribute of the ranged tuples, if any: the relation's key for a
    /// relation range, the element tuples' key for a dependent one.
    pub fn key_attr<'c>(&self, catalog: &'c Catalog) -> Option<&'c str> {
        let rel = catalog.schema().relation(&self.relation).ok()?;
        let key = if self.path.is_root() {
            rel.key_attribute()
        } else {
            self.path.resolve(rel).ok()?.element()?.fields()?.iter().find(|a| a.key)
        };
        key.map(|a| a.name.as_str())
    }
}

fn find_range<'b>(bound: &'b [BoundRange], var: &str) -> Option<&'b BoundRange> {
    bound.iter().find(|r| *r.var == *var)
}

/// Analyzes a statement against the catalog.
pub fn analyze(catalog: &Catalog, stmt: &Statement) -> Result<Analysis> {
    let (ranges, condition) = match stmt {
        Statement::Select(q) => (&q.ranges, &q.condition),
        Statement::Update { ranges, condition, .. } => (ranges, condition),
        Statement::Delete { ranges, condition, .. } => (ranges, condition),
        Statement::Insert { relation, .. } => {
            // Inserts have no ranges; the executor locks the new object.
            catalog
                .schema()
                .relation(relation)
                .map_err(|e| QueryError::Analysis(e.to_string()))?;
            return Ok(Analysis { ranges: Vec::new(), accesses: Vec::new(), estimates: Vec::new() });
        }
    };

    let mut bound = bind_ranges(catalog, ranges)?;
    extract_key_predicates(catalog, &mut bound, condition.as_ref());

    // Projection / update / delete target.
    let mut accesses = Vec::new();
    match stmt {
        Statement::Select(q) => {
            for proj in &q.projections {
                let (var, path) = operand_path(proj)?;
                accesses.push(target_access(catalog, &bound, var, path, mode_of(q.for_clause))?);
            }
        }
        Statement::Update { target, .. } => {
            let (var, path) = operand_path(target)?;
            accesses.push(target_access(catalog, &bound, var, path, AccessMode::Update)?);
        }
        Statement::Delete { var, .. } => {
            accesses.push(target_access(catalog, &bound, var, &[], AccessMode::Update)?);
        }
        Statement::Insert { .. } => {}
    }

    // Non-key predicate attributes are read accesses.
    if let Some(cond) = condition {
        collect_predicate_accesses(catalog, &bound, cond, &mut accesses)?;
    }

    let estimates = build_estimates(catalog, &bound, &accesses);
    Ok(Analysis { ranges: bound, accesses, estimates })
}

fn mode_of(f: ForClause) -> AccessMode {
    match f {
        ForClause::Read => AccessMode::Read,
        ForClause::Update => AccessMode::Update,
    }
}

fn operand_path(op: &Operand) -> Result<(&Name, &[Name])> {
    match op {
        Operand::Path { var, path } => Ok((var, path)),
        Operand::Literal(_) => Err(QueryError::Analysis("expected a path, found literal".into())),
    }
}

/// `base` extended by `steps`, built at its final length.
fn path_below(base: &AttrPath, steps: &[Name]) -> AttrPath {
    let mut path = Vec::with_capacity(base.steps().len() + steps.len());
    path.extend_from_slice(base.steps());
    path.extend(steps.iter().map(|s| s.to_string()));
    AttrPath::from_steps(path)
}

/// Fails unless `path` names a node of `relation` (the root always does).
fn validate(catalog: &Catalog, relation: &str, path: &AttrPath) -> Result<()> {
    if !path.is_root() {
        let rel = catalog
            .schema()
            .relation(relation)
            .map_err(|e| QueryError::Analysis(e.to_string()))?;
        path.resolve(rel).map_err(|e| QueryError::Analysis(e.to_string()))?;
    }
    Ok(())
}

/// The access of a projection or UPDATE/DELETE target `var.subpath`.
fn target_access(
    catalog: &Catalog,
    bound: &[BoundRange],
    var: &Name,
    subpath: &[Name],
    mode: AccessMode,
) -> Result<Access> {
    if &**var == "*" {
        let first = bound.first().ok_or_else(|| QueryError::Analysis("no range for *".into()))?;
        return Ok(Access {
            var: first.var.clone(),
            path: first.path.clone(),
            mode,
            whole_element: true,
        });
    }
    let range = find_range(bound, var)
        .ok_or_else(|| QueryError::Analysis(format!("unknown variable `{var}`")))?;
    let path = path_below(&range.path, subpath);
    // The range's own path was resolved when it was bound.
    if !subpath.is_empty() {
        validate(catalog, &range.relation, &path)?;
    }
    Ok(Access { var: var.clone(), path, mode, whole_element: subpath.is_empty() })
}

fn bind_ranges(catalog: &Catalog, ranges: &[RangeDecl]) -> Result<Vec<BoundRange>> {
    let mut bound: Vec<BoundRange> = Vec::with_capacity(ranges.len());
    for r in ranges {
        let range = match &r.source {
            RangeSource::Relation(rel) => {
                catalog
                    .schema()
                    .relation(rel)
                    .map_err(|e| QueryError::Analysis(e.to_string()))?;
                BoundRange {
                    var: r.var.clone(),
                    relation: rel.clone(),
                    parent: None,
                    path: AttrPath::root(),
                    key_predicate: None,
                }
            }
            RangeSource::Path { parent, path } => {
                let parent_range = find_range(&bound, parent).ok_or_else(|| {
                    QueryError::Analysis(format!("unknown parent variable `{parent}`"))
                })?;
                let abs = path_below(&parent_range.path, path);
                let rel = catalog
                    .schema()
                    .relation(&parent_range.relation)
                    .map_err(|e| QueryError::Analysis(e.to_string()))?;
                let ty = abs.resolve(rel).map_err(|e| QueryError::Analysis(e.to_string()))?;
                if !ty.is_homogeneous() {
                    return Err(QueryError::Analysis(format!(
                        "`{}` does not range over a set/list",
                        r.var
                    )));
                }
                BoundRange {
                    var: r.var.clone(),
                    relation: parent_range.relation.clone(),
                    parent: Some(parent.clone()),
                    path: abs,
                    key_predicate: None,
                }
            }
        };
        bound.push(range);
    }
    Ok(bound)
}

/// Walks the top-level conjunction extracting `var.key = literal` predicates.
fn extract_key_predicates(catalog: &Catalog, bound: &mut [BoundRange], cond: Option<&Condition>) {
    fn walk(catalog: &Catalog, cond: &Condition, bound: &mut [BoundRange]) {
        match cond {
            Condition::And(a, b) => {
                walk(catalog, a, bound);
                walk(catalog, b, bound);
            }
            Condition::Cmp { left, op: Comparison::Eq, right } => {
                let (path_op, lit) = match (left, right) {
                    (Operand::Path { .. }, Operand::Literal(v)) => (left, v),
                    (Operand::Literal(v), Operand::Path { .. }) => (right, v),
                    _ => return,
                };
                let Operand::Path { var, path } = path_op else {
                    return;
                };
                let [attr] = path.as_slice() else {
                    return;
                };
                let Some(range) = bound.iter_mut().find(|r| r.var == *var) else {
                    return;
                };
                if range.key_attr(catalog) == Some(&**attr) {
                    if let Some(k) = lit.as_key() {
                        range.key_predicate = Some(k);
                    }
                }
            }
            // OR / NOT branches cannot pin keys soundly.
            _ => {}
        }
    }
    if let Some(c) = cond {
        walk(catalog, c, bound);
    }
}

/// Adds read accesses for non-key predicate attributes.
fn collect_predicate_accesses(
    catalog: &Catalog,
    bound: &[BoundRange],
    cond: &Condition,
    out: &mut Vec<Access>,
) -> Result<()> {
    match cond {
        Condition::And(a, b) | Condition::Or(a, b) => {
            collect_predicate_accesses(catalog, bound, a, out)?;
            collect_predicate_accesses(catalog, bound, b, out)?;
        }
        Condition::Not(c) => collect_predicate_accesses(catalog, bound, c, out)?,
        Condition::Cmp { left, op, right } => {
            for operand in [left, right] {
                let Operand::Path { var, path } = operand else {
                    continue;
                };
                let Some(range) = find_range(bound, var) else {
                    return Err(QueryError::Analysis(format!("unknown variable `{var}`")));
                };
                // Key-equality addressing generates no lockable access.
                let is_key_addressing = *op == Comparison::Eq
                    && range.key_predicate.is_some()
                    && matches!(path.as_slice(),
                        [attr] if range.key_attr(catalog) == Some(&**attr));
                if is_key_addressing {
                    continue;
                }
                let abs = path_below(&range.path, path);
                validate(catalog, &range.relation, &abs)?;
                if !out.iter().any(|a| a.var == *var && a.path == abs) {
                    out.push(Access {
                        var: var.clone(),
                        path: abs,
                        mode: AccessMode::Read,
                        whole_element: false,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Builds optimizer estimates from bound ranges + accesses + statistics.
fn build_estimates(catalog: &Catalog, bound: &[BoundRange], accesses: &[Access]) -> Vec<AccessEstimate> {
    accesses
        .iter()
        .map(|a| {
            let range = find_range(bound, &a.var);
            let object_var = range.map(|r| outermost(bound, r)).unwrap_or(None);
            let objects_expected = match object_var {
                Some(ov) if ov.key_predicate.is_some() => 1.0,
                _ => range
                    .and_then(|r| catalog.relation_stats(&r.relation))
                    .map_or(0, |s| s.cardinality)
                    .max(1) as f64,
            };
            let elems_expected = match range {
                Some(r) if r.path.is_root() => 1.0, // the object itself
                Some(r) if r.key_predicate.is_some() => 1.0,
                Some(r) => catalog
                    .estimated_instances(&r.relation, &r.path)
                    .unwrap_or(1.0),
                None => 1.0,
            };
            AccessEstimate {
                relation: range.map(|r| r.relation.to_string()).unwrap_or_default(),
                path: a.path.clone(),
                access: a.mode,
                objects_expected,
                elems_expected,
            }
        })
        .collect()
}

fn outermost<'b>(bound: &'b [BoundRange], r: &'b BoundRange) -> Option<&'b BoundRange> {
    let mut cur = r;
    while let Some(parent) = &cur.parent {
        cur = find_range(bound, parent)?;
    }
    Some(cur)
}

/// Evaluates an operand against variable bindings (the executor's helpers
/// live here to keep path semantics in one place). Borrows: a path yields a
/// reference into its bound value, a literal the literal itself.
pub fn eval_operand<'a>(
    bindings: &'a [(String, Value)],
    op: &'a Operand,
) -> std::result::Result<&'a Value, QueryError> {
    operand_value(&named(bindings), op)
}

/// Evaluates a condition against bindings.
pub fn eval_condition(
    bindings: &[(String, Value)],
    cond: &Condition,
) -> std::result::Result<bool, QueryError> {
    condition_holds(&named(bindings), cond)
}

/// The lookup of a variable in name-keyed bindings.
fn named<'a>(bindings: &'a [(String, Value)]) -> impl Fn(&str) -> Option<&'a Value> {
    move |var| bindings.iter().find(|(v, _)| v == var).map(|(_, b)| b)
}

/// [`eval_operand`] over any variable lookup.
pub(crate) fn operand_value<'a>(
    lookup: &impl Fn(&str) -> Option<&'a Value>,
    op: &'a Operand,
) -> std::result::Result<&'a Value, QueryError> {
    match op {
        Operand::Literal(v) => Ok(v),
        Operand::Path { var, path } => {
            let mut cur = lookup(var)
                .ok_or_else(|| QueryError::Execution(format!("unbound variable `{var}`")))?;
            for step in path {
                cur = cur.field(step).ok_or_else(|| {
                    QueryError::Execution(format!("no field `{step}` in `{var}`"))
                })?;
            }
            Ok(cur)
        }
    }
}

/// [`eval_condition`] over any variable lookup.
pub(crate) fn condition_holds<'a>(
    lookup: &impl Fn(&str) -> Option<&'a Value>,
    cond: &'a Condition,
) -> std::result::Result<bool, QueryError> {
    match cond {
        Condition::Cmp { left, op, right } => {
            Ok(op.eval(operand_value(lookup, left)?, operand_value(lookup, right)?))
        }
        Condition::And(a, b) => Ok(condition_holds(lookup, a)? && condition_holds(lookup, b)?),
        Condition::Or(a, b) => Ok(condition_holds(lookup, a)? || condition_holds(lookup, b)?),
        Condition::Not(c) => Ok(!condition_holds(lookup, c)?),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use colock_core::fixtures::fig1_catalog;

    fn analyzed(q: &str) -> Analysis {
        analyze(&fig1_catalog(), &parse(q).unwrap()).unwrap()
    }

    #[test]
    fn q2_binds_ranges_and_keys() {
        let a = analyzed(
            "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE",
        );
        let c = a.range("c").unwrap();
        assert_eq!(&*c.relation, "cells");
        assert_eq!(c.key_predicate, Some(ObjectKey::from("c1")));
        let r = a.range("r").unwrap();
        assert_eq!(r.path.to_string(), "robots");
        assert_eq!(r.key_attr(&fig1_catalog()), Some("robot_id"));
        assert_eq!(r.key_predicate, Some(ObjectKey::from("r1")));
        // Only the projection access (key predicates are addressing).
        assert_eq!(a.accesses.len(), 1);
        assert_eq!(a.accesses[0].mode, AccessMode::Update);
        assert!(a.accesses[0].whole_element);
    }

    #[test]
    fn non_key_predicate_becomes_read_access() {
        let a = analyzed(
            "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.trajectory = 't1' FOR UPDATE",
        );
        let paths: Vec<String> = a.accesses.iter().map(|x| x.path.to_string()).collect();
        assert!(paths.contains(&"robots.trajectory".to_string()), "{paths:?}");
        let r = a.range("r").unwrap();
        assert!(r.key_predicate.is_none());
    }

    #[test]
    fn key_in_or_branch_is_not_addressing() {
        let a = analyzed(
            "SELECT c FROM c IN cells WHERE c.cell_id = 'c1' OR c.cell_id = 'c2' FOR READ",
        );
        assert!(a.range("c").unwrap().key_predicate.is_none());
    }

    #[test]
    fn unknown_variable_rejected() {
        let e = analyze(
            &fig1_catalog(),
            &parse("SELECT x FROM c IN cells FOR READ").unwrap(),
        )
        .unwrap_err();
        assert!(matches!(e, QueryError::Analysis(_)));
    }

    #[test]
    fn bad_range_path_rejected() {
        let e = analyze(
            &fig1_catalog(),
            &parse("SELECT r FROM c IN cells, r IN c.cell_id FOR READ").unwrap(),
        )
        .unwrap_err();
        assert!(matches!(e, QueryError::Analysis(_)));
    }

    #[test]
    fn estimates_reflect_key_predicates() {
        let mut cat = fig1_catalog();
        cat.relation_stats_mut("cells").cardinality = 50;
        cat.record_cardinality("cells", "robots", 4.0);
        let keyed = analyze(
            &cat,
            &parse("SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id='c1' AND r.robot_id='r1' FOR UPDATE").unwrap(),
        )
        .unwrap();
        assert_eq!(keyed.estimates[0].objects_expected, 1.0);
        assert_eq!(keyed.estimates[0].elems_expected, 1.0);

        let scan = analyze(
            &cat,
            &parse("SELECT r FROM c IN cells, r IN c.robots FOR READ").unwrap(),
        )
        .unwrap();
        assert_eq!(scan.estimates[0].objects_expected, 50.0);
        assert_eq!(scan.estimates[0].elems_expected, 4.0);
    }

    #[test]
    fn condition_evaluation() {
        use colock_nf2::value::build::tup;
        let bindings = vec![(
            "r".to_string(),
            tup(vec![("robot_id", Value::str("r1")), ("n", Value::Int(5))]),
        )];
        let cond = parse("SELECT r FROM c IN cells WHERE r.robot_id = 'r1' AND r.n > 3 FOR READ");
        let Statement::Select(q) = cond.unwrap() else { panic!() };
        assert!(eval_condition(&bindings, &q.condition.unwrap()).unwrap());
    }
}
