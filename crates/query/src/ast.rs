//! Abstract syntax of the query language.
//!
//! Names are nf2's shared [`Name`]s: the analysis and the plan hold the
//! statement's names by reference count instead of copying them.

use colock_nf2::{Name, Value};
use std::fmt;

/// A range declaration: `c IN cells` or `r IN c.robots`.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeDecl {
    /// Range variable name.
    pub var: Name,
    /// Source: a relation name, or a parent variable with a path.
    pub source: RangeSource,
}

/// Where a range variable draws its elements from.
#[derive(Debug, Clone, PartialEq)]
pub enum RangeSource {
    /// A relation: `c IN cells`.
    Relation(Name),
    /// A path below another variable: `r IN c.robots`.
    Path {
        /// Parent range variable.
        parent: Name,
        /// Dot path below the parent.
        path: Vec<Name>,
    },
}

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// An operand of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// `var.path` (path may be empty for the variable itself).
    Path {
        /// Range variable.
        var: Name,
        /// Dot path below it.
        path: Vec<Name>,
    },
    /// A literal value.
    Literal(Value),
}

/// A boolean condition (disjunction of conjunctions of atoms).
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Comparison atom.
    Cmp {
        /// Left operand.
        left: Operand,
        /// Operator.
        op: Comparison,
        /// Right operand.
        right: Operand,
    },
    /// Conjunction.
    And(Box<Condition>, Box<Condition>),
    /// Disjunction.
    Or(Box<Condition>, Box<Condition>),
    /// Negation.
    Not(Box<Condition>),
}

/// The FOR clause of a SELECT (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForClause {
    /// `FOR READ`.
    Read,
    /// `FOR UPDATE`.
    Update,
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Projections: one or more `var[.path]` items (a bare `*` projects the
    /// first range var). With several items, each result row is a tuple.
    pub projections: Vec<Operand>,
    /// `SELECT COUNT(*)`: return the match count instead of rows.
    pub count: bool,
    /// Range declarations, outermost first.
    pub ranges: Vec<RangeDecl>,
    /// Optional WHERE condition.
    pub condition: Option<Condition>,
    /// FOR READ / FOR UPDATE (defaults to READ).
    pub for_clause: ForClause,
}

impl Query {
    /// The first projection (every query has at least one unless `count`).
    pub fn primary_projection(&self) -> Option<&Operand> {
        self.projections.first()
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT … FROM … [WHERE …] FOR READ|UPDATE`.
    Select(Query),
    /// `UPDATE var.path = literal FROM … [WHERE …]`.
    Update {
        /// Target to assign (a var.path operand).
        target: Operand,
        /// New value.
        value: Value,
        /// Ranges.
        ranges: Vec<RangeDecl>,
        /// Condition.
        condition: Option<Condition>,
    },
    /// `DELETE var FROM … [WHERE …]` — deletes matching complex objects (the
    /// variable must range over a relation).
    Delete {
        /// Variable naming what to delete.
        var: Name,
        /// Ranges.
        ranges: Vec<RangeDecl>,
        /// Condition.
        condition: Option<Condition>,
    },
    /// Programmatic insert (no literal syntax for nested values).
    Insert {
        /// Target relation.
        relation: Name,
        /// The complex object.
        value: Value,
    },
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Comparison::Eq => "=",
            Comparison::Neq => "<>",
            Comparison::Lt => "<",
            Comparison::Le => "<=",
            Comparison::Gt => ">",
            Comparison::Ge => ">=",
        };
        f.write_str(s)
    }
}

impl Comparison {
    /// Evaluates the comparison over two values (same-kind comparisons only;
    /// mixed kinds compare false).
    pub fn eval(self, left: &Value, right: &Value) -> bool {
        use std::cmp::Ordering;
        let ord = match (left, right) {
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Real(a), Value::Real(b)) => {
                return match self {
                    Comparison::Eq => a == b,
                    Comparison::Neq => a != b,
                    Comparison::Lt => a < b,
                    Comparison::Le => a <= b,
                    Comparison::Gt => a > b,
                    Comparison::Ge => a >= b,
                };
            }
            (Value::Int(a), Value::Real(b)) => {
                return Comparison::eval(self, &Value::Real(*a as f64), &Value::Real(*b));
            }
            (Value::Real(a), Value::Int(b)) => {
                return Comparison::eval(self, &Value::Real(*a), &Value::Real(*b as f64));
            }
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            _ => return matches!(self, Comparison::Neq),
        };
        match self {
            Comparison::Eq => ord == Ordering::Equal,
            Comparison::Neq => ord != Ordering::Equal,
            Comparison::Lt => ord == Ordering::Less,
            Comparison::Le => ord != Ordering::Greater,
            Comparison::Gt => ord == Ordering::Greater,
            Comparison::Ge => ord != Ordering::Less,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_eval_strings_and_numbers() {
        assert!(Comparison::Eq.eval(&Value::str("a"), &Value::str("a")));
        assert!(Comparison::Lt.eval(&Value::Int(1), &Value::Int(2)));
        assert!(Comparison::Ge.eval(&Value::Real(2.0), &Value::Int(2)));
        assert!(Comparison::Neq.eval(&Value::Int(1), &Value::str("1")));
        assert!(!Comparison::Eq.eval(&Value::Int(1), &Value::str("1")));
    }

    #[test]
    fn display_ops() {
        assert_eq!(Comparison::Le.to_string(), "<=");
    }
}
