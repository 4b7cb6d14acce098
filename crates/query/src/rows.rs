//! The rows of a SELECT result, sharing the stored containers they were
//! read from.
//!
//! A row that is an element of a stored set or list — `SELECT o FROM c IN
//! cells, o IN c.c_objects` — is a view into that container: the result
//! holds the container's `Arc` once per run of consecutive elements, not a
//! `Value` per row. Writers copy a shared node before they change it
//! ([`Value::elements_mut`]), so a kept result stays the version the
//! statement read. Computed rows (tuples of several projections, `COUNT`,
//! path projections, whole objects) own their value.

use colock_nf2::Value;
use std::fmt;
use std::ops::{Index, Range};
use std::sync::Arc;

/// A SELECT's rows, in order.
#[derive(Clone, Default)]
pub struct Rows {
    runs: Vec<Run>,
    len: usize,
}

/// Consecutive rows of one origin, starting at row `start` of the result.
#[derive(Clone)]
struct Run {
    start: usize,
    rows: RunRows,
}

#[derive(Clone)]
enum RunRows {
    /// `elements[range]` of one stored set or list.
    Shared(Arc<Vec<Value>>, Range<usize>),
    /// Computed rows.
    Owned(Vec<Value>),
}

impl Run {
    fn rows(&self) -> &[Value] {
        match &self.rows {
            RunRows::Shared(elements, range) => &elements[range.clone()],
            RunRows::Owned(values) => values,
        }
    }
}

impl Rows {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there is no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { runs: self.runs.iter(), run: [].iter(), left: self.len }
    }

    /// The rows as owned values (each a clone, sharing its composite
    /// interior with the store).
    pub fn to_vec(&self) -> Vec<Value> {
        self.iter().cloned().collect()
    }

    /// Appends element `index` of the stored container `elements`: extends
    /// the last run when it is the same container's previous element.
    pub(crate) fn push_element(&mut self, elements: &Arc<Vec<Value>>, index: usize) {
        match self.runs.last_mut() {
            Some(Run { rows: RunRows::Shared(shared, range), .. })
                if range.end == index && Arc::ptr_eq(shared, elements) =>
            {
                range.end += 1;
            }
            _ => self.runs.push(Run {
                start: self.len,
                rows: RunRows::Shared(Arc::clone(elements), index..index + 1),
            }),
        }
        self.len += 1;
    }

    /// Appends a computed row.
    pub(crate) fn push(&mut self, value: Value) {
        match self.runs.last_mut() {
            Some(Run { rows: RunRows::Owned(values), .. }) => values.push(value),
            _ => self.runs.push(Run { start: self.len, rows: RunRows::Owned(vec![value]) }),
        }
        self.len += 1;
    }
}

impl Index<usize> for Rows {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        assert!(i < self.len, "row {i} of {}", self.len);
        let run = &self.runs[self.runs.partition_point(|r| r.start <= i) - 1];
        &run.rows()[i - run.start]
    }
}

/// Iterator over [`Rows`], borrowing them.
#[derive(Clone)]
pub struct Iter<'a> {
    runs: std::slice::Iter<'a, Run>,
    run: std::slice::Iter<'a, Value>,
    left: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<&'a Value> {
        loop {
            if let Some(v) = self.run.next() {
                self.left -= 1;
                return Some(v);
            }
            self.run = self.runs.next()?.rows().iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a Value;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        self.len == other.len && self.iter().eq(other)
    }
}

impl PartialEq<[Value]> for Rows {
    fn eq(&self, other: &[Value]) -> bool {
        self.len == other.len() && self.iter().eq(other)
    }
}

impl PartialEq<&[Value]> for Rows {
    fn eq(&self, other: &&[Value]) -> bool {
        *self == **other
    }
}

impl PartialEq<Vec<Value>> for Rows {
    fn eq(&self, other: &Vec<Value>) -> bool {
        *self == **other
    }
}

impl<const N: usize> PartialEq<[Value; N]> for Rows {
    fn eq(&self, other: &[Value; N]) -> bool {
        *self == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn container(n: i64) -> Arc<Vec<Value>> {
        Arc::new((0..n).map(Value::Int).collect())
    }

    #[test]
    fn consecutive_elements_share_one_run() {
        let c = container(4);
        let mut rows = Rows::default();
        for i in 0..4 {
            rows.push_element(&c, i);
        }
        assert_eq!(rows.runs.len(), 1);
        assert_eq!(Arc::strong_count(&c), 2, "one clone of the container");
        assert_eq!(rows, [Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn gaps_other_containers_and_computed_rows_start_runs() {
        let (a, b) = (container(4), container(2));
        let mut rows = Rows::default();
        rows.push_element(&a, 1);
        rows.push_element(&a, 3);
        rows.push(Value::str("x"));
        rows.push(Value::str("y"));
        rows.push_element(&b, 0);
        rows.push_element(&b, 1);
        let want = vec![
            Value::Int(1),
            Value::Int(3),
            Value::str("x"),
            Value::str("y"),
            Value::Int(0),
            Value::Int(1),
        ];
        assert_eq!(rows.runs.len(), 4);
        assert_eq!(rows, want);
        assert_eq!(rows.to_vec(), want);
        assert_eq!(rows.iter().len(), 6);
        for (i, v) in want.iter().enumerate() {
            assert_eq!(&rows[i], v);
        }
        assert_eq!(format!("{rows:?}"), format!("{want:?}"));
        assert_ne!(rows, want[..5]);
        assert!(Rows::default().is_empty());
        assert_eq!(Rows::default(), Vec::<Value>::new());
    }

    #[test]
    #[should_panic(expected = "row 2 of 2")]
    fn indexing_past_the_end_panics() {
        let mut rows = Rows::default();
        rows.push(Value::Int(0));
        rows.push(Value::Int(1));
        let _ = &rows[2];
    }
}
