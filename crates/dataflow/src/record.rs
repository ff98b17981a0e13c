//! Records: the unit of data flowing along dataflow edges.

use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A record is a short, positionally addressed sequence of [`Value`]s.
///
/// Operators identify key fields by position (see [`crate::key`]), mirroring
/// the PACT record model: the system does not interpret the payload beyond
/// the declared key fields, which is what allows arbitrary user code inside
/// operators while still supporting partitioning, sorting and joining.
///
/// Records of at most two fields — edges, vertex/component and
/// vertex/rank pairs, i.e. nearly every record the iterative workloads ship —
/// keep their values inline, so building, cloning and reviving them allocates
/// nothing.  Wider records keep their values in a heap vector.  Equality,
/// ordering and hashing depend only on [`Record::fields`], never on where the
/// values live.
pub struct Record {
    fields: Fields,
}

/// The most fields a record stores without a heap allocation.
const INLINE_FIELDS: usize = 2;

/// Where a record's values live.  `Heap` may hold `INLINE_FIELDS` or fewer
/// values: [`Record::clear`] keeps a heap vector for reuse by the next fill.
enum Fields {
    Zero,
    One(Value),
    Two([Value; INLINE_FIELDS]),
    Heap(Vec<Value>),
}

const _: () = assert!(std::mem::size_of::<Record>() <= 40);

impl Record {
    /// Creates a record from a vector of values.
    pub fn new(fields: Vec<Value>) -> Self {
        if fields.len() > INLINE_FIELDS {
            return Record {
                fields: Fields::Heap(fields),
            };
        }
        Record::from_values(fields.len(), fields)
    }

    /// Creates an empty record; fields can be appended with [`Record::push`].
    pub fn empty() -> Self {
        Record {
            fields: Fields::Zero,
        }
    }

    /// Convenience constructor for the ubiquitous `(long, long)` records
    /// (edges, vertex/component pairs, vertex/candidate pairs).
    pub fn pair(a: i64, b: i64) -> Self {
        Record {
            fields: Fields::Two([Value::Long(a), Value::Long(b)]),
        }
    }

    /// Convenience constructor for `(long, double)` records (rank vectors).
    pub fn long_double(a: i64, b: f64) -> Self {
        Record {
            fields: Fields::Two([Value::Long(a), Value::Double(b)]),
        }
    }

    /// Convenience constructor for `(long, long, double)` records (the sparse
    /// transition-matrix representation of PageRank).
    pub fn triple(a: i64, b: i64, c: f64) -> Self {
        Record {
            fields: Fields::Heap(vec![Value::Long(a), Value::Long(b), Value::Double(c)]),
        }
    }

    /// Builds a record from exactly `len` values, inline when they fit.
    fn from_values(len: usize, values: impl IntoIterator<Item = Value>) -> Self {
        let mut record = Record {
            fields: if len > INLINE_FIELDS {
                Fields::Heap(Vec::with_capacity(len))
            } else {
                Fields::Zero
            },
        };
        record.refill(values.into_iter());
        record
    }

    /// Replaces the fields with `values`, reusing the record's heap vector if
    /// it has one.  One assignment instead of a `clear` and a `push` per
    /// field: the page readers revive every record this way.
    #[inline]
    pub(crate) fn refill(&mut self, mut values: impl Iterator<Item = Value>) {
        if let Fields::Heap(vs) = &mut self.fields {
            vs.clear();
            vs.extend(values);
            return;
        }
        self.fields = match (values.next(), values.next()) {
            (Some(a), Some(b)) => match values.next() {
                None => Fields::Two([a, b]),
                Some(c) => {
                    let mut vs = Vec::with_capacity(2 * INLINE_FIELDS);
                    vs.extend([a, b, c]);
                    vs.extend(values);
                    Fields::Heap(vs)
                }
            },
            (Some(a), None) => Fields::One(a),
            (None, _) => Fields::Zero,
        };
    }

    /// Number of fields in the record.
    #[inline]
    pub fn arity(&self) -> usize {
        self.fields().len()
    }

    /// Returns the field at `idx`; panics if the index is out of bounds, which
    /// indicates a plan/UDF arity mismatch.
    #[inline]
    pub fn field(&self, idx: usize) -> &Value {
        &self.fields()[idx]
    }

    /// Returns the integer stored in field `idx`.
    #[inline]
    pub fn long(&self, idx: usize) -> i64 {
        self.field(idx).as_long()
    }

    /// Returns the float stored in field `idx`.
    #[inline]
    pub fn double(&self, idx: usize) -> f64 {
        self.field(idx).as_double()
    }

    /// Returns the boolean stored in field `idx`.
    #[inline]
    pub fn bool(&self, idx: usize) -> bool {
        self.field(idx).as_bool()
    }

    /// Replaces the field at `idx` with `value`.
    #[inline]
    pub fn set_field(&mut self, idx: usize, value: Value) {
        let fields: &mut [Value] = match &mut self.fields {
            Fields::Zero => &mut [],
            Fields::One(v) => std::slice::from_mut(v),
            Fields::Two(vs) => vs,
            Fields::Heap(vs) => vs,
        };
        fields[idx] = value;
    }

    /// Appends a field.  The third field moves an inline record to the heap.
    #[inline]
    pub fn push(&mut self, value: Value) {
        match &mut self.fields {
            Fields::Heap(vs) => vs.push(value),
            Fields::Zero => self.fields = Fields::One(value),
            Fields::One(a) => {
                let a = std::mem::replace(a, Value::Null);
                self.fields = Fields::Two([a, value]);
            }
            Fields::Two([a, b]) => {
                let mut vs = Vec::with_capacity(2 * INLINE_FIELDS);
                vs.extend([
                    std::mem::replace(a, Value::Null),
                    std::mem::replace(b, Value::Null),
                    value,
                ]);
                self.fields = Fields::Heap(vs);
            }
        }
    }

    /// Removes all fields, keeping a heap allocation if the record has one.
    /// Used by the page readers to reuse one scratch record across
    /// deserializations.
    #[inline]
    pub fn clear(&mut self) {
        match &mut self.fields {
            Fields::Heap(vs) => vs.clear(),
            inline => *inline = Fields::Zero,
        }
    }

    /// Borrow the underlying fields.
    #[inline]
    pub fn fields(&self) -> &[Value] {
        match &self.fields {
            Fields::Zero => &[],
            Fields::One(v) => std::slice::from_ref(v),
            Fields::Two(vs) => vs,
            Fields::Heap(vs) => vs,
        }
    }

    /// Consume the record and return its fields.
    #[inline]
    pub fn into_fields(self) -> Vec<Value> {
        match self.fields {
            Fields::Zero => Vec::new(),
            Fields::One(v) => vec![v],
            Fields::Two(vs) => Vec::from(vs),
            Fields::Heap(vs) => vs,
        }
    }

    /// Builds a new record by concatenating the fields of `self` and `other`;
    /// used by join-style operators that forward both sides.
    pub fn concat(&self, other: &Record) -> Record {
        Record::from_values(
            self.arity() + other.arity(),
            self.fields().iter().chain(other.fields()).cloned(),
        )
    }

    /// Builds a new record keeping only the fields at `indices`, in order.
    pub fn project(&self, indices: &[usize]) -> Record {
        Record::from_values(
            indices.len(),
            indices.iter().map(|&i| self.fields()[i].clone()),
        )
    }

    /// The **exact** serialized size of this record in bytes under the
    /// binary page format of [`crate::page`]: the 4-byte length prefix plus
    /// each field's width.  Used for shipped-bytes accounting, the
    /// optimizer's cost model, and the page writer's fit check.
    pub fn estimated_bytes(&self) -> usize {
        crate::page::RECORD_FRAME_BYTES
            + self
                .fields()
                .iter()
                .map(Value::estimated_bytes)
                .sum::<usize>()
    }
}

impl Clone for Record {
    /// Clones inline whenever the fields fit, so a scratch record that kept
    /// a heap vector still clones into an allocation-free copy.
    fn clone(&self) -> Self {
        let fields = match &self.fields {
            Fields::Zero => Fields::Zero,
            Fields::One(v) => Fields::One(v.clone()),
            Fields::Two(vs) => Fields::Two(vs.clone()),
            Fields::Heap(vs) => return Record::from_values(vs.len(), vs.iter().cloned()),
        };
        Record { fields }
    }
}

impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Record")
            .field("fields", &self.fields())
            .finish()
    }
}

impl PartialEq for Record {
    fn eq(&self, other: &Self) -> bool {
        self.fields() == other.fields()
    }
}

impl Eq for Record {}

impl Hash for Record {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.fields().hash(state);
    }
}

impl PartialOrd for Record {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Record {
    fn cmp(&self, other: &Self) -> Ordering {
        self.fields().cmp(other.fields())
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.fields().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Record {
    fn from(fields: Vec<Value>) -> Self {
        Record::new(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_constructor_and_accessors() {
        let r = Record::pair(3, 9);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.long(0), 3);
        assert_eq!(r.long(1), 9);
    }

    #[test]
    fn long_double_and_triple() {
        let r = Record::long_double(1, 0.25);
        assert_eq!(r.double(1), 0.25);
        let t = Record::triple(1, 2, 0.5);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.long(1), 2);
        assert_eq!(t.double(2), 0.5);
    }

    #[test]
    fn set_field_and_push() {
        let mut r = Record::empty();
        r.push(Value::Long(5));
        r.push(Value::from("x"));
        r.set_field(0, Value::Long(6));
        assert_eq!(r.long(0), 6);
        assert_eq!(r.field(1).as_text(), "x");
    }

    #[test]
    fn concat_joins_fields_in_order() {
        let a = Record::pair(1, 2);
        let b = Record::long_double(3, 4.0);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 4);
        assert_eq!(c.long(2), 3);
        assert_eq!(c.double(3), 4.0);
    }

    #[test]
    fn project_selects_and_reorders() {
        let r = Record::triple(1, 2, 0.5);
        let p = r.project(&[2, 0]);
        assert_eq!(p.arity(), 2);
        assert_eq!(p.double(0), 0.5);
        assert_eq!(p.long(1), 1);
    }

    #[test]
    fn estimated_bytes_sums_fields() {
        let r = Record::pair(1, 2);
        assert_eq!(r.estimated_bytes(), 4 + 9 + 9);
    }

    #[test]
    fn estimated_bytes_is_the_exact_serialized_width() {
        // The estimate doubles as the fit check of the page writer, so it
        // must equal the serialized length for every variant, fixed-width
        // and variable-width alike.
        let records = [
            Record::pair(1, -1),
            Record::long_double(7, 0.25),
            Record::new(vec![
                Value::Null,
                Value::Bool(false),
                Value::from("多字节 ✓"),
            ]),
            Record::empty(),
        ];
        for r in records {
            let mut buf = Vec::new();
            crate::page::serialize_record(&r, &mut buf);
            assert_eq!(buf.len(), r.estimated_bytes(), "width mismatch for {r}");
        }
    }

    #[test]
    fn clear_keeps_the_record_usable() {
        let mut r = Record::pair(1, 2);
        r.clear();
        assert_eq!(r.arity(), 0);
        r.push(Value::Long(9));
        assert_eq!(r.long(0), 9);
    }

    #[test]
    fn display_is_tuple_like() {
        assert_eq!(Record::pair(1, 2).to_string(), "(1, 2)");
    }

    #[test]
    fn records_are_hashable_and_ordered() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Record::pair(1, 2));
        set.insert(Record::pair(1, 2));
        assert_eq!(set.len(), 1);
        assert!(Record::pair(1, 2) < Record::pair(1, 3));
    }
}
